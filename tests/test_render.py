from legcob.front import parse_front
from legcob.render import render_svg

TREFOIL = "L1 L2 X3 X3 X3 R2 R1"


def test_svg_structure():
    out = render_svg(parse_front(TREFOIL))
    assert out.startswith("<svg")
    assert 'width="' in out and 'height="' in out
    assert out.count("<path") == 4  # one per strand arc
    assert "C " in out  # cusps are cubic curve meeting points


def test_svg_deterministic():
    d1 = render_svg(parse_front("L1 R1"))
    d2 = render_svg(parse_front("L1 R1"))
    assert d1 == d2
