"""SVG rendering of front diagrams and of sampled family fronts.

Layout is deterministic: event index fixes the x coordinate, strand
position fixes the y coordinate.  Cusps are drawn as the meeting point
of two cubic curves; crossings are plain intersections with no
over/under break.  A front's drawing grows as its events times its
most strands, and one past MAX_SVG_POINTS of those is refused before
any path is built.
"""

from .errors import DomainError

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]
# render_svg's pixels per event (DX) and per strand position (DY),
# render_points_svg's canvas size, and the margin around both drawings.
DX, DY = 48, 28
WIDTH, HEIGHT = 480, 320
MARGIN = 30
# Cap on events x max strands of a front render_svg draws.  Timed from
# the shell under a 1 GiB address-space limit (2 cores, Python 3.11):
# k nested eyes have 2k events of up to 2k strands, and k = 600 (1.44e6
# points) takes 1.2 s, peaks at 115 MB and writes 13 MB; k = 700 (1.96e6)
# 1.4 s, 153 MB and 17 MB; k = 1,000 (4e6) 3.3 s and 303 MB.  A drawing
# at the cap takes under half of a 3 s deadline, and stays within it on
# a host twice as slow.
MAX_SVG_POINTS = 2 * 10**6


def _strand_tracks(diagram):
    """Per id: (birth event, death event, [(slice, position 1-based), ...]),
    listed in one pass over the slices, one run of the word
    (front.simulate); slice 0 holds no strand.  An id is born at the
    event before its first slice and dies at the event after its last."""
    # imported here, so that a render of sampled fronts loads no front code
    from .front import simulate
    pts = [[] for _ in range(diagram.n_ids)]
    for s, stack in enumerate(simulate(diagram.events, [], 0), 1):
        for p, a in enumerate(stack, 1):
            pts[a].append((s, p))
    return {a: (t[0][0] - 1, t[-1][0], t) for a, t in enumerate(pts)}


def render_svg(diagram):
    """Deterministic SVG 1.1 document for the front."""
    events, strands = len(diagram.events), diagram.max_strands
    if events * strands > MAX_SVG_POINTS:
        raise DomainError(
            f"SVG too large: {events} events x {strands} strands exceed "
            f"the cap of {MAX_SVG_POINTS:.3g} points")
    width = 2 * MARGIN + DX * max(events, 1)
    height = 2 * MARGIN + DY * max(strands + 1, 2)

    def sx(s):
        return MARGIN + DX * s

    def sy(p):
        return MARGIN + DY * p

    tracks = _strand_tracks(diagram)
    paths = []
    for a in range(diagram.n_ids):
        bi, di, pts = tracks[a]
        color = _PALETTE[diagram.comp_of[a] % len(_PALETTE)]
        cusp_b = (sx(bi + 0.5), sy(diagram.events[bi][1] + 0.5))
        cusp_d = (sx(di + 0.5), sy(diagram.events[di][1] + 0.5))
        d = [f"M {cusp_b[0]:.1f} {cusp_b[1]:.1f}"]
        x0, y0 = sx(pts[0][0]), sy(pts[0][1])
        d.append(f"C {cusp_b[0]:.1f} {y0:.1f} {(cusp_b[0] + x0) / 2:.1f}"
                 f" {y0:.1f} {x0:.1f} {y0:.1f}")
        for s, p in pts[1:]:
            d.append(f"L {sx(s):.1f} {sy(p):.1f}")
        xl, yl = sx(pts[-1][0]), sy(pts[-1][1])
        d.append(f"C {(cusp_d[0] + xl) / 2:.1f} {yl:.1f} {cusp_d[0]:.1f}"
                 f" {yl:.1f} {cusp_d[0]:.1f} {cusp_d[1]:.1f}")
        paths.append(f'<path d="{" ".join(d)}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    body = "\n".join(paths)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'{body}\n</svg>\n')


def render_points_svg(xs, zs):
    """Scatter SVG of front samples: first base coordinate across, z up.

    xs and zs are the samples' first base coordinates and z values; for
    a 2-d base only the x1 projection is drawn.  Layout is data-driven
    but deterministic (samples are re-sorted before drawing).
    """
    pts = sorted(zip(xs, zs))
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n')
    if not pts:
        return head + "</svg>\n"
    xs = [p[0] for p in pts]
    zs = [p[1] for p in pts]
    x0, z0 = min(xs), min(zs)
    sx = (WIDTH - 2 * MARGIN) / max(max(xs) - x0, 1e-9)
    sz = (HEIGHT - 2 * MARGIN) / max(max(zs) - z0, 1e-9)
    dots = "\n".join(
        f'<circle cx="{MARGIN + (x - x0) * sx:.1f}" '
        f'cy="{HEIGHT - MARGIN - (z - z0) * sz:.1f}" r="1.6" '
        f'fill="{_PALETTE[0]}"/>' for x, z in pts)
    return head + dots + "\n</svg>\n"
