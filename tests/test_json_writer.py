"""Reference code for the JSON writer, kept to check the one-pass one.

`ref_dump` is the encoder that `cli._dump` replaced: a strict-JSON copy
of the document (`ref_jsonable`) handed to
`json.dumps(sort_keys=True, indent=2)`.  `cli._dump` must print the
same bytes on edge documents, on hypothesis documents and on every
document the `compat`, `plan`, `tb`, `rulings`, `wh`, `braid` and
`gf-chords` commands print for a few fixed inputs.
"""

import json
import math
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legcob import cli
from legcob.geography import realize
from legcob.laurent import LaurentPoly, parse_poly


# --- reference: copy, then json.dumps ------------------------------------

def ref_jsonable(v):
    """Strict-JSON copy: non-finite floats become strings, fractions and
    other objects their text form, keys stay strings."""
    if v is None or isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(v)
    if isinstance(v, dict):
        return {str(k): ref_jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [ref_jsonable(x) for x in v]
    return str(v)


def ref_dump(doc):
    return json.dumps(ref_jsonable(doc), sort_keys=True, indent=2)


# --- the checks ----------------------------------------------------------

class Sign(IntEnum):
    PLUS = 1


class Word(str):
    pass


Pair = namedtuple("Pair", "a b")

EDGE_DOCUMENTS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-320, 1e22,
    1e16, 0.1, -2.5e-308, np.float64(0.1), np.float64("nan"),
    np.bool_(True), np.bool_(False), np.int64(7), Fraction(3, 2),
    Fraction(-4), LaurentPoly({2: 1, -1: 3}), True, False, None, 0, -1,
    10**40, -(10**40), "", "plain", "é中\U0001f600",
    "tab\tquote\"back\\slash\nnew\x00\x1f\x7f",
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()],
    {"x": [{"y": {}}, [[]]]},
    [True, 1, 2], [1, True], [1, 2, 3], (1, 2, 3), [1, 2.0], [1, None],
    [1, np.int64(2)], [np.float64(1.5), 2], [10**40, -3],
    {1: "int key", (1, 2): "tuple key", None: "none key", 2.5: "float"},
    {"b": 1, "B": 2, "a": 3, "A": 4, "_": 5, "é": 6, "~": 7},
    {1: "int first", "1": "str second"}, {"1": "str first", 1: "int"},
    {"nested": {"z": [1, {"q": Fraction(1, 3)}], "a": (np.bool_(True),)}},
    {Fraction(1, 2): [float("nan"), -float("inf")]},
    # lists of int lists and int tuples, joined without a recursive call
    [[1, 2], [3], []], [(1, 2), (3,), ()], [[0], (-1, 10**40)], [[], ()],
    {"rulings": [(0, 2), (1,)], "n": [[5]]},
    # an inner item that is not a plain int takes the fallback
    [[1, True]], [[1, 2], [np.int64(3)]], [[1], [2.0]], [[Sign.PLUS, 2]],
    [(1,), [False]], [[1], None], [[1], "2"], [Pair(1, 2), [3]],
    # int-list lists three levels deep
    [[[1, 2], [3]], [[4], []]], {"a": [{"b": [[1, 2], (3,)]}]},
    # exact types beside their subclasses
    Sign.PLUS, [Sign.PLUS, 1], Word("w"), {Word("k"): Word("v")},
    OrderedDict([("b", 1), ("a", [2])]), Pair(1, [2]),
    np.float64(2.5), np.float64(-0.0), [np.float64("nan"), np.float64(-0.0)],
    {"x": np.float64(1e300), "y": np.float64("-inf")},
]


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS, ids=repr)
def test_edge_documents(doc):
    assert cli._dump(doc) == ref_dump(doc)


scalars = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=-10**30,
                                         max_value=10**30)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text(max_size=8)
           | st.fractions(max_denominator=50)
           | st.builds(np.float64, st.floats())
           | st.builds(np.bool_, st.booleans()))
keys = (st.text(max_size=6) | st.integers(min_value=-5, max_value=20)
        | st.booleans() | st.none()
        | st.tuples(st.integers(min_value=0, max_value=3)))
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(st.integers(), max_size=6)
                   | st.lists(st.lists(st.integers(), max_size=4)
                              | st.tuples(st.integers()), max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(keys, inner, max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_hypothesis_documents(doc):
    assert cli._dump(doc) == ref_dump(doc)


CLOSURE6 = ("L1 L2 L3 L4 L5 L6 X7 X11 X9 X8 X10 X7 X9 X11 X8 X10 X9 X7 X11 "
            "X8 X10 X9 X7 X11 R6 R5 R4 R3 R2 R1")
POLY8 = "t^8 + 5t^7 + 4t^6 + 3t^5 + 6t^4 + 2t^3 + 3t^2 + 4t + 5"
COMMANDS = [
    ["compat", "--dim", "3", "--poly", "t^3 + t^2 + 1"],
    ["compat", "--dim", "3", "--poly", "t^3 + t^5"],
    ["compat", "--dim", "8", "--poly", POLY8],
    ["plan", "--dim", "3", "--poly", "t^3 + t^2"],
    ["plan", "--dim", "8", "--poly", POLY8],
    ["plan", "--dim", "3", "--poly", "t^3 + 2t", "--sphere-only"],
    ["tb", "--dim", "1", "--poly", "2 + t"],
    ["tb", "--dim", "4", "--poly", "t^4 + 2t^3 + t + 3"],
    ["rulings", "--front", "L1 L2 X3 X3 X3 R2 R1"],
    ["rulings", "--front", "L1 L2 X3 X3 X3 R2 R1", "--graded"],
    ["rulings", "--front", "L1 L2 R1 L1 R2 R1"],
    ["rulings", "--front", CLOSURE6],
    ["wh", "--front", "L1 R1"],
    ["wh", "--front", "L1 L2 X3 X3 X3 R2 R1"],
    ["braid", "--strands", "3", "--word", "2,1"],
    ["braid", "--strands", "4", "--word", "1,3,2,1,3"],
    ["gf-chords", "--family", "unknot", "--step", "0.2"],
    ["gf-chords", "--family", "stacked-pair", "--step", "0.2"],
    ["gf-chords", "--family", "fish", "--step", "0.2"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_documents(argv):
    args = cli._build_parser().parse_args(argv)
    _, doc = cli._HANDLERS[args.cmd](args)
    if args.cmd == "plan":
        # the handler returns the plan already encoded
        plan = realize(parse_poly(args.poly), args.dim,
                       sphere_only=args.sphere_only)
        assert doc == ref_dump(plan.to_dict())
    else:
        assert cli._dump(doc) == ref_dump(doc)
