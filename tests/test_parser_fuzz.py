"""A fuzz of the six text parsers: on any string each returns a value or
raises a DomainError, and nothing else escapes.

Each parser gets 200 hypothesis strings: arbitrary text, text over its
own grammar's characters, and words of its own tokens, valid and near
misses, so that most strings get past the first check.
"""

import pytest
from hypothesis import given, settings, strategies as st

from legcob.errors import DomainError
from legcob.front import parse_front
from legcob.gfnum import parse_gf_file
from legcob.laurent import parse_poly
from legcob.moves import parse_move, parse_trace
from legcob.mpoly import parse_mpoly


def _strings(chars, tokens, sep=" "):
    return st.one_of(
        st.text(max_size=20),
        st.text(alphabet=chars, max_size=30),
        st.lists(st.sampled_from(tokens), max_size=8).map(sep.join))


def _lines(chars, lines):
    return st.lists(st.one_of(st.sampled_from(lines),
                              st.text(alphabet=chars, max_size=20)),
                    max_size=6).map("\n".join)


FRONT = _strings("LXR0123456789 -\t", [
    "L1", "L2", "L3", "X1", "X2", "X3", "R1", "R2", "L0", "X", "R-1",
    "L99", "x1", "L١"])
POLY = _strings("t^0123456789+-() ", [
    "t", "t^2", "2t^-3", "3t^(-1)", "+", "-", "3", "t^", "^", "(", ")",
    "t^99999"], "")
MOVE = _strings("BPMRCabhud-0123456789 ", [
    "B", "P", "PM", "R1a", "R1b-", "R2u", "R2d-", "R3", "C", "Ch", "0",
    "1", "12", "-1", "x", "²"])
MPOLY = _strings("xe12^*+-.0123456789 ()", [
    "x1", "e1", "x2", "e2", "*", "^", "^-1", "2", "+", "-", "0.5", "1e3",
    "x1^2", "e1^3", "nan", "inf"], "")
TRACE = _lines("LXRBPMCha-0123456789 #", [
    "", "L1 R1", "L1 L2 R1 R2", "L1 X1 R1", "B 0 1", "P 1 1", "PM 1",
    "R1a 1 1", "R2u- 0", "C 1", "Ch 0 0", "R3 2", "# a comment",
    "L1 R1 # the unknot"])
GF_FILE = _lines("nNRcortail=xe12^*+-.0123456789 #", [
    "n=1", "N=1", "n=2", "N=2", "n=3", "N=0", "R=3", "R=x", "R=nan",
    "core=3*e1 - e1^3", "core=x1^2*e1", "core=e2", "tail=-30*e1",
    "tail=x1", "tail=e1^2", "tail=0", "# a family", "bad"])

CASES = {
    "parse_front": (parse_front, FRONT),
    "parse_poly": (parse_poly, POLY),
    "parse_move": (parse_move, MOVE),
    "parse_trace": (parse_trace, TRACE),
    "parse_gf_file": (parse_gf_file, GF_FILE),
    "parse_mpoly": (lambda text: parse_mpoly(text, ["x1", "e1"]), MPOLY),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_only_domain_errors_escape(name):
    parse, strings = CASES[name]

    @settings(max_examples=200, deadline=None)
    @given(strings)
    def check(text):
        try:
            parse(text)
        except DomainError:
            pass

    check()
