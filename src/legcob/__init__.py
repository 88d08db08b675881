"""Front diagrams, cobordism traces, and generating family numerics."""

from .errors import DomainError
from .laurent import (LaurentPoly, parse_poly, decompose, splitting_box,
                      is_connected_form, tb_from_polynomial)
from .exactseq import (les_ranks, les_solve, zero_surgery_update,
                       connect_sum, filling_polynomial,
                       cobordism_les_constrain)
from .front import FrontDiagram, parse_front, classical_invariants
from .rulings import enumerate_rulings, ruling_polynomial
from .moves import (CobordismTrace, apply_move, parse_trace, format_trace,
                    trace_summary)
from .braids import BraidWord, positive_braid_closure, closure_report
from .whitehead import whitehead_double
from .geography import Block, RealizationPlan, realize, classical_fillable

# The generating-family names load numpy, so they resolve on first use
# (PEP 562), looked up in legcob.gfnum on every access rather than kept
# here: the front, exact and geography modules import without numpy.
_GF_NAMES = frozenset({
    "GeneratingFamily", "CompositeFamily", "fiber_critical_set",
    "reeb_chords", "spin", "immersed_filling_family", "embeddedness_check",
    "unknot_family", "stacked_pair_family", "parse_gf_file",
    "format_gf_file"})


def __getattr__(name):
    if name in _GF_NAMES:
        from . import gfnum
        return getattr(gfnum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _GF_NAMES)
