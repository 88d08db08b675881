"""Front diagrams, cobordism traces, and generating family numerics.

`import legcob` imports no submodule.  Each public name resolves on use
(PEP 562): it is looked up in its module on every access rather than
kept here, so `from legcob import X` loads only X's module and what
that imports (numpy only for the generating-family names), and a
replaced module function is what the package hands out.
"""

import importlib

# public name -> the submodule that defines it, written module by module
_MODULE_OF = {name: module for module, names in {
    "errors": ["DomainError"],
    "laurent": ["LaurentPoly", "parse_poly", "decompose", "splitting_box",
                "is_connected_form", "tb_from_polynomial"],
    "exactseq": ["les_solve", "zero_surgery_update", "connect_sum",
                 "filling_polynomial"],
    "front": ["FrontDiagram", "parse_front", "classical_invariants"],
    "rulings": ["enumerate_rulings", "ruling_polynomial"],
    "moves": ["CobordismTrace", "apply_move", "parse_trace", "format_trace",
              "trace_summary"],
    "braids": ["BraidWord", "positive_braid_closure", "closure_report"],
    "whitehead": ["whitehead_double"],
    "geography": ["Block", "RealizationPlan", "realize",
                  "classical_fillable"],
    "gfnum": ["GeneratingFamily", "CompositeFamily", "fiber_critical_set",
              "reeb_chords", "spin", "immersed_filling_family",
              "embeddedness_check", "unknot_family", "stacked_pair_family",
              "parse_gf_file", "format_gf_file"],
}.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
