"""The built-in generating families by name, readable without numpy.

Each name maps to the name of its builder in `legcob.gfnum`, which
resolves the table into `gfnum.FAMILIES`; the CLI reads the names for
`--family` when it builds its parser, before any gf command has loaded
numpy.  A new family is one builder in gfnum plus one line here.
"""

FAMILY_BUILDERS = {
    "unknot": "unknot_family",
    "scaled-unknot": "scaled_unknot_family",
    "shifted-unknot": "shifted_unknot_family",
    "linear": "linear_family",
    "fish": "fish_family",
    "stacked-pair": "stacked_pair_family",
    "saucer": "saucer_family",
}
