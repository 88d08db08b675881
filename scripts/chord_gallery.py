"""Chord tables for every built-in generating family.

Runs the fiber-critical scan and the chord enumeration on each sample
family, prints value/index/degree tables with the duality audit already
applied, and leaves one SVG front per family next to the script when
--svg is passed.
"""

import os
import sys

from legcob.gfnum import FAMILIES, fiber_critical_set, reeb_chords
from legcob.render import render_points_svg

HERE = os.path.dirname(os.path.abspath(__file__))


def main(write_svg=False):
    for name, build in FAMILIES.items():
        fam = build()
        # a 2-d base (the saucer) has three grid axes: a coarser step
        step = 0.1 if fam.n == 2 else 0.05
        rows = fiber_critical_set(fam, step=step)
        chords, gamma, report = reeb_chords(fam, step=step)
        print(f"{name}: n={fam.n} N={fam.N} "
              f"front samples={len(rows)} chords={len(chords)} "
              f"gamma={gamma}")
        for c in chords:
            print(f"  value {c.value:>12.6f}  index {c.index}  "
                  f"degree {c.degree:>2}  margin "
                  f"{c.min_abs_hessian_eigenvalue:.3g}")
        for w in report["warnings"]:
            print(f"  note: {w}")
        if write_svg:
            path = os.path.join(HERE, f"{name}_front.svg")
            X, E = rows[:, :fam.n], rows[:, fam.n:]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_points_svg(X[:, 0], fam.value(X, E)))
            print(f"  wrote {os.path.relpath(path)}")
        print()


if __name__ == "__main__":
    main(write_svg="--svg" in sys.argv[1:])
