"""Record the reference answers the checks compare against.

    python3 perfbench/record_refs.py

Runs the `leg` commands whose answers cannot be derived independently
(chord enumerations, the filling check, ruling counts) and writes them
to perfbench/refs.json.  Chord answers are recorded at the default grid
step; the script fails if any other step a workload uses gives a
different answer, since the checks compare every step against the one
record.  Run it only when a change is meant to alter these answers.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def leg(*argv):
    from legcob.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([*argv, "--json"])
    if rc != 0:
        raise SystemExit(f"leg {' '.join(argv)} exited {rc}")
    return json.loads(buf.getvalue())


def chord_record(doc):
    return {"count": doc["count"], "gamma": doc["gamma"],
            "values": [c["value"] for c in doc["chords"]],
            "indices": [c["index"] for c in doc["chords"]]}


def main():
    refs = {"gf_chords": {}, "gf_check": {}, "gf_front": {}, "rulings": {}}
    for fam in wl.GF_FAMILIES:
        refs["gf_chords"][fam] = chord_record(leg("gf-chords", "--family", fam))
    ctx = checks.Context(refs, HERE)
    # Every step a seed can draw must give the default step's chords;
    # check the ends of each unknot step's range and its middle.
    unknot_steps = [round(step * f, 5) for step in wl.UNKNOT_STEPS
                    for f in (1 - wl.STEP_JITTER, 1, 1 + wl.STEP_JITTER)]
    for fam, steps in (("unknot", unknot_steps),
                       ("stacked-pair", wl.STACKED_STEPS)):
        for step in steps:
            doc = leg("gf-chords", "--family", fam, "--step", str(step))
            bad = checks.check_gf_chords(
                {"check": {"family": fam}}, doc, ctx)
            if bad:
                raise SystemExit(f"{fam} at step {step}: {bad}")
    doc = leg("gf-check", "--family", "unknot", "--embedded")
    refs["gf_check"]["unknot"] = {
        "conditions": doc["filling"]["conditions"],
        "embedded_ok": doc["embeddedness"]["ok"],
        "h": doc["embeddedness"]["h"]}
    doc = leg("gf-front", "--family", "fish")
    refs["gf_front"]["fish"] = {"count": doc["count"],
                                "regularity_margin": doc["regularity_margin"]}
    for word, graded in wl.ruling_fronts():
        doc = leg("rulings", "--front", word, *(["--graded"] if graded else []))
        refs["rulings"][f"{word}|{graded}"] = {
            "count": doc["count"], "polynomial": doc["polynomial"]}
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
