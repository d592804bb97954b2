"""Regenerate pins.json: digests of the sorted match lists of the fixed
synthesis searches, and the pool of planted targets the synthesis workload
draws from.

    python3 perfbench/pin.py

Run it from the repository root only to re-pin on purpose: the digests are
the reference that later versions of the program are checked against.

The pool: planted 2-CSWAP circuits over the default gate set, binned by
match count, since the match count moves the search time about 2x.  Within
each bin the members whose search time is closest to the bin's median are
kept, so that a run's mean over one member per bin varies little by seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from cavityswap import circuits, cli  # noqa: E402

PIN_SEED = 20061010
CANDIDATES = 48
# match-count bins: upper bounds of classes 0..3
MATCH_BINS = (12, 100, 600, 10**9)
PER_CLASS = 4


def cli_pin(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    text = out.getvalue()
    lines = checks.circuit_lines(text)
    return {"found": len(lines), "digest": checks.digest(lines)}


def main():
    pins = {"cli": {}}
    for argv in (workloads.FEEDFORWARD_ARGV,) + workloads.SYNTH_QUICK:
        pins["cli"][" ".join(argv)] = cli_pin(argv)
        print(" ".join(argv), pins["cli"][" ".join(argv)], flush=True)

    rng = np.random.default_rng(PIN_SEED)
    kinds = workloads.SYNTH_GATES
    candidates = []
    seen = set()
    while len(candidates) < CANDIDATES:
        layers = tuple(tuple(kinds[int(k)] for k in rng.integers(0, len(kinds), 3)) for _ in range(3))
        if layers in seen:
            continue
        seen.add(layers)
        target = workloads.planted_unitary(layers)
        start = time.perf_counter()
        result = circuits.synthesize(target, workloads.SYNTH_CSWAPS, kinds)
        elapsed = time.perf_counter() - start
        lines = checks.match_lines(result)
        cls = next(i for i, bound in enumerate(MATCH_BINS) if len(lines) <= bound)
        candidates.append({"layers": [list(l) for l in layers], "class": cls,
                           "matches": len(lines), "digest": checks.digest(lines), "pin_s": elapsed})
        print(candidates[-1], flush=True)

    pool = []
    for cls in range(len(MATCH_BINS)):
        members = [c for c in candidates if c["class"] == cls]
        if len(members) < PER_CLASS:
            raise SystemExit(f"class {cls} has only {len(members)} candidates")
        middle = float(np.median([c["pin_s"] for c in members]))
        members.sort(key=lambda c: abs(c["pin_s"] - middle))
        pool.extend(sorted(members[:PER_CLASS], key=lambda c: c["pin_s"]))
    for entry in pool:
        entry["pin_s"] = round(entry["pin_s"], 2)
    pins["planted_pool"] = pool
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
