#!/usr/bin/env python3
"""Record the reference answers the heatmap and adapt workloads check against.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

It writes perfbench/reference.json.  Regenerate it only at a commit whose
outputs are known good; every later run of the benchmark compares against
it.  The file holds, per heatmap game seed, the twelve conflict flags of
``run_heatmap(games=1, seed=s)`` (three hex digits), the digest of the CSV
``run_heatmap(games=N, seed=0)`` prints, and per adaptation episode seed the
adaptive and fixed reward totals plus a digest of both plays.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from measure import ROOT, import_program

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
GAMES = 4000
PAIRS = 1000
CROSS_CHECK_GAMES = 100


def main() -> int:
    import_program()
    from congame import algebra

    import adapt
    import heatmap

    flags = [heatmap.play_game(s) for s in range(GAMES)]
    # one-game runs must add up to the batch run the CLI prints
    batch = algebra.heatmap_csv(algebra.run_heatmap(games=CROSS_CHECK_GAMES, seed=0))
    if heatmap.aggregate_csv(flags[:CROSS_CHECK_GAMES]) != batch:
        print("one-game heatmap runs do not add up to the batch run", file=sys.stderr)
        return 1

    inputs = adapt.Inputs(ROOT)
    pairs = []
    for seed in range(PAIRS):
        run, log = inputs.pair(seed)
        want = inputs.summary(run, log)
        inputs.check_pair(seed, run, log, want)
        pairs.append(want)

    ref = {
        "heatmap": {
            "flags": [heatmap.encode_flags(f) for f in flags],
            "csv_sha256": heatmap.csv_digest(flags),
        },
        "adapt": {
            "pairs": pairs,
            "totals_sha256": hashlib.sha256(
                json.dumps([p[:2] for p in pairs]).encode()).hexdigest(),
        },
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {OUT}: {GAMES} games, {PAIRS} episode pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
