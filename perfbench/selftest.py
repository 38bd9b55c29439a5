#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that:

* a tiny run of each workload, untraced and traced, passes every output
  check and prints every metric BENCHMARK.json names;
* a tampered ladder output (one state dropped from verify's answer) makes
  fail_frac non-zero;
* solvers.rank_chain_len is identical across two traced runs of one seed;
* reference.json is self-consistent.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

from measure import ROOT, import_program

TINY_SECONDS = 1.0
TINY_LADDER = {"n_range": (4, 9), "warmup": (6, "buchi")}


def _check(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    import_program()
    import heatmap
    import run

    failures: list[str] = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    _check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py runs", failures)
    _check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py", failures)
    _check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
           "BENCHMARK.json per_layer matches run.py", failures)

    for name in run.WORKLOADS:
        kw = TINY_LADDER if name == "ladder" else {}
        for trace in (False, True):
            res = run.execute(name, 7, TINY_SECONDS, trace, **kw)
            want = run.per_layer_names() if trace else list(run.END_TO_END)
            label = f"{name} {'traced' if trace else 'untraced'} tiny run"
            _check(res["correct"] and res["failed"] == 0, f"{label} is correct", failures)
            _check([(k, v["unit"]) for k, v in res["metrics"].items()] == want,
                   f"{label} prints every metric", failures)
            if not trace:
                _check(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{label} has no zero end-to-end metric", failures)
            else:
                _check("absent spans: none" in res["notes"],
                       f"{label} finds every layer function", failures)

    # tampering with one output must count as a failed op
    def tampered(w):
        honest = w.main

        def main(argv):
            code = honest(argv)
            if argv[0] == "verify":
                path = argv[argv.index("-o") + 1]
                with open(path, encoding="utf-8") as fh:
                    out = json.load(fh)
                out["verified"] = out["verified"][1:]
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(out, fh)
            return code

        w.main = main

    res = run.execute("ladder", 7, TINY_SECONDS, False, after_setup=tampered, **TINY_LADDER)
    fail_frac = res["failed"] / res["attempted"]
    _check(fail_frac > 0 and not res["correct"],
           f"tampered verify output gives fail_frac {fail_frac:.2f} > 0", failures)

    lens = [
        run.execute("ladder", 11, TINY_SECONDS, True, **TINY_LADDER)
        ["metrics"]["solvers.rank_chain_len"]["value"]
        for _ in range(2)
    ]
    _check(lens[0] == lens[1] > 0, f"rank_chain_len repeats exactly ({lens})", failures)

    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    flags = [heatmap.decode_flags(c) for c in ref["heatmap"]["flags"]]
    _check(heatmap.csv_digest(flags) == ref["heatmap"]["csv_sha256"],
           "reference heatmap flags add up to the recorded CSV digest", failures)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
