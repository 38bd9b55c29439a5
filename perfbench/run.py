#!/usr/bin/env python3
"""Run one benchmark workload on congame and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 35 --trace 0

The load is one client in a closed loop: the next op starts when the
previous one has finished, in this one process.  --seed makes the inputs;
the program only sees the generated inputs.  Every op's output is checked
against a known answer; an op that raises or fails its check counts as
failed and the run goes on.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half re-driving the same ops through the layer
functions with spans around each call, and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from statistics import median

from measure import (
    REFERENCE_PROBE_S,
    ROOT,
    ProgramMissing,
    SpeedProbe,
    import_program,
    peak_rss_mb,
    percentile,
    timed_import,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
SHOWN_FAILURES = 3

WORKLOADS = ("ladder", "heatmap", "adapt")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

# Spans the traced run records, by <module>.<function> of src/congame.
SPANS = (
    "cli.main",
    "model.load_game",
    "model.dump_json",
    "solvers.solve_safety",
    "solvers.solve_buchi",
    "solvers.solve_cobuchi",
    "operators.pre1_mask",
    "operators.apre1_mask",
    "operators.afpre1_mask",
    "templates.template_for",
    "strategies.extract_strategy",
    "strategies.check_compliance",
    "strategies.verify_memoryless",
    "corpus.random_game",
    "algebra.compose",
    "algebra.buchi_conjunction",
    "adaptation.run_adaptive",
    "adaptation.OpponentModel.estimate",
    "adaptation.adapt_step",
    "adaptation.update_model",
    "model.ActionDistribution.from_mapping",
    "strategies.simulate",
    "strategies.ScheduleStrategy.distribution",
)
SPAN_FIELDS = (("ms", "ms"), ("self_share", "frac"), ("calls", "calls/op"),
               ("failures", "count"))

COUNTERS = (
    ("solvers.rank_chain_len", "count"),
    ("solvers.solve_buchi.exponent", "1"),
    ("solvers.solve_cobuchi.exponent", "1"),
    ("strategies.verify_memoryless.exponent", "1"),
    ("templates.synthesis_only.ms", "ms"),
    ("algebra.buchi_conjunction.used_frac", "frac"),
    ("algebra.product_states", "states/op"),
    ("adaptation.violations", "count"),
    ("adapt_step_us", "us"),
    ("sim_step_us", "us"),
    ("trace.op_p50_ms", "ms"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


def per_layer_names() -> list[tuple[str, str]]:
    out = [(f"{s}.{f}", unit) for s in SPANS for f, unit in SPAN_FIELDS]
    return out + list(COUNTERS)


def build(name: str, seed: int, workdir: str, **kw):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    if name == "ladder":
        from ladder import Ladder as cls
    elif name == "heatmap":
        from heatmap import Heatmap as cls
    else:
        from adapt import Adapt as cls
    return cls(seed, workdir, reference, **kw)


def timed_setup(w, probe: SpeedProbe, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median of repeated set-ups (which include one warm-up op each), at
    reference speed and as wall time.

    Each part of a set-up (up to a yield of w.setup()) is timed like a call
    of an op: the speed probe runs between parts, never inside one.
    """
    end = object()
    scaled, wall = [], []
    for _ in range(repeats):
        parts = w.setup()
        bounds = []
        done = False
        while not done:
            probe.maybe_sample()
            t0 = time.perf_counter()
            done = next(parts, end) is end
            bounds.append((t0, time.perf_counter()))
        probe.sample()
        wall.append(sum(t1 - t0 for t0, t1 in bounds))
        scaled.append(sum((t1 - t0) * probe.scale(t0, t1) for t0, t1 in bounds))
    return median(scaled), median(wall)


class Phase:
    """Latencies and failures of one closed-loop phase."""

    def __init__(self):
        self.steps: dict[int, list[tuple[float, float]]] = {}
        self.factors: dict[int, list[float]] = {}
        self.failed = 0

    def note_failure(self, i: int) -> None:
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            print(f"op {i} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def wall(self) -> list[float]:
        return [sum(t1 - t0 for t0, t1 in b) for b in self.steps.values()]

    def step_times(self) -> dict[int, list[float]]:
        """Per op, each call's time at reference speed."""
        return {i: [(t1 - t0) * f for (t0, t1), f in zip(b, self.factors[i])]
                for i, b in self.steps.items()}

    def scaled(self) -> list[float]:
        return [sum(ts) for ts in self.step_times().values()]


def run_phase(w, seconds: float, steps, check, probe: SpeedProbe) -> Phase:
    """Run ops, one after the other, until `seconds` have passed.

    `steps(i)` gives op i as a list of calls; the op's latency is the sum of
    their times.  The speed probe runs between calls, never inside one, and
    each call's time is scaled by the probes around it.
    """
    ph = Phase()
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        w.prepare(i)
        bounds, outs = [], []
        try:
            for step in steps(i):
                probe.maybe_sample()
                t0 = time.perf_counter()
                try:
                    outs.append(step())
                finally:
                    bounds.append((t0, time.perf_counter()))
            check(i, outs)
        except Exception:
            ph.note_failure(i)
        ph.steps[i] = bounds
        i += 1
    probe.sample()
    ph.factors = {i: [probe.scale(*tb) for tb in b] for i, b in ph.steps.items()}
    return ph


def latency_metrics(lat: list[float], tail_pct: float) -> dict[str, float]:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": median(lat) * 1e3,
        "op_tail_ms": percentile(lat, tail_pct) * 1e3,
    }


def untraced(w, seconds: float, setup: tuple[float, float], probe: SpeedProbe) -> dict:
    ph = run_phase(w, seconds, w.steps, w.check, probe)
    lat, n = ph.scaled(), len(ph.steps)
    values = {
        "setup_s": setup[0],
        **latency_metrics(lat, w.tail_pct),
        "ok_frac": (n - ph.failed) / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = {"setup_s": setup[1], **latency_metrics(ph.wall(), w.tail_pct)}
    tail = percentile(lat, w.tail_pct)
    notes = [
        f"{w.name}: {n} ops, {ph.failed} failed, fail_frac={ph.failed / n}",
        f"op_tail_ms is p{w.tail_pct} with {sum(t > tail for t in lat)} of {n} samples "
        "beyond it",
        f"speed probe median {median(probe.durs) * 1e3:.3f} ms "
        f"(reference {REFERENCE_PROBE_S * 1e3:.3f} ms); wall-clock values: "
        + ", ".join(f"{k}={v:.6g}" for k, v in wall.items()),
    ]
    notes += [f"{k}={v}" for k, v in w.step_metrics(ph.step_times()).items()]
    return {
        "correct": ph.failed == 0,
        "attempted": n,
        "failed": ph.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END},
        "notes": notes,
    }


def traced(w, seconds: float, probe: SpeedProbe) -> dict:
    from spans import Tracer, resolve

    plain = run_phase(w, seconds / 2, w.steps, w.check, probe)
    tr = Tracer()

    def body(i):
        with tr.op(i):
            return w.traced(i, tr)

    ph = run_phase(w, seconds / 2, lambda i: [lambda: body(i)],
                   lambda i, outs: w.check_traced(i, outs[0]), probe)
    summary = tr.summarize(lambda op: ph.factors[op][0])
    op_total = sum(summary["op_time"].values()) or 1
    ops = max(len(summary["op_time"]), 1)
    values: dict[str, float] = {}
    absent = []
    for name in SPANS:
        if resolve(name) is None:
            absent.append(name)
        s = summary["spans"].get(name)
        if s:
            values[f"{name}.ms"] = median(s["durs"]) / 1e6
            values[f"{name}.self_share"] = s["self"] / op_total
            values[f"{name}.calls"] = len(s["durs"]) / ops
            values[f"{name}.failures"] = s["failures"]
    values.update(w.layer_metrics(summary))
    values.update(w.step_metrics(plain.step_times()))
    # overhead on the ops both halves ran, so both medians see the same inputs
    plain_lat = dict(zip(plain.steps, plain.scaled()))
    common = [i for i in summary["core"] if i in plain_lat] or [0]
    traced_p50 = median(summary["core"].get(i, 0) for i in common) / 1e6
    plain_p50 = median(plain_lat.get(i, 0) for i in common) * 1e3
    values["trace.op_p50_ms"] = traced_p50
    values["trace.untraced_op_p50_ms"] = plain_p50
    values["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in per_layer_names()}

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    spans_csv = os.path.join(out_dir, f"spans-{w.name}.csv.gz")
    tr.write_csv(spans_csv)
    n = len(plain.steps) + len(ph.steps)
    failed = plain.failed + ph.failed
    notes = [
        f"{w.name} traced: {len(ph.steps)} traced ops, {len(plain.steps)} untraced, "
        f"{failed} failed",
        f"tracing overhead on op_p50_ms: {traced_p50:.3f} ms traced vs "
        f"{plain_p50:.3f} ms untraced",
        f"absent spans: {', '.join(absent) if absent else 'none'}",
        f"spans (wall-clock ns) written to {os.path.relpath(spans_csv, ROOT)}",
    ]
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def execute(name: str, seed: int, seconds: float, trace: bool,
            imported: tuple[float, float] = (0.0, 0.0), after_setup=None, **kw) -> dict:
    """Build, set up and run one workload.

    `imported` is the import time (reference speed, wall) that set-up time
    includes; `after_setup(w)` may alter the workload before its timed phase
    (the self-test tampers with it).
    """
    probe = SpeedProbe()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        w = build(name, seed, workdir, **kw)
        scaled, wall = timed_setup(w, probe)
        setup = (imported[0] + scaled, imported[1] + wall)
        if after_setup is not None:
            after_setup(w)
        return traced(w, seconds, probe) if trace else untraced(w, seconds, setup, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_program()
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    imported = timed_import()

    result = execute(args.workload, args.seed, args.seconds, bool(args.trace), imported)
    for line in result.pop("notes"):
        print(line)
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
