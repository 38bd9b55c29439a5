"""Shared pieces: locating the program, statistics and peak memory."""

from __future__ import annotations

import json
import marshal
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mismatch(Exception):
    """An output differs from its known answer."""


class Workload:
    """Defaults for the hooks run.py calls on a workload.

    A workload also defines name, tail_pct, setup() (a generator that
    yields between parts of the set-up, where the speed probe may run),
    steps(i) (op i as a list of calls), check(i, outs) (outs: what the
    calls returned), traced(i, tracer) and layer_metrics(summary).
    """

    def prepare(self, i: int) -> None:
        """Untimed work before op i."""

    def check_traced(self, i: int, out) -> None:
        """Check what traced(i, tracer) returned."""

    def step_metrics(self, step_times: dict[int, list[float]]) -> dict:
        """Extra metrics from the untraced ops' call times (reference
        speed, seconds)."""
        return {}


class ProgramMissing(Exception):
    """The checkout has no congame sources to benchmark."""


def import_program(root: str = ROOT):
    """Import congame from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "congame", "__init__.py")):
        raise ProgramMissing(f"no congame sources under {src}")
    sys.path.insert(0, src)
    import congame

    where = os.path.dirname(os.path.abspath(congame.__file__))
    if where != os.path.join(src, "congame"):
        raise ProgramMissing(f"congame was imported from {where}, not {src}")
    return congame


IMPORT_REPEATS = 9
REFERENCE_COMPILE_S = 4.5e-3  # _compile_probe when SpeedProbe takes REFERENCE_PROBE_S
_COMPILE_SRC = "\n".join(
    f"class C{i}:\n    def f(self, x, y={i}):\n        return [z * y for z in x if z % 3]\n"
    for i in range(20))


def _compile_probe() -> float:
    """Duration of compiling fixed source and unmarshalling its code."""
    t0 = time.perf_counter()
    for _ in range(3):
        marshal.loads(marshal.dumps(compile(_COMPILE_SRC, "<probe>", "exec")))
    return time.perf_counter() - t0


def timed_import() -> tuple[float, float]:
    """Median time a fresh interpreter takes to import congame, at reference
    speed and as wall time, over IMPORT_REPEATS interpreters.

    An import mostly unmarshals and compiles code, which SpeedProbe does
    not track well, so each import is scaled by a probe that does the same
    (``_compile_probe``).  The time of one import differs between processes
    by about 6% even so; the median of several is steady.
    """
    cmd = [sys.executable, os.path.abspath(__file__)]
    runs = [
        [float(x) for x in subprocess.run(cmd, capture_output=True, text=True, check=True,
                                          timeout=60).stdout.split()]
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


REFERENCE_PROBE_S = 2.0e-3
PROBE_EVERY_S = 0.05
_PROBE_EDGES = [((i * 7 + 3) % 61, (i * 13 + 5) % 61) for i in range(240)]


def _probe_work() -> int:
    """Fixed pure-Python work of the kind congame does (dicts, lists,
    bitmasks, sorting, frozensets, json) but none of its code."""
    succ: dict[int, list[int]] = {}
    for a, b in _PROBE_EDGES:
        succ.setdefault(a, []).append(b)
    total = 0
    for src in range(0, 61, 2):
        seen = 1 << src
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in succ.get(v, ()):
                    if not seen >> w & 1:
                        seen |= 1 << w
                        nxt.append(w)
            frontier = nxt
        total += bin(seen).count("1")
    names = sorted(f"s{v:03d}" for v in range(61))
    index = {n: i for i, n in enumerate(names)}
    both = frozenset(names[::2]) | frozenset(names[1::3])
    return total + len(both) + len(json.dumps(index))


class SpeedProbe:
    """How fast this machine runs right now.

    On a shared virtual machine the same code runs at speeds that differ by
    up to 1.8x, switching over seconds to minutes.  The probe times a fixed
    loop (``_probe_work``, which no change to congame can speed up) at least
    every PROBE_EVERY_S between ops.  A wall time measured between two
    probes is scaled by REFERENCE_PROBE_S over their mean duration: it is
    expressed at the speed at which the probe takes REFERENCE_PROBE_S.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.durs: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(3):
            _probe_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durs.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a wall time spent in [start, end] to reference speed,
        from the last probe before `start` and the first after `end`."""
        near = [self.durs[k] for k in (bisect_right(self.ends, start) - 1,
                                       bisect_left(self.ends, end))
                if 0 <= k < len(self.durs)]
        return REFERENCE_PROBE_S / statistics.fmean(near)


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' definition)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def slope(xs, ys) -> float:
    """Least-squares slope of log y on log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((x - mx) ** 2 for x in lx)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    # one import of congame, printed at reference speed and as wall time
    before = _compile_probe()
    t0 = time.perf_counter()
    import_program()
    t1 = time.perf_counter()
    after = _compile_probe()
    print((t1 - t0) * REFERENCE_COMPILE_S / statistics.fmean((before, after)), t1 - t0)
