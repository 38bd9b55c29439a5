"""In-memory span recorder for the traced run.

A span has a name, start, end, parent span and op id.  Spans are kept in
flat arrays while the run goes and are only summarized (and written out)
when it ends, so recording one costs a few list appends.

Layer functions are looked up by name (``"solvers.solve_buchi"``,
``"model.ActionDistribution.from_mapping"``) when first called.  A name
that no longer resolves is reported as absent instead of crashing the run.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter_ns

ABSENT = object()
OP = "op"
REPLAY = "bench.replay"


def resolve(name: str):
    """The object `congame.<name>` names, or None when it does not exist."""
    module, *attrs = name.split(".")
    try:
        obj = importlib.import_module(f"congame.{module}")
    except ImportError:
        return None
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


class _Span:
    __slots__ = ("tr", "name_id", "idx")

    def __init__(self, tr: "Tracer", name_id: int):
        self.tr = tr
        self.name_id = name_id

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.starts)
        tr.parents.append(tr.stack[-1] if tr.stack else -1)
        tr.name_ids.append(self.name_id)
        tr.op_ids.append(tr.op_id)
        tr.ends.append(0)
        tr.failed.append(0)
        tr.stack.append(self.idx)
        tr.starts.append(perf_counter_ns())
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tr
        tr.ends[self.idx] = perf_counter_ns()
        tr.stack.pop()
        if exc_type is not None:
            tr.failed[self.idx] = 1
        return False


class Tracer:
    """Records nested spans; one root span named ``op`` per operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._fns: dict[str, object] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_ids = array("l")
        self.op_ids = array("l")
        self.failed = bytearray()
        self.stack: list[int] = []
        self.op_id = -1

    def span(self, name: str) -> _Span:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return _Span(self, nid)

    def op(self, op_id: int) -> _Span:
        self.op_id = op_id
        return self.span(OP)

    def call(self, name: str, *args, **kwargs):
        """Call the layer function `name` inside a span of that name.

        Returns ABSENT when the program no longer has that function.
        """
        fn = self._fns.get(name)
        if fn is None:
            fn = self._fns[name] = resolve(name) or ABSENT
        if fn is ABSENT:
            return ABSENT
        with self.span(name):
            return fn(*args, **kwargs)

    # -- summaries ------------------------------------------------------------

    def summarize(self, scale=lambda op: 1.0) -> dict:
        """Per span name: per-call durations (ns), self time, calls, failures;
        plus the per-op traced and core times (core excludes replay spans).
        Every duration is multiplied by `scale(op)` of its op."""
        dur = [(e - s) * scale(op)
               for s, e, op in zip(self.starts, self.ends, self.op_ids)]
        child = [0] * len(dur)
        for idx, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[idx]
        by_name: dict[str, dict] = {}
        op_time: dict[int, int] = {}
        replay_time: dict[int, int] = {}
        for idx, nid in enumerate(self.name_ids):
            name = self.names[nid]
            d = dur[idx]
            if name == OP:
                op_time[self.op_ids[idx]] = d
                continue
            if name == REPLAY:
                op = self.op_ids[idx]
                replay_time[op] = replay_time.get(op, 0) + d
            s = by_name.setdefault(name, {"durs": [], "ops": [], "self": 0, "failures": 0})
            s["durs"].append(d)
            s["ops"].append(self.op_ids[idx])
            s["self"] += d - child[idx]
            s["failures"] += self.failed[idx]
        core = {op: t - replay_time.get(op, 0) for op, t in op_time.items()}
        return {"spans": by_name, "op_time": op_time, "core": core}

    def write_csv(self, path: str) -> None:
        """Write every span as one row of a gzipped CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,op,parent,start_ns,end_ns,failed\n")
            for idx, nid in enumerate(self.name_ids):
                fh.write(f"{idx},{self.names[nid]},{self.op_ids[idx]},"
                         f"{self.parents[idx]},{self.starts[idx]},{self.ends[idx]},"
                         f"{self.failed[idx]}\n")
