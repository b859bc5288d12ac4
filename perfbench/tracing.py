"""Span recorder for the traced run.

Spans live in memory as parallel lists (name, parent, start, end, failed)
and are written out once, when the run ends.  A query span is the parent of
the spans around the calls it makes into the library; spans inside the
library are not recorded.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


class Recorder:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.failed = []
        self.current = -1
        self.counts = Counter()
        self.maxima = Counter()
        self.samples = defaultdict(list)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.current)
        self.failed.append(False)
        self.ends.append(0.0)
        self.current = sid
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int, failed: bool = False):
        self.ends[sid] = perf_counter()
        self.failed[sid] = failed
        self.current = self.parents[sid]

    def self_times(self) -> list:
        children = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append((self.starts[sid], self.ends[sid]))
        return [
            self_time(self.starts[sid], self.ends[sid], children.get(sid, ()))
            for sid in range(len(self.names))
        ]

    def write(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [n, p, round((s - t0) * 1e9), round((e - t0) * 1e9), f]
            for n, p, s, e, f in zip(self.names, self.parents, self.starts, self.ends, self.failed)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "failed"], "spans": spans}, fh)


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus its children's.  Spans come from one thread
    through an open/close stack, so children are sequential and nested."""
    return (end - start) - sum(e - s for s, e in child_intervals)


def traced_api(table: dict, rec: Recorder, observe) -> SimpleNamespace:
    """Wrap every function of a {layer: {name: fn}} table in a call span.

    `observe(label, result)` runs after each call that returns, inside the
    span's parent, to record layer counts at the call boundary.
    """

    def wrap(label, fn):
        def call(*args):
            sid = rec.open(label)
            try:
                out = fn(*args)
            except BaseException:
                rec.close(sid, failed=True)
                raise
            rec.close(sid)
            observe(label, out)
            return out

        return call

    return SimpleNamespace(
        **{
            layer: SimpleNamespace(**{name: wrap(f"{layer}.{name}", fn) for name, fn in fns.items()})
            for layer, fns in table.items()
        }
    )


def plain_api(table: dict) -> SimpleNamespace:
    """The same shape as traced_api, with the library functions themselves."""
    return SimpleNamespace(**{layer: SimpleNamespace(**fns) for layer, fns in table.items()})


def layer_metrics(rec: Recorder, layers, check_failures: Counter) -> dict:
    """{layer: {calls, busy_s, fail}} from the call spans; `check_failures`
    adds answers that failed their check, by the layer that gave them."""
    out = {layer: {"calls": 0, "busy_s": 0.0, "fail": check_failures.get(layer, 0)} for layer in layers}
    query = {"calls": 0, "self_s": 0.0}
    for name, parent, own, failed in zip(rec.names, rec.parents, rec.self_times(), rec.failed):
        if parent < 0:
            query["calls"] += 1
            query["self_s"] += own
            continue
        m = out[name.split(".", 1)[0]]
        m["calls"] += 1
        m["busy_s"] += own
        m["fail"] += failed
    out["query"] = query
    return out


def parse_importtime(stderr: str, package: str) -> float:
    """Milliseconds of `-X importtime` output spent importing `package` and
    every top-level import after it (the imports the program itself makes,
    as opposed to interpreter start-up)."""
    total_us = 0
    seen = False
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        if len(name) - len(name.lstrip(" ")) > 1:
            continue  # nested import, already inside its parent's cumulative time
        name = name.strip()
        seen = seen or name == package or name.startswith(package + ".")
        if seen:
            total_us += int(fields[1])
    return total_us / 1000
