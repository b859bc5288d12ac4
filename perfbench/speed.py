"""Timings at a fixed reference speed of the host.

On a shared host the CPU a process gets runs faster or slower by tens of
percent for seconds to minutes at a time (other tenants, clock changes), and
the time of the same query moves with it.  A measured run therefore also
times a fixed pure-Python kernel between queries, every GAP_S of query time,
and scales each query's latency by REFERENCE_S / (the median kernel time
around it): a query that took 2 ms while the kernel took twice REFERENCE_S
counts as 1 ms.  The kernel never calls the library, so a change to the
library moves the scaled timings as it moves the raw ones, while a slow
stretch of the host moves both the queries and the kernel and cancels out.
"""

from __future__ import annotations

import time
from collections import deque
from statistics import median

REFERENCE_S = 0.0002  # about the kernel's median time on a 2-vCPU x86-64 VM (CPython 3)
GAP_S = 0.005  # query time between two kernel runs
HALF_WINDOW = 5  # kernel runs on each side of a block of queries that set its speed


def kernel() -> int:
    """Interpreter work of the kinds the queries do: small sets and
    frozensets of residues, set algebra, dict stores, a sort and a modular
    power.  (A kernel of integer arithmetic alone followed the host's speed
    for these queries less closely.)"""
    acc = 0
    for _ in range(3):
        for m in (12, 18, 24, 30, 36, 20, 28, 15):
            s = frozenset(range(0, m * 6, 3))
            t = {x % m for x in s}
            acc += len(t & set(range(0, m, 2)))
            acc += sum(sorted(t)[:3])
            d = {k: k * k % 31 for k in t}
            acc += max(d.values())
            acc += pow(3, m, 1000003)
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Scaler:
    """Takes raw latencies, returns them scaled to the reference speed.

    Latencies are grouped into blocks of about GAP_S of query time, with one
    kernel run after each block.  A block is held back until HALF_WINDOW
    more kernel runs have followed it, then released to sink(key, scaled
    latency) with the median of the kernel runs on both sides of it, so
    memory stays bounded however long the run.  `kernel_s` keeps every kernel
    time, for the run's report.
    """

    def __init__(self, sink, gap_s: float = GAP_S, half_window: int = HALF_WINDOW, timer=time_kernel):
        self.sink = sink
        self.gap_s = gap_s
        self.half_window = half_window
        self.timer = timer
        self.window = deque(maxlen=2 * half_window + 1)
        self.blocks = deque()
        self.block = []
        self.since = 0.0
        self.kernel_s = []

    def add(self, key, latency: float):
        self.block.append((key, latency))
        self.since += latency
        if self.since >= self.gap_s:
            self.tick()

    def tick(self):
        t = self.timer()
        self.kernel_s.append(t)
        self.window.append(t)
        self.blocks.append(self.block)
        self.block, self.since = [], 0.0
        if len(self.blocks) > self.half_window:
            self.release(self.blocks.popleft())

    def flush(self):
        """Release every latency still held; call once the run has ended."""
        if self.block:
            self.tick()
        while self.blocks:
            self.release(self.blocks.popleft())

    def release(self, block):
        scale = REFERENCE_S / median(self.window)
        for key, latency in block:
            self.sink(key, latency * scale)
