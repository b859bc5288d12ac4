"""Count the bytecode instructions that one benchmark cycle executes in each library module.

    python3 bench/opcount.py

A count of executed instructions does not move with the host's speed or load, so it
compares two trees where a timing of one cycle would not. For each workload
(small_mixed, lcm_algebra and big_numbers; cli_cold runs its queries in child
processes, which a trace of this one does not see) it starts a fresh
interpreter with PYTHONHASHSEED=0, whatever the caller's, so set order and hence
the instructions taken do not depend on it. That interpreter builds the queries at
seed 1 with perfbench's own generators, runs the warm-up as perfbench/worker.py
does, and then runs one cycle of the queries, answers unchecked, under
sys.settrace with f_trace_opcodes. Each instruction executed in a module of
src/congruence_lattice counts for that module, its layer.

It prints one JSON object, {workload: {layer: count}}. Standard library only; it
imports perfbench's inputs, tracing and workloads modules and changes nothing in them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "congruence_lattice"
WORKLOADS = ("small_mixed", "lcm_algebra", "big_numbers")
SEED = 1


def count_one(name: str) -> dict:
    """{layer: instructions} for one cycle of `name` after its warm-up, in this interpreter."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import inputs
    import tracing
    import workloads

    queries, warmup = inputs.WORKLOADS[name].generate(random.Random(f"{name}:{SEED}"), random.Random(f"{name}:shape"))
    api = tracing.plain_api(workloads.library_table())
    for q in warmup:
        try:
            workloads.KINDS[q.kind][0](api, q.args)
        except Exception:  # known-defect inputs raise, as in the worker's warm-up
            pass
    counts, tracers = Counter(), {}

    def tracer(layer):
        def local(frame, event, arg):
            if event == "opcode":
                counts[layer] += 1
            return local
        return local

    def call(frame, event, arg):  # a new frame, or a generator resumed: trace it only in the library
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = Path(filename)
            tracers[filename] = tracer(path.stem) if path.parent == PACKAGE else None
        if tracers[filename] is not None:
            frame.f_trace_opcodes = True
        return tracers[filename]

    sys.settrace(call)
    try:
        for q in queries:
            try:
                workloads.KINDS[q.kind][0](api, q.args)
            except Exception:  # a refusal is counted up to where it was raised
                pass
    finally:
        sys.settrace(None)
    return dict(sorted(counts.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--one", choices=WORKLOADS, help=argparse.SUPPRESS)  # the child's own workload
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(count_one(args.one)))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--one", name], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{name} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
        out[name] = json.loads(proc.stdout)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
