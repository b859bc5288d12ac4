"""Record one benchmark point of this checkout as BENCH_<tag>.json at its root.

    python3 bench/record.py --tag T

For every workload in BENCHMARK.json it runs perfbench/run.py twice, at --trace 0
(the end-to-end metrics) and at --trace 1 (the per-layer metrics), at seed 1 and
BENCHMARK.json's run_seconds, then perfbench/ladder.py (the scaling ladders) and
bench/opcount.py (instructions executed per layer), each as a subprocess from the
root of the checkout.  It writes one JSON object:

  commit     `git rev-parse HEAD`, and the paths `git status --porcelain` lists
             (the point was taken on that commit plus those edits)
  python     the interpreter that ran everything, and the machine
  bytecode   whether PYTHONDONTWRITEBYTECODE was set: then every process compiles
             the package again, about half of a `conlat` cold start
  e2e        {workload: the last line of run.py --trace 0}
  per_layer  {workload: the last line of run.py --trace 1}
  ladders    ladder.py's output
  opcodes    opcount.py's output: {workload: {layer: instructions}} for one cycle

Standard library only; it imports neither perfbench nor the library.  It takes
about five minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run(*argv: str) -> str:
    """stdout of `python argv` run from the root; exits naming the command if it fails."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def git(*argv: str):
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True, help="names the file: BENCH_<tag>.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = git("status", "--porcelain")
    commit = {"head": git("rev-parse", "HEAD"), "edits": status.splitlines() if status else []}

    layers = {0: {}, 1: {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, results in layers.items():
            print(f"{workload} --trace {trace}", file=sys.stderr)
            out = run("perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                      "--seconds", str(spec["run_seconds"]), "--trace", str(trace))
            results[workload] = json.loads(out.strip().splitlines()[-1])
    print("ladders", file=sys.stderr)
    ladders = json.loads(run("perfbench/ladder.py"))
    print("opcodes", file=sys.stderr)
    opcodes = json.loads(run("bench/opcount.py"))

    point = {
        "commit": commit,
        "python": {"version": platform.python_version(), "implementation": platform.python_implementation(),
                   "machine": platform.machine(), "cpus": os.cpu_count()},
        "bytecode": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                     "written": not os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "e2e": layers[0],
        "per_layer": layers[1],
        "ladders": ladders,
        "opcodes": opcodes,
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
