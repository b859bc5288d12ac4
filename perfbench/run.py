"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Each workload runs in
fresh interpreter processes (perfbench/worker.py), one at a time:

  --trace 0  four set-up-only processes, one measured process, four more
             set-up-only processes; prints the end-to-end metrics of
             BENCHMARK.json: timings at the host's reference speed, each
             query's latency the median of its runs (see worker.run_cycles
             and speed.py); setup_s the median of the nine set-up times,
             each scaled to the reference speed too.
  --trace 1  one process alternating untraced and traced cycles; prints the
             per-layer metrics of BENCHMARK.json, including the tracing
             overhead.  Spans go to .perfbench_runs/.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  `correct` is false when any
answer fails its check or any query raises, except on the inputs listed as
known library defects, whose failures are still counted and listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 8  # set-up-only processes per --trace 0 run, besides the measured one
SETUP_KERNEL_RUNS = 200  # kernel runs (about 40 ms) that set the host's speed for one set-up time
TIME_LIMIT_S = 170


def child(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(t0), str(seconds)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failure_lines(workload: str, tally: dict) -> list:
    lines = []
    for kind, label, cause, known, count in tally["causes"]:
        tag = "known defect" if known else "UNEXPECTED"
        lines.append(f"  [{tag}] {workload} {label}: {cause} (x{count})")
    return lines


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    # set-up times taken close together move together with the host's
    # speed, so take them on both sides of the measured process, which
    # reports its own as well; each is scaled to the reference speed by the
    # kernel's time just before its process starts
    def launch(mode):
        kernel_s = statistics.median(speed.time_kernel() for _ in range(SETUP_KERNEL_RUNS))
        out = child(workload, seed, mode, seconds, deadline)
        return out, out["setup_s"] * speed.REFERENCE_S / kernel_s

    runs = [launch("setup") for _ in range(SETUP_RUNS // 2)]
    runs.append(launch("measure"))
    res = runs[-1][0]
    runs += [launch("setup") for _ in range(SETUP_RUNS // 2)]
    times = [out["setup_s"] for out, _ in runs]
    scaled = [t for _, t in runs]
    tally = res["tally"]
    n, cycles = res["queries"], res["cycles"]
    fail_ratio = tally["failed"] / tally["attempted"]
    metrics = {
        "throughput_qps": res["qps"],
        "latency_p50_ms": res["p50_ms"],
        "latency_tail_ms": res["tail_ms"],
        "ok_ratio": 1 - fail_ratio,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(scaled),
    }
    lines = [
        f"workload {workload} seed {seed}: {n} queries a cycle, {cycles} cycles, {res['busy_s']:.3f} s of query time",
        f"  timings at the reference speed: kernel median {res['kernel_ms']:.4f} ms, reference {speed.REFERENCE_S * 1e3:g} ms",
        f"  each query's latency is the median of its {cycles} runs; throughput is {n} over their sum",
        f"  latency_tail_ms is p{res['tail_pct']}, counted over the {n * cycles} runs",
        f"  fail_ratio {fail_ratio:.6f} ({tally['failed']} of {tally['attempted']} queries failed)",
        f"  set-up times: {', '.join(f'{t:.4f}' for t in times)} s (interpreter start {res['startup_s']:.4f} s);",
        f"  at the reference speed: {', '.join(f'{t:.4f}' for t in scaled)} s; setup_s is their median",
    ]
    return metrics, tally, lines + failure_lines(workload, tally)


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    traced = child(workload, seed, "trace", seconds, deadline)
    tally = traced["tally"]
    lines = [
        f"workload {workload} seed {seed}: {traced['cycles']} cycles of {traced['queries']} queries, untraced and traced in turn",
        f"  spans of the traced cycles written to .perfbench_runs/spans-{workload}.json",
    ]
    return traced["layers"], tally, lines + failure_lines(workload, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "congruence_lattice" / "__init__.py").is_file():
        print(f"error: no src/congruence_lattice under {ROOT}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run = per_layer if args.trace else end_to_end
    try:
        metrics, tally, lines = run(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} do not match BENCHMARK.json", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in out.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": tally["unexpected"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
