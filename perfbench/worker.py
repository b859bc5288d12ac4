"""Run one workload in a fresh interpreter and print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE T0 SECONDS

T0 is the caller's time.monotonic() just before it started this process, so
`setup_s` covers interpreter start, imports, input generation and warm-up.
MODE is one of
  setup      set up, report setup_s and exit;
  measure    closed loop over whole cycles of the workload's queries until
             SECONDS have passed and the workload's minimum cycle count is
             reached, or MAX_CYCLES are done; each latency is scaled to the
             host's reference speed (speed.py), and each query's latency is
             the median of its runs;
  trace      the workload's fixed number of trace cycles, each run twice in
             turn: untraced, then with a span around every query and every
             library call; the per-layer metrics come from the traced cycles.
"""

import sys
import time

T_START = time.monotonic()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MISSING = object()
MAX_CYCLES = 256  # cycles a run has room for; its scaled latencies are allocated up front


def import_library():
    """Import congruence_lattice from this checkout's src/, never elsewhere."""
    src = workloads.SRC.resolve()
    sys.path.insert(0, str(src))
    import congruence_lattice

    if not Path(congruence_lattice.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"congruence_lattice imported from {congruence_lattice.__file__}, not {src}")


def one_line(text: str) -> str:
    text = " ".join(str(text).split())
    return text if len(text) <= 160 else text[:157] + "..."


def run_cycles(queries, modes, workload, done):
    """Closed loop, one client: each query starts when the previous one and
    its (untimed) check have finished.  The loop runs whole cycles, each
    every query in turn, until done(cycles, elapsed seconds) or MAX_CYCLES;
    cycle c runs with modes[c % len(modes)], an (api, recorder or None)
    pair.  Returns peak RSS in MB as the loop ends, the latencies at the
    reference speed (speed.py; run c of query i at c * len(queries) + i),
    the raw query time of each cycle, the kernel times, the tally, and check
    failures by layer in recorded cycles."""
    n = len(queries)
    # float32 keeps 7 digits; allocated up front, so peak RSS does not grow with the run
    scaled = array("f", bytes(4 * n * MAX_CYCLES))
    scaler = speed.Scaler(scaled.__setitem__)
    per_cycle = []
    tally = stats.Tally()
    check_failures = Counter()
    memo = {}
    perf_counter = time.perf_counter
    start = perf_counter()
    while len(per_cycle) < MAX_CYCLES and not done(len(per_cycle), perf_counter() - start):
        api, rec = modes[len(per_cycle) % len(modes)]
        offset = len(per_cycle) * n
        busy = 0.0
        for i, q in enumerate(queries):
            run, check = workloads.KINDS[q.kind]
            sid = rec.open(q.kind) if rec is not None else -1
            t0 = perf_counter()
            try:
                answer = run(api, q.args)
                error = None
            except Exception as exc:  # a refusal or crash is a failed query, reported below
                error = exc
            t1 = perf_counter()
            if rec is not None:
                rec.close(sid, failed=error is not None)
            busy += t1 - t0
            if error is not None:
                name = type(error).__name__
                tally.record(q.kind, q.label, one_line(f"{name}: {error}"), q.defect == ("raises", name))
            else:
                if workload.memo_checks and memo.get(i, MISSING) == answer:
                    verdict = None  # same answer as the one already certified for this input
                else:
                    verdict = check(q.args, q.cert, answer)
                    if verdict is None and workload.memo_checks:
                        memo[i] = answer
                if verdict is None:
                    tally.record(q.kind, q.label, None, False)
                else:
                    if rec is not None:
                        check_failures[verdict[0]] += 1
                    tally.record(q.kind, q.label, one_line(f"wrong answer: {verdict[1]}"), q.defect == ("wrong", None))
                del answer
            scaler.add(offset + i, t1 - t0)  # may time the kernel: after the check, before the next query
        per_cycle.append(busy)
    scaler.flush()
    return peak_rss_mb(), scaled[: len(per_cycle) * n], per_cycle, scaler.kernel_s, tally, check_failures


def peak_rss_mb() -> float:
    # a workload that starts processes (cli_cold) is measured by its largest
    # child; the others by the worker itself, which then has no children
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (children or own) / 1024


def main(argv) -> int:
    name, seed, mode, t0, seconds = argv[1], int(argv[2]), argv[3], float(argv[4]), float(argv[5])
    workload = inputs.WORKLOADS[name]
    import_library()
    queries, warmup = workload.generate(random.Random(f"{name}:{seed}"), random.Random(f"{name}:shape"))
    plain = tracing.plain_api(workloads.library_table())
    for q in warmup:
        try:
            workloads.KINDS[q.kind][0](plain, q.args)
        except Exception:  # known-defect inputs raise; the measured run reports them
            pass
    setup_s = time.monotonic() - t0
    out = {"setup_s": setup_s, "startup_s": T_START - t0}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    if mode == "measure":
        modes = [(plain, None)]

        def done(cycles, elapsed):
            return elapsed >= seconds and cycles >= workload.min_cycles

    else:  # trace: untraced and traced cycles alternate, so drift hits both alike
        rec = tracing.Recorder()
        table = workloads.library_table(importtime_sink=rec.samples["cli.import_ms"])
        modes = [(plain, None), (tracing.traced_api(table, rec, workloads.observer(rec)), rec)]

        def done(cycles, elapsed):
            return cycles >= 2 * workload.trace_cycles

    rss, scaled, per_cycle, kernel_s, tally, check_failures = run_cycles(queries, modes, workload, done)
    out.update(
        queries=len(queries),
        cycles=len(per_cycle),
        busy_s=sum(per_cycle),
        kernel_ms=statistics.median(kernel_s) * 1e3,
        tally=tally.to_json(),
        peak_rss_mb=rss,
    )
    if mode == "measure":
        n, cycles = len(queries), len(per_cycle)
        # each query's latency is the median of its runs; a percentile counts
        # every run at its query's latency, and the tail percentile is fixed
        # by the workload's minimum run count
        latency = sorted(statistics.median(scaled[i::n]) for i in range(n))
        tail = stats.tail_percentile(n * workload.min_cycles)
        out.update(
            qps=n / sum(latency),
            p50_ms=stats.repeated_percentile(latency, cycles, 50) * 1e3,
            tail_pct=tail,
            tail_ms=stats.repeated_percentile(latency, cycles, tail) * 1e3,
        )
    if mode == "trace":
        layers = tracing.layer_metrics(rec, workloads.LAYERS, check_failures)
        metrics = {}
        for layer in workloads.LAYERS:
            for key in ("calls", "busy_s", "fail"):
                metrics[f"{layer}.{key}"] = layers[layer][key]
        metrics["query.self_s"] = layers["query"]["self_s"]
        metrics["periodic_sets.residues_out"] = rec.counts["periodic_sets.residues_out"]
        metrics["antichain.max_bits"] = rec.maxima["antichain.max_bits"]
        imports = rec.samples["cli.import_ms"]
        metrics["cli.import_ms"] = statistics.median(imports) if imports else 0.0
        ratios = [t / p for p, t in zip(per_cycle[0::2], per_cycle[1::2])]
        metrics["trace.overhead_pct"] = 100 * (statistics.median(ratios) - 1)
        out["layers"] = metrics
        runs = workloads.ROOT / ".perfbench_runs"
        runs.mkdir(exist_ok=True)
        rec.write(runs / f"spans-{name}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
