"""Compare the benchmark of a base revision and of this working tree in alternating pairs.

    python3 bench/compare.py --base REV [--workload W ...] [--pairs N] [--seconds S]

The base is a `git archive` of REV and the change a copy of the working tree (the files git
tracks or would add), both placed in a new temporary directory, so neither side has a
bytecode cache that the other lacks. For each workload (default: every one in BENCHMARK.json)
and each pair k = 1..N (default 10) it runs `perfbench/run.py --workload W --seed k --seconds S
--trace 0` once in each tree, from that tree's root, the base first in odd pairs and the change
first in even ones; S defaults to BENCHMARK.json's run_seconds. Then it runs this tree's
`bench/opcount.py` in each tree.

For each end-to-end metric of BENCHMARK.json it reports the median and quartiles of each side,
the ratio of the medians (change / base), the pairs each side won (a tie counts for neither),
where the change's median lies against the base's interquartile range ("inside", "better" or
"worse"), and whether it is worse than the base's median by more than the metric's bound. It
also reports every run's `correct`, `attempted` and `failed`, and the instructions each layer
executed in one cycle of each tree, with their exact ratios.

Human-readable lines come first; the last line is one JSON object. Standard library only; it
imports neither perfbench nor the library.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*argv: str) -> bytes:
    """stdout of `git argv` run at the root; exits naming the command if it fails."""
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"git {' '.join(argv)} exited with code {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return proc.stdout


def unpack(rev: str, tree: Path) -> None:
    """The files of `rev` under tree, as `git archive` gives them."""
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=git("archive", "--format=tar", rev), check=True)


def copy_worktree(tree: Path) -> None:
    """The working tree's files under tree: those git tracks, as edited, and those it would add."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)


def run(tree: Path, *argv: str) -> str:
    """stdout of `python argv` run from the root of tree; exits naming the command if it fails."""
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} in {tree.name} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def judge(metric: dict, base: list, change: list) -> dict:
    """One metric's report from the base's and the change's values, pair by pair."""
    better = (lambda a, b: a > b) if metric["better"] == "higher" else (lambda a, b: a < b)
    b, c = summary(base), summary(change)
    if b["q1"] <= c["median"] <= b["q3"]:
        place = "inside"
    else:
        place = "better" if better(c["median"], b["median"]) else "worse"
    limit = b["median"] * (1 - metric["bound"] if metric["better"] == "higher" else 1 + metric["bound"])
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "base": b,
        "change": c,
        "ratio": c["median"] / b["median"] if b["median"] else None,
        "won": {"change": sum(map(better, change, base)), "base": sum(map(better, base, change))},
        "against_base_iqr": place,
        "past_bound": better(limit, c["median"]),
    }


def opcodes(base: dict, change: dict) -> dict:
    """{layer: {base, change, ratio}} of one workload's instruction counts, and their total."""
    layers = sorted(set(base) | set(change))
    out = {layer: {"base": base.get(layer, 0), "change": change.get(layer, 0)} for layer in layers}
    out["total"] = {"base": sum(base.values()), "change": sum(change.values())}
    for counts in out.values():
        counts["ratio"] = counts["change"] / counts["base"] if counts["base"] else None
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against, such as HEAD")
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload, at least 2")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="run.py's --seconds")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    workloads = args.workload or names
    report = {
        "base": {"rev": args.base, "commit": git("rev-parse", f"{args.base}^{{commit}}").decode().strip()},
        "change": {"head": git("rev-parse", "HEAD").decode().strip(),
                   "edits": git("status", "--porcelain").decode().splitlines()},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
        "opcodes": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as scratch:
        trees = {"base": Path(scratch) / "base", "change": Path(scratch) / "change"}
        unpack(args.base, trees["base"])
        copy_worktree(trees["change"])
        # both trees count with the change's script, which the base may lack
        shutil.copy2(trees["change"] / "bench" / "opcount.py", trees["base"] / "bench" / "opcount.py")
        for workload in workloads:
            runs = []
            for pair in range(1, args.pairs + 1):
                for order, side in enumerate(("base", "change") if pair % 2 else ("change", "base"), 1):
                    print(f"{workload} pair {pair} {side}", file=sys.stderr)
                    out = run(trees[side], "perfbench/run.py", "--workload", workload, "--seed", str(pair),
                              "--seconds", str(args.seconds), "--trace", "0")
                    last = json.loads(out.strip().splitlines()[-1])
                    runs.append({"pair": pair, "side": side, "order": order, "correct": last["correct"],
                                 "attempted": last["attempted"], "failed": last["failed"],
                                 "metrics": {name: m["value"] for name, m in last["metrics"].items()}})
            metrics = {}
            for m in spec["end_to_end"]:
                base, change = ([r["metrics"][m["name"]] for r in runs if r["side"] == side] for side in trees)
                metrics[m["name"]] = judge(m, base, change)
            report["workloads"][workload] = {"runs": runs, "metrics": metrics}
        print("opcodes", file=sys.stderr)
        counts = {side: json.loads(run(tree, "bench/opcount.py")) for side, tree in trees.items()}
    for workload in workloads:
        if workload in counts["change"]:
            report["opcodes"][workload] = opcodes(counts["base"].get(workload, {}), counts["change"][workload])

    for workload, result in report["workloads"].items():
        runs = result["runs"]
        print(f"{workload}: {args.pairs} pairs at {args.seconds:g} s, "
              f"{sum(r['correct'] for r in runs)} of {len(runs)} runs correct, "
              f"{sum(r['failed'] for r in runs)} queries failed")
        for name, m in result["metrics"].items():
            b, c = m["base"], m["change"]
            ratio = "-" if m["ratio"] is None else f"{m['ratio']:.4f}"
            print(f"  {name}: {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] -> {c['median']:.6g} "
                  f"[{c['q1']:.6g}, {c['q3']:.6g}], ratio {ratio}, "
                  f"won {m['won']['change']}-{m['won']['base']}, {m['against_base_iqr']} the base's IQR"
                  f"{', PAST THE BOUND' if m['past_bound'] else ''}")
    for workload, layers in report["opcodes"].items():
        print(f"{workload} instructions: " + ", ".join(
            f"{layer} {n['base']} -> {n['change']}" for layer, n in layers.items()))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
