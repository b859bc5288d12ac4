"""Scaling ladders for the ROADMAP baseline rows (recorded, not gated).

    python3 perfbench/ladder.py > perfbench/ladder_baseline.json

Each point runs in its own interpreter, which caps its own CPU time and
address space with resource.setrlimit before importing the library.  A
point that passes either cap reads null.  The caps are constants so that
ladders taken on different commits compare point by point.
"""

from __future__ import annotations

import json
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import certs

SRC = Path(__file__).resolve().parent.parent / "src"

CPU_CAP_S = 10
ADDRESS_SPACE_CAP = 1 << 30
WALL_TIMEOUT_S = 60

ROWS = {
    # has_fip over the non-multiples of k consecutive primes from 23
    "has_fip_consecutive_primes": list(range(1, 9)),
    # ~progression(10^k, 5)
    "complement_progression_10^k": list(range(3, 9)),
    # level_members(3, bound)
    "level_members_bound": [10**3, 10**4, 10**5, 2 * 10**5, 10**6, 10**7],
    # discrete_log modulo a safe prime p near 10^k
    "discrete_log_p_10^k": [6, 8, 10, 12, 14, 16],
}


def operation(row: str, x: int):
    from congruence_lattice import filter_lab, geometry, lattice, periodic_sets

    if row == "has_fip_consecutive_primes":
        primes = (23, 29, 31, 37, 41, 43, 47, 53)[:x]
        return lambda: filter_lab.has_fip([periodic_sets.non_divisibility(p) for p in primes])
    if row == "complement_progression_10^k":
        return lambda: len((~periodic_sets.progression(10**x, 5)).residues)
    if row == "level_members_bound":
        return lambda: len(lattice.level_members(3, x))
    if row == "discrete_log_p_10^k":
        found, fact = {}, {}
        rng = random.Random(x)
        p = certs.certified_prime(rng, 10**x, 10**x + 10**x // 20, found, fact, k=1)
        g = next(g for g in range(2, p) if certs.is_generator(g, p, fact[p]))
        target = pow(g, (p - 1) // 3, p)
        return lambda: geometry.discrete_log(p, g, target)
    raise ValueError(f"unknown row {row!r}")


def point(row: str, x: int) -> int:
    """Child: run one point under the caps and print its cost."""
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, str(SRC))
    op = operation(row, x)
    t0 = time.perf_counter()
    try:
        op()
    except MemoryError:
        return 3
    seconds = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"seconds": seconds, "peak_rss_mb": rss}))
    return 0


def main() -> int:
    rows = {}
    for row, xs in ROWS.items():
        rows[row] = []
        for x in xs:
            try:
                proc = subprocess.run(
                    [sys.executable, __file__, "--point", row, str(x)],
                    capture_output=True, text=True, timeout=WALL_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                proc = None
            ok = proc is not None and proc.returncode == 0
            data = json.loads(proc.stdout) if ok else {}
            rows[row].append({"x": x, "seconds": data.get("seconds"), "peak_rss_mb": data.get("peak_rss_mb")})
            print(f"{row} {x}: {data.get('seconds')}", file=sys.stderr)
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_cap_s": CPU_CAP_S,
        "address_space_cap_mb": ADDRESS_SPACE_CAP >> 20,
        "rows": rows,
    }, indent=2))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--point":
        sys.exit(point(sys.argv[2], int(sys.argv[3])))
    sys.exit(main())
