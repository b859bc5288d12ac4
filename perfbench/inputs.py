"""Seeded inputs for each workload, and the workload table.

`generate(rng, shape)` returns (queries, warmup): the queries of one cycle,
and the queries run once before timing starts.  `shape` is
a generator with a fixed seed per workload; it draws every size that sets a
query's cost (moduli, member counts, residue counts, prime bands).  `rng`
comes from --seed and draws the contents (residues, primes within a band,
chain digits).  The measured run repeats the whole cycle, so every run
does the same mix of query kinds at the same sizes, whatever the seed.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import combinations
from math import gcd, prod

import certs
from certs import PSI11, PSI12, PSI13, certified_prime, small_is_prime, trial_factor
from workloads import Query, orbit, random_chains

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
BUDGET = ("raises", "FactorizationBudgetError")


def shuffled(rng, qs) -> list:
    out = list(qs)
    rng.shuffle(out)
    return out


def first_of_each_kind(qs) -> list:
    """Warm-up: the first generated query of each kind, its cheapest size."""
    seen = {}
    for q in qs:
        seen.setdefault(q.kind, q)
    return list(seen.values())


def spec_chains(rng, last: int, n_chains: int, n_divisors: int):
    return random_chains(rng, last, (3, 5, 7, 11, 13), (2, 17, 19, 23), n_chains, n_divisors)


# -- small_mixed: the repo's oracle and acceptance traffic, scaled down ---------

# Library queries per kind made by one run of every oracles.SUITES suite at
# its default case count (the ROADMAP's end-to-end traffic) plus acceptance
# criterion 9: geom makes 10^4 random sets for each of 11 primes plus their
# 314 geometric sets; crt 10^4 systems; upward and fip 10^3 each; antichain
# 100 specs; criterion 9 one primitive root per prime below 10^4 (1229).
# A small_mixed cycle is that traffic divided by TRAFFIC_SCALE.
ORACLE_TRAFFIC = {
    "geom_small": 11 * 10_000 + 314,
    "crt_small": 10_000,
    "root_small": 1_229,
    "upward_small": 1_000,
    "fip_small": 1_000,
    "antichain_small": 100,
}
TRAFFIC_SCALE = 10


def per_cycle(kind: str) -> int:
    return max(1, round(ORACLE_TRAFFIC[kind] / TRAFFIC_SCALE))


def rand_set(rng, shape, max_modulus: int, min_modulus: int = 1) -> tuple:
    """(modulus, residues, added, removed) as the fip oracle draws members:
    at least one residue; each of added and removed holds 1 or 2 values
    below 61 with probability 1/4."""
    m = shape.randint(min_modulus, max_modulus)
    count = shape.randint(1, m)
    n_added = shape.choice((0, 0, 0, 0, 0, 0, 1, 2))
    n_removed = shape.choice((0, 0, 0, 0, 0, 0, 1, 2))
    added = {rng.randint(0, 60) for _ in range(n_added)}
    removed = {rng.randint(0, 60) for _ in range(n_removed)} - added
    return (m, tuple(sorted(rng.sample(range(m), count))), tuple(sorted(added)), tuple(sorted(removed)))


def small_congruences(rng, shape) -> tuple:
    return tuple((shape.randint(1, 30), rng.randint(-60, 60)) for _ in range(shape.randint(1, 3)))


def small_geometric_candidate(rng, shape):
    p = shape.choice(SMALL_PRIMES)
    if shape.random() < 0.5:
        s = orbit(p, rng.randrange(p), rng.randrange(1, p))
    else:
        s = rng.sample(range(p), shape.randint(1, p))
    return p, tuple(sorted(s))


def gen_small_mixed(rng, shape):
    qs = []
    for _ in range(per_cycle("crt_small")):
        cs = small_congruences(rng, shape)
        qs.append(Query("crt_small", cs, None, f"solve_system({list(cs)})", None))
    # as the geom suite: random subsets of size 1..p for each prime in turn,
    # and a share of geometric sets, orbits whose size `shape` fixes
    n_geom = per_cycle("geom_small")
    n_family = round(n_geom * 314 / ORACLE_TRAFFIC["geom_small"])
    for i in range(n_geom):
        if i < n_family:
            p = shape.choice(SMALL_PRIMES)
            size = shape.choice([l for l in range(1, p) if (p - 1) % l == 0])
            ratio = rng.choice([r for r in range(1, p) if len(orbit(p, 1, r)) == size])
            s = orbit(p, rng.randrange(1, p), ratio)
        else:
            p = SMALL_PRIMES[i % len(SMALL_PRIMES)]
            s = rng.sample(range(p), shape.randint(1, p))
        args = (p, tuple(sorted(s)))
        qs.append(Query("geom_small", args, None, f"is_geometric{args}", None))
    primes = [n for n in range(3, 10**4) if small_is_prime(n)]
    for _ in range(per_cycle("root_small")):
        p = shape.choice(primes)
        qs.append(Query("root_small", p, None, f"primitive_root({p})", None))
    for _ in range(per_cycle("antichain_small")):
        last = shape.randint(1, 4)
        chains, divisors = spec_chains(rng, last, shape.randint(2, 4), shape.randint(1, 2))
        qs.append(Query("antichain_small", (chains, divisors, last), None, f"build/verify(last={last}, {chains}, {divisors})", None))
    for _ in range(per_cycle("upward_small")):
        if shape.random() < 0.3:
            args = ("union", tuple(rng.sample((2, 3, 4, 6, 9, 12, 18, 36), shape.randint(1, 3))))
        else:
            m = shape.randint(1, 36)
            args = ("make", m, tuple(sorted(rng.sample(range(m), shape.randint(0, m)))))
        qs.append(Query("upward_small", args, None, f"is_upward_closed{args}", None))
    for _ in range(per_cycle("fip_small")):
        members = tuple(rand_set(rng, shape, 24, 2) for _ in range(shape.randint(1, 5)))
        qs.append(Query("fip_small", members, None, f"has_fip({members})", None))
    qs = shuffled(shape, qs)
    return qs, qs  # warm up on the whole cycle: fills every dlog table for p <= 31


# -- lcm_algebra: closures whose period is the lcm of the inputs ----------------


def near(shape, pool, k: int, target: float, tol: float) -> tuple:
    """A k-subset of pool whose product is within tol of target."""
    return shape.choice([c for c in combinations(pool, k) if abs(prod(c) / target - 1) <= tol])


def gen_lcm_algebra(rng, shape):
    """18 queries, about a second per cycle.

    Each timing percentile is the latency of one position in the cycle's
    sorted latencies; the cycle is made of groups of equal cost around p50
    and p90, so that the query at that position hardly matters.
    """
    p7_29 = (7, 11, 13, 17, 19, 23, 29)
    qs = []
    families = [near(shape, p7_29, 4, target, 0.15) for target in (2.0e4, 2.0e4, 2.0e4, 1.0e5)]
    for primes in (*families, p7_29[:5]):  # the cheapest 5-prime family
        a, b = shape.sample(primes, 2)
        m = a * b * shape.randint(1, 4)  # feasible_residues is O(m)
        label = f"FilterBase(non_divisibility {primes}), feasible_residues mod {m}"
        qs.append(Query("fip_primes", (primes, m), None, label, None))
    for blocked in (True, True, False, False):
        primes = near(shape, p7_29, 4, 2.0e4, 0.15)
        p = shape.choice(primes)
        r = 0 if blocked else rng.randrange(1, p)
        qs.append(Query("fip_blocked", (primes, p, r), None, f"has_fip(non_divisibility {primes}, {r} mod {p})", None))
    triples = [t for t in combinations(range(97, 108), 3) if all(gcd(a, b) == 1 for a, b in combinations(t, 2))]
    moduli = shape.choice(triples)
    for _ in range(3):
        classes = tuple((m, rng.randrange(m)) for m in moduli)
        qs.append(Query("union_coprime", classes, rng.getrandbits(32), f"union{classes}", None))
    m = shape.randint(10**5, 10**5 + 10**3)  # its factors set the work of make()
    args = (m, rng.randrange(m))
    qs.append(Query("complement", args, rng.getrandbits(32), f"~progression{args}", None))
    primes = near(shape, (79, 83, 89, 97, 101), 3, 7.0e5, 0.12)
    qs.append(Query("up_primes", primes, rng.getrandbits(32), f"up_closure({list(primes)})", None))
    # Moduli near 10^12: prime ones cost a trial division to 10^6; semiprimes
    # with both factors above 10^6 exceed the factoring budget (known defect).
    found, fact = {}, {}
    k = shape.randint(2, 30)
    for form in ("prime", "intersect", "intersect", "semiprime"):
        if form == "semiprime":
            a = certified_prime(rng, 10**6, 11 * 10**5, found, fact)
            b = next(q for q in iter(lambda: certified_prime(rng, 10**6, 11 * 10**5, found, fact), None) if q != a)
            m, defect, label = a * b, BUDGET, f"progression({a}*{b}, r)"
        else:
            m, defect = certified_prime(rng, 9 * 10**11, 10**12, found, fact), None
            label = f"progression({m}, r)"
        args = (m, rng.randrange(m))
        if form == "intersect":
            args += (k, rng.randrange(k))
            label += f" & progression({k}, {args[3]})"
        qs.append(Query("big_progression", args, rng.getrandbits(32), label, defect))
    return shuffled(shape, qs), first_of_each_kind(qs)


# -- big_numbers: arbitrary-precision number theory ------------------------------


def chernick_carmichael(rng, lo: int, hi: int):
    """(6k+1)(12k+1)(18k+1) with all three factors prime: a Carmichael number."""
    while True:
        k = rng.randint(lo, hi)
        fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(small_is_prime(f) for f in fs):
            return fs


def least_generator(p: int, factors) -> int:
    return next(g for g in range(2, p) if certs.is_generator(g, p, factors))


def smooth_modulus(rng, shape) -> int:
    """A product of small prime powers, so that moduli share factors."""
    return prod(rng.choice((2, 3, 5, 7, 11, 13)) ** shape.randint(1, 6) for _ in range(shape.randint(2, 4)))


def gen_big_numbers(rng, shape):
    found, fact = {}, {}
    qs = []

    def prime(lo, hi, k=0):
        return certified_prime(rng, lo, hi, found, fact, k)

    def chain(p):
        out = []
        while p in found:
            out.append((p, found[p]))
            p = found[p][0]
        return tuple(out)

    for lo in (10**12, 10**17, 10**23, 10**29):
        p = prime(lo, 10 * lo)
        qs.append(Query("is_prime", p, ("prime", chain(p)), f"is_prime({p})", None))
    for lo_a, lo_b in ((10**6, 10**7), (10**8, 10**12), (10**14, 10**15)):
        fs = (prime(lo_a, 10 * lo_a), prime(lo_b, 10 * lo_b))
        qs.append(Query("is_prime", prod(fs), ("composite", fs), f"is_prime({fs[0]}*{fs[1]})", None))
    fs = chernick_carmichael(rng, 2000, 10000)
    qs.append(Query("is_prime", prod(fs), ("composite", fs), f"is_prime(Carmichael {'*'.join(map(str, fs))})", None))
    for name, (n, fs), defect in (("psi11", PSI11, None), ("psi12", PSI12, ("wrong", None)), ("psi13", PSI13, ("wrong", None))):
        qs.append(Query("is_prime", n, ("composite", fs), f"is_prime({name} = {n})", defect))

    # Trial division runs to the square root of the cofactor left after the
    # small factors, or to 10^6: each band below fixes that cost.
    def smooth_times_prime():
        s, p = rng.randint(2, 12), prime(9 * 10**11, 10**12)
        return s * p, {**trial_factor(s), p: 1}, f"{s}*{p}"

    def mixed():
        s, a, b = rng.randint(2, 12), prime(10**6, 10**7), prime(5 * 10**4, 6 * 10**4)
        f = trial_factor(s)
        for q in (a, b):
            f[q] = f.get(q, 0) + 1
        return s * a * b, f, f"{s}*{a}*{b}"

    for make_n, kinds in ((smooth_times_prime, ("prime_factors", "prime_factors", "omega")), (mixed, ("prime_factors", "prime_factors", "omega", "omega"))):
        for kind in kinds:
            n, f, text = make_n()
            qs.append(Query(kind, n, f, f"{kind}({text})", None))
    a = prime(10**6, 3 * 10**6)
    b = next(q for q in iter(lambda: prime(10**6, 3 * 10**6), None) if q != a)
    qs.append(Query("prime_factors", a * b, {a: 1, b: 1}, f"prime_factors({a}*{b})", BUDGET))
    qs.append(Query("omega", 1000036000099, {1000003: 1, 1000033: 1}, "omega(1000036000099 = 1000003*1000033)", BUDGET))

    # Baby-step giant-step costs sqrt(p), so each band is 5% wide.  Safe
    # primes (p - 1 = 2q) fix the trial division of p - 1 at sqrt(q) steps.
    for lo in (10**5, 10**7, 10**9, 5 * 10**10):
        p = prime(lo, lo + lo // 20, k=1)
        factors = tuple(fact[p])
        g = least_generator(p, factors)
        # Where the answer lies sets how many giant steps the search takes,
        # so `shape` fixes it as a fraction of the group order.
        x = pow(g, 1 + int(shape.random() * (p - 2)), p)
        qs.append(Query("dlog_root", (p, x), factors, f"primitive_root/discrete_log mod {p}", None))
        # a = g^(2u) with u prime to p - 1 has order (p - 1) / 2; g^odd is outside <a>
        u = next(u for u in iter(lambda: rng.randrange(1, p - 1), None) if gcd(u, p - 1) == 1)
        a = pow(g, 2 * u, p)
        if shape.random() < 0.5:
            y = pow(a, 1 + int(shape.random() * ((p - 1) // 2 - 1)), p)
        else:
            y = pow(g, 2 * rng.randrange(1, p // 2) + 1, p)
        qs.append(Query("dlog_order", (p, a, y), factors, f"multiplicative_order/discrete_log mod {p}", None))

    for i, l in enumerate(shape.sample((6, 8, 10, 12), 4)):
        p = next(p for p in iter(lambda: prime(2 * 10**5, 21 * 10**4), None) if (p - 1) % l == 0)
        s0 = rng.randrange(1, p)
        s = {s0 * x % p for x in certs.subgroup(p, l)}
        if i >= 2:  # perturb one element: usually no longer a coset
            s.discard(rng.choice(sorted(s)))
            s.add(next(x for x in iter(lambda: rng.randrange(1, p), None) if x not in s))
        args = (p, tuple(sorted(s)))
        qs.append(Query("geom_big", args, None, f"is_geometric(p={p}, |S|={len(s)})", None))

    for i in range(4):
        k = shape.randint(10, 50)
        ms = [rng.randint(10**6, 10**12) if shape.random() < 0.5 else smooth_modulus(rng, shape) for _ in range(k)]
        x = rng.getrandbits(200)
        cs = [(m, x % m + m * rng.randint(-3, 3)) for m in ms]
        if i == 3:  # break one pair that shares a factor
            j, l = next((j, l) for j, l in combinations(range(k), 2) if gcd(ms[j], ms[l]) > 1)
            cs[l] = (ms[l], cs[l][1] + 1)
        qs.append(Query("crt_big", tuple(cs), None, f"solve_system({k} congruences)", None))

    for _ in range(4):
        last = shape.randint(30, 60)
        chains, divisors = spec_chains(rng, last, shape.randint(3, 5), shape.randint(1, 2))
        qs.append(Query("antichain_big", (chains, divisors, last), None, f"build/verify(last={last})", None))
    return shuffled(shape, qs), first_of_each_kind(qs)


# -- cli_cold: one tiny command per group, each in a new interpreter --------------


def gen_cli_cold(rng, shape):
    """Five commands: each costs a process start, whatever its input."""
    cs = small_congruences(rng, shape)
    p, s = small_geometric_candidate(rng, shape)
    elements = tuple(sorted(rng.sample(range(2, 31), shape.randint(1, 3))))
    last = shape.randint(1, 4)
    chains, divisors = spec_chains(rng, last, shape.randint(2, 4), shape.randint(1, 2))
    members = tuple(rand_set(rng, shape, 24, 2) for _ in range(shape.randint(1, 3)))
    spec = {"chains": [{"prime": q, "residues": list(c)} for q, c in chains], "divisors": list(divisors)}
    base = [{"modulus": m, "residues": list(r), "add": list(a), "remove": list(x)} for m, r, a, x in members]
    qs = [
        cli_query(["crt", "solve", json.dumps([{"m": m, "a": a} for m, a in cs])], ("crt", cs)),
        cli_query(["geom", "check", "-p", str(p), "--set", ",".join(map(str, s))], ("geom", p, s)),
        cli_query(["lattice", "up", ",".join(map(str, elements))], ("up", elements)),
        cli_query(["antichain", "build", "--spec", json.dumps(spec), "-n", str(last)], ("antichain", chains, divisors, last)),
        cli_query(["filter", "fip", "--base", json.dumps(base)], ("fip", members)),
    ]
    return qs, qs[:1]  # one cold start writes the bytecode cache


def cli_query(argv, cert):
    text = " ".join(a if len(a) < 40 else a[:37] + "..." for a in argv)
    return Query("cli", tuple(argv), cert, f"conlat {text}", None)


# Each workload: its generator; the least number of cycles a measured run
# makes (the run count it gives fixes the tail percentile: small_mixed p99.9,
# the others p90); the cycles a traced run makes in each mode; and whether a
# repeated answer may be checked against the answer already certified for
# the same input (for inputs too cheap to re-certify every time).
Workload = namedtuple("Workload", "generate min_cycles trace_cycles memo_checks")

WORKLOADS = {
    "small_mixed": Workload(gen_small_mixed, 8, 30, True),
    "lcm_algebra": Workload(gen_lcm_algebra, 8, 6, False),
    "big_numbers": Workload(gen_big_numbers, 8, 4, False),
    "cli_cold": Workload(gen_cli_cold, 20, 8, False),
}
