"""The four workloads: seeded inputs, the queries that run them, and checks.

A query is one user-level question made of a few calls into the library.
Its inputs are plain integers and tuples; every library object it needs is
built by a call inside the query, and the query consumes its results before
it returns.  Each query kind has a `run(api, args)` that makes the calls
through `api` (so the traced run can wrap them) and a `check(args, cert,
answer)` that certifies the answer without the library.  A check returns
None, or (layer, message) naming the layer whose answer was wrong.

Inputs flagged with `defect` reproduce known library defects; their
failures are counted and listed, but do not make a run incorrect.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from itertools import combinations
from math import gcd, lcm, prod
from pathlib import Path
from types import SimpleNamespace

import certs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = ("primes", "crt", "periodic_sets", "geometry", "lattice", "antichain", "filter_lab", "cli")

# kind: what is asked; args: the program's inputs; cert: data only the check
# reads; label: how a failure is listed; defect: None, or ("raises", exception
# name) / ("wrong", None) for a known library defect on this input.
Query = namedtuple("Query", "kind args cert label defect")


# -- the library, as the queries call it ---------------------------------------


def library_table(importtime_sink=None) -> dict:
    """{layer: {name: function}} for every library entry point a query calls."""
    from congruence_lattice import antichain, crt, filter_lab, geometry, lattice, periodic_sets, primes

    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-X", "importtime"] if importtime_sink is not None else []

    def cli_run(argv):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "congruence_lattice.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        if importtime_sink is not None:
            importtime_sink.append(tracing.parse_importtime(proc.stderr, "congruence_lattice"))
        return proc.returncode, proc.stdout

    ps = periodic_sets.PeriodicSet
    return {
        "primes": {"is_prime": primes.is_prime, "prime_factors": primes.prime_factors},
        "crt": {"Congruence": crt.Congruence, "solve_system": crt.solve_system},
        "periodic_sets": {
            "make": periodic_sets.make,
            "progression": periodic_sets.progression,
            "non_divisibility": periodic_sets.non_divisibility,
            "divisibility_union": periodic_sets.divisibility_union,
            "intersect": ps.intersect,
            "union": ps.union,
            "complement": ps.complement,
        },
        "geometry": {
            "is_geometric": geometry.is_geometric,
            "primitive_root": geometry.primitive_root,
            "multiplicative_order": geometry.multiplicative_order,
            "discrete_log": geometry.discrete_log,
        },
        "lattice": {"up_closure": lattice.up_closure, "omega": lattice.omega, "is_upward_closed": lattice.is_upward_closed},
        "antichain": {"AntichainSpec": antichain.AntichainSpec, "build": antichain.build, "verify": antichain.verify},
        "filter_lab": {"FilterBase": filter_lab.FilterBase, "has_fip": filter_lab.has_fip, "feasible_residues": filter_lab.feasible_residues},
        "cli": {"run": cli_run},
    }


def observer(rec: tracing.Recorder):
    """Layer counts taken at the call boundary in the traced run."""
    from congruence_lattice.periodic_sets import PeriodicSet

    def observe(label, out):
        if isinstance(out, PeriodicSet):
            rec.counts["periodic_sets.residues_out"] += len(out.residues)
        elif label == "antichain.build":
            bits = max(v.bit_length() for v in out)
            rec.maxima["antichain.max_bits"] = max(rec.maxima["antichain.max_bits"], bits)

    return observe


# -- shared check helpers -------------------------------------------------------


def member(s, n: int) -> bool:
    """Membership in a PeriodicSet from its fields, by the documented rule."""
    return n in s.added or (n % s.modulus in s.residues and n not in s.removed)


def set_agrees(s, want, period: int, top: int):
    """None when PeriodicSet s equals {n >= 0 : want(n)}, given that the
    latter is periodic with `period` beyond `top`; else a message."""
    if period % s.modulus or any(e > top for e in s.added | s.removed):
        return f"period {s.modulus} or edits beyond {top} impossible for period {period}"
    for n in range(top + period + 1):
        if member(s, n) != want(n):
            return f"membership of {n} is {member(s, n)}"
    return None


def sample_points(cert_seed: int, span: int, count: int = 64) -> list:
    """Deterministic sample points in [0, span) for membership checks."""
    rng = random.Random(cert_seed)
    return [rng.randrange(span) for _ in range(count)]


def orbit(p: int, s: int, r: int) -> set:
    out, x = set(), s * r % p
    while x not in out:
        out.add(x)
        x = x * r % p
    return out


def expected_descriptor(p: int, residues):
    """(seed, ratio) of the least geometric descriptor of S, or None.

    A zero-free S of size l is geometric iff l | p - 1 and S = min(S) * H_l
    for the subgroup H_l of order l; the least ratio is the least element
    of order l.  Decided without discrete logarithms.
    """
    s = set(residues)
    if s == {0}:
        return (0, 1)
    if 0 in s:
        return None
    if len(s) == 1:
        return (min(s), 1)
    l = len(s)
    if (p - 1) % l:
        return None
    h = certs.subgroup(p, l)
    s0 = min(s)
    if {s0 * x % p for x in h} != s:
        return None
    lf = certs.trial_factor(l)
    return (s0, min(x for x in h if certs.order_certified(x, l, p, lf)))


def common_class(members) -> bool:
    """Some residue modulo the lcm lies in every member's periodic part."""
    period = lcm(*(m for m, *_ in members))
    first_m, first_r = members[0][0], members[0][1]
    return any(
        all(x % m in r for m, r, *_ in members[1:])
        for r0 in first_r
        for x in range(r0, period, first_m)
    )


def antichain_failure(chains, divisors, last: int, values):
    """None if `values` is the construction's output, else a message.

    Certificate: every element meets its step constraints (residue tracking
    of earlier chain primes, its own chain prime, divisor powers and the
    safe-mode substitutes), lies within one period of the constraint
    moduli above its predecessor (so it is the least such solution), and no
    element divides another.
    """
    if len(values) != last + 1:
        return f"{len(values)} elements for last={last}"
    depths = [next(i for i, r in enumerate(chain, 1) if r) for _, chain in chains]
    if values[0] != chains[0][0] ** depths[0]:
        return "element 0 is not the first chain prime's first nonzero power"
    for n in range(1, last + 1):
        mods = [(p ** (depths[i] + n), chain[depths[i] + n - 1]) for i, (p, chain) in enumerate(chains[:n])]
        if n < len(chains):
            mods.append((chains[n][0] ** depths[n], 0))
        for j in range(n):
            if j < len(divisors):
                mods.append((divisors[j] ** n, 0))
            elif n + j < len(chains):
                mods.append((chains[n + j][0], 0))
        x, period = values[n], prod(m for m, _ in mods)
        if any(x % m != r for m, r in mods):
            return f"element {n} misses a step constraint"
        if not values[n - 1] < x <= values[n - 1] + period:
            return f"element {n} is not the least solution above element {n - 1}"
    for i, a in enumerate(values):
        if any(b % a == 0 for b in values[i + 1:]):
            return f"element {i} divides a later element"
    return None


def random_chains(rng, last: int, chain_pool, divisor_pool, n_chains: int, n_divisors: int):
    """Plain-integer antichain spec: chains p -> residues mod p, p^2, ... with
    first nonzero depth 1 or 2 and depth first + last."""
    chains = []
    for p in rng.sample(chain_pool, n_chains):
        first = rng.randint(1, 2)
        value, power, chain = 0, 1, []
        for depth in range(1, first + last + 1):
            digit = 0 if depth < first else rng.randint(1 if depth == first else 0, p - 1)
            value += digit * power
            power *= p
            chain.append(value)
        chains.append((p, tuple(chain)))
    return tuple(chains), tuple(rng.sample(divisor_pool, n_divisors))


# -- query kinds ------------------------------------------------------------------
# Each kind: run(api, args) -> answer, check(args, cert, answer) -> None | (layer, msg)


def run_crt(api, cs):
    sol = api.crt.solve_system([api.crt.Congruence(m, a) for m, a in cs])
    return None if sol is None else (sol.modulus, sol.residue)


def check_crt_cert(cs, cert, ans):
    """Pairwise compatibility decides solvability; a solution must satisfy
    every congruence and be reduced modulo the lcm."""
    solvable = all((a - b) % gcd(m, k) == 0 for (m, a), (k, b) in combinations(cs, 2))
    if not solvable:
        return None if ans is None else ("crt", "solution for an incompatible system")
    if ans is None:
        return ("crt", "reported infeasible, but every pair is compatible")
    modulus, x = ans
    if modulus != lcm(*(m for m, _ in cs)) or not 0 <= x < modulus or any((x - a) % m for m, a in cs):
        return ("crt", "solution fails a congruence or the lcm")
    return None


def run_geom(api, args):
    d = api.geometry.is_geometric(*args)
    return None if d is None else (d.seed, d.ratio)


def check_geom(args, cert, ans):
    want = expected_descriptor(*args)
    return None if ans == want else ("geometry", f"got {ans}, coset criterion gives {want}")


def run_root(api, p):
    return api.geometry.primitive_root(p)


def check_root(p, cert, g):
    factors = list(certs.trial_factor(p - 1))
    want = next(h for h in range(1, p) if certs.is_generator(h, p, factors))
    return None if g == want else ("geometry", f"got {g}, least generator is {want}")


def run_antichain(api, args):
    chains, divisors, last = args
    spec = api.antichain.AntichainSpec(chains, divisors)
    values = api.antichain.build(spec, last)
    return tuple(values), api.antichain.verify(values, spec).ok


def check_antichain(args, cert, ans):
    values, ok = ans
    if not ok:
        return ("antichain", "verify rejects the built prefix")
    bad = antichain_failure(*args, values)
    return None if bad is None else ("antichain", bad)


def run_upward(api, args):
    ps = api.periodic_sets
    s = ps.divisibility_union(args[1]) if args[0] == "union" else ps.make(args[1], args[2])
    return api.lattice.is_upward_closed(s)


def check_upward(args, cert, ans):
    if args[0] == "union":
        m = lcm(*args[1])
        residues = {x for x in range(m) if any(x % d == 0 for d in args[1])}
    else:
        m, residues = args[1], set(args[2])
    # n = r (mod m) gives k*n = k*r (mod m), so closure is a statement on residues
    want = bool(residues) and all(k * r % m in residues for r in residues for k in range(1, m + 1))
    return None if ans == want else ("lattice", f"got {ans}, residue closure gives {want}")


def run_fip_small(api, members):
    return api.filter_lab.has_fip([api.periodic_sets.make(*m) for m in members])


def check_fip_small(members, cert, ans):
    want = common_class(members)
    return None if ans == want else ("filter_lab", f"got {ans}, residue scan gives {want}")


def run_fip_primes(api, args):
    primes, m = args
    fl = api.filter_lab
    base = fl.FilterBase([api.periodic_sets.non_divisibility(p) for p in primes])
    return fl.has_fip(base), fl.feasible_residues(base, m)


def check_fip_primes(args, cert, ans):
    primes, m = args
    fip, residues = ans
    # x = r (mod m) avoids every p | m exactly when r does; CRT frees the rest
    want = {r for r in range(m) if all(r % p for p in primes if m % p == 0)}
    if fip is not True or residues != want:
        return ("filter_lab", f"fip={fip}, {len(residues)} residues vs {len(want)} by CRT")
    return None


def run_fip_blocked(api, args):
    primes, p, r = args
    ps = api.periodic_sets
    return api.filter_lab.has_fip([*(ps.non_divisibility(q) for q in primes), ps.progression(p, r)])


def check_fip_blocked(args, cert, ans):
    want = args[2] != 0  # r = 0 (mod p) is excluded by non_divisibility(p)
    return None if ans == want else ("filter_lab", f"got {ans}, CRT gives {want}")


def run_union(api, classes):
    ps = api.periodic_sets
    a, b, c = (ps.progression(m, r) for m, r in classes)
    u = ps.union(ps.union(a, b), c)
    return u, len(u.residues)


def check_union(classes, cert, ans):
    u, count = ans
    (a, _), (b, _), (c, _) = classes
    period = a * b * c
    want = period // a + period // b + period // c - a - b - c + 1  # inclusion-exclusion
    if period % u.modulus or count * (period // u.modulus) != want or u.added or u.removed:
        return ("periodic_sets", f"union has {count} residues mod {u.modulus}, expected {want} mod {period}")
    for n in sample_points(cert, 10 * period):
        if member(u, n) != any(n % m == r for m, r in classes):
            return ("periodic_sets", f"union membership wrong at {n}")
    return None


def run_complement(api, args):
    c = api.periodic_sets.complement(api.periodic_sets.progression(*args))
    return c, len(c.residues)


def check_complement(args, cert, ans):
    m, r = args
    c, count = ans
    if c.modulus != m or count != m - 1 or c.added or c.removed:
        return ("periodic_sets", f"complement has {count} residues mod {c.modulus}")
    for n in [r, r + m, *sample_points(cert, 10 * m)]:
        if member(c, n) != (n % m != r):
            return ("periodic_sets", f"complement membership wrong at {n}")
    return None


def run_up(api, primes):
    s = api.lattice.up_closure(primes)
    return s, len(s.residues), api.lattice.is_upward_closed(s)


def check_up(primes, cert, ans):
    s, count, closed = ans
    period = prod(primes)
    want = period - prod(p - 1 for p in primes)  # residues sharing a factor with the period
    if not closed or s.modulus != period or count != want or s.added or s.removed != {0}:
        return ("lattice", f"closure mod {s.modulus} with {count} residues, closed={closed}")
    for n in [0, *sample_points(cert, 10 * period)]:
        if member(s, n) != (n > 0 and any(n % p == 0 for p in primes)):
            return ("lattice", f"up_closure membership wrong at {n}")
    return None


def run_big_progression(api, args):
    ps = api.periodic_sets
    s = ps.progression(args[0], args[1])
    if len(args) == 4:
        s = ps.intersect(s, ps.progression(args[2], args[3]))
    return s, len(s.residues)


def check_big_progression(args, cert, ans):
    s, count = ans
    classes = list(zip(args[::2], args[1::2]))
    period = lcm(*(m for m, _ in classes))  # coprime moduli: one class mod the lcm
    if s.modulus != period or count != 1:
        return ("periodic_sets", f"{count} residues mod {s.modulus}, expected 1 mod {period}")
    x = next(iter(s.residues))
    for n in [x, x + period, *sample_points(cert, 10**15)]:
        if member(s, n) != all(n % m == r for m, r in classes):
            return ("periodic_sets", f"progression membership wrong at {n}")
    return None


def run_is_prime(api, n):
    return api.primes.is_prime(n)


def check_is_prime(n, cert, ans):
    if cert[0] == "prime":
        if not certs.verify_prime(n, dict(cert[1])):
            raise AssertionError(f"benchmark bug: bad prime certificate for {n}")
        return None if ans is True else ("primes", "prime reported composite")
    if not certs.composite_witness(n, cert[1]):
        raise AssertionError(f"benchmark bug: bad factor certificate for {n}")
    return None if ans is False else ("primes", f"is_prime = True, but n = {' * '.join(map(str, cert[1]))}")


def run_factors(api, n):
    return api.primes.prime_factors(n)


def check_factors(n, factors, ans):
    return None if ans == sorted(factors) else ("primes", f"got {ans}, built from {sorted(factors)}")


def run_omega(api, n):
    return api.lattice.omega(n)


def check_omega(n, factors, ans):
    want = sum(factors.values())
    return None if ans == want else ("lattice", f"got {ans}, built with {want} factors")


def run_dlog_root(api, args):
    p, x = args
    g = api.geometry.primitive_root(p)
    return g, api.geometry.discrete_log(p, g, x)


def check_dlog_root(args, factors, ans):
    p, x = args
    g, k = ans
    if not certs.is_generator(g, p, factors) or any(certs.is_generator(h, p, factors) for h in range(2, g)):
        return ("geometry", f"{g} is not the least primitive root")
    if k is None or not 1 <= k < p or pow(g, k, p) != x:
        return ("geometry", f"discrete_log gave {k}")
    return None


def run_dlog_order(api, args):
    p, a, y = args
    return api.geometry.multiplicative_order(p, a), api.geometry.discrete_log(p, a, y)


def check_dlog_order(args, factors, ans):
    p, a, y = args
    t, k = ans
    if (p - 1) % t or not certs.order_certified(a, t, p, factors):
        return ("geometry", f"{t} is not the order of {a}")
    # <a> = {z : z^t = 1}, and the least exponent is unique in [1, t]
    if pow(y, t, p) != 1:
        return None if k is None else ("geometry", f"discrete_log gave {k} for y outside <a>")
    if k is None or not 1 <= k <= t or pow(a, k, p) != y:
        return ("geometry", f"discrete_log gave {k}")
    return None


def run_cli(api, argv):
    return api.cli.run(argv)


def check_cli(argv, cert, ans):
    code, out = ans
    if code != 0:
        return ("cli", f"exit code {code}")
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return ("cli", "stdout is not JSON")
    bad = CLI_EXPECT[cert[0]](data, *cert[1:])
    return None if bad is None else ("cli", bad)


def _cli_crt(data, cs):
    if data == {"infeasible": True}:
        ans = None
    elif set(data) == {"M", "x0"}:
        ans = (data["M"], data["x0"])
    else:
        return f"got {data}"
    bad = check_crt_cert(cs, None, ans)
    return None if bad is None else f"got {data}: {bad[1]}"


def _cli_geom(data, p, residues):
    want = expected_descriptor(p, residues)
    expect = {"geometric": False} if want is None else {"geometric": True, "descriptor": {"p": p, "s": want[0], "r": want[1]}}
    return None if data == expect else f"got {data}, expected {expect}"


def _cli_up(data, elements):
    s = SimpleNamespace(
        modulus=data["modulus"], residues=frozenset(data["residues"]),
        added=frozenset(data["add"]), removed=frozenset(data["remove"]),
    )
    return set_agrees(s, lambda n: n > 0 and any(n % e == 0 for e in elements), lcm(*elements), 0)


def _cli_antichain(data, chains, divisors, last):
    return antichain_failure(chains, divisors, last, [int(v) for v in data])


def _cli_fip(data, members):
    want = common_class(members)
    return None if data == {"fip": want} else f"got {data}, residue scan gives {want}"


CLI_EXPECT = {"crt": _cli_crt, "geom": _cli_geom, "up": _cli_up, "antichain": _cli_antichain, "fip": _cli_fip}


KINDS = {
    "crt_small": (run_crt, check_crt_cert),
    "geom_small": (run_geom, check_geom),
    "root_small": (run_root, check_root),
    "antichain_small": (run_antichain, check_antichain),
    "upward_small": (run_upward, check_upward),
    "fip_small": (run_fip_small, check_fip_small),
    "fip_primes": (run_fip_primes, check_fip_primes),
    "fip_blocked": (run_fip_blocked, check_fip_blocked),
    "union_coprime": (run_union, check_union),
    "complement": (run_complement, check_complement),
    "up_primes": (run_up, check_up),
    "big_progression": (run_big_progression, check_big_progression),
    "is_prime": (run_is_prime, check_is_prime),
    "prime_factors": (run_factors, check_factors),
    "omega": (run_omega, check_omega),
    "dlog_root": (run_dlog_root, check_dlog_root),
    "dlog_order": (run_dlog_order, check_dlog_order),
    "geom_big": (run_geom, check_geom),
    "crt_big": (run_crt, check_crt_cert),
    "antichain_big": (run_antichain, check_antichain),
    "cli": (run_cli, check_cli),
}
