"""Seeded brute-force comparison suites.

Each suite replays library results against an independent enumeration
(bounded scans, exhaustive pair searches).  Given a seed the generated
case list is fixed, so reports are reproducible; an optional wall-clock
budget aborts a run early and flags the report.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import Counter
from math import gcd, inf, isqrt, lcm, prod

from . import antichain, crt, filter_lab, geometry, lattice, periodic_sets, primes
from .primes import json_int, strict_int

DEFAULT_SEED = 42

_GEOM_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

_SIEVE_BOUND = 10**6

# the dlog suite's first primes: p - 1 = 2^8, 2^9 * 3 * 5, 2^16, 37-smooth, and twice a prime
# at which `dlog` predicts index calculus cheaper than baby-step giant-step (two safe primes)
_DLOG_PRIMES = (257, 7681, 65537, 29682952539241, 8589935363, 52274027579)
_DLOG_SCAN_BOUND = 10**4

# (n, its prime factors, whether factorize must split n at the default
# budget): psi1..psi13, the least strong pseudoprimes to the first t prime
# bases (psi7 = psi8, psi9 = psi10 = psi11), whose factors beyond psi11 are
# out of rho's reach; Chernick Carmichael numbers (6k+1)(12k+1)(18k+1);
# two Mersenne primes above psi13, which is_prime passes through Lucas.
_PRIMES_REGRESSIONS = (
    (2047, (23, 89), True),
    (1373653, (829, 1657), True),
    (25326001, (2251, 11251), True),
    (3215031751, (151, 751, 28351), True),
    (2152302898747, (6763, 10627, 29947), True),
    (3474749660383, (1303, 16927, 157543), True),
    (341550071728321, (10670053, 32010157), True),
    (3825123056546413051, (149491, 747451, 34233211), True),
    (318665857834031151167461, (399165290221, 798330580441), False),
    (3317044064679887385961981, (1287836182261, 2575672364521), False),
    (1729, (7, 13, 19), True),
    (56052361, (211, 421, 631), True),
    (1296198694153288947529, (6000307, 12000613, 18000919), True),
    (2**89 - 1, (2**89 - 1,), True),
    (2**127 - 1, (2**127 - 1,), True),
)
# (n, budget) that factorize must refuse: two primes beyond budget 100, two
# primes near 10^15 beyond the default budget, and a bound that tries no divisor
_PRIMES_REFUSALS = (
    ((10**9 + 7) * (10**9 + 9), 100),
    (1000000000000037 * 1000000000000091, primes.DEFAULT_TRIAL_BUDGET),
    (12, 1),
)


# -- independent brute-force checks ------------------------------------------


def scan_system(congruences):
    """Least solution of a congruence system found by scanning [0, lcm),
    or None.  Walks the first congruence's class and filters by the rest."""
    cs = list(congruences)
    if not cs:
        return (1, 0)
    period = lcm(*(c.modulus for c in cs))
    first, rest = cs[0], cs[1:]
    for x in range(first.residue, period, first.modulus):
        if all(x % c.modulus == c.residue for c in rest):
            return (period, x)
    return None


def orbit_family(p: int) -> dict:
    """{orbit: (seed, ratio)} over every orbit {s * r^k mod p : k >= 1}, walked
    pair by pair (O(p^2) orbits) in lexicographic order, so each orbit maps to
    the least pair that generates it; shares no code with `geometry`."""
    out = {}
    for seed in range(p):
        for ratio in range(1, p):
            orbit = set()
            x = seed * ratio % p
            while x not in orbit:
                orbit.add(x)
                x = x * ratio % p
            out.setdefault(frozenset(orbit), (seed, ratio))
    return out


def upward_scan(s):
    """Bounded multiple-closure check over [1, modulus^2].

    This decides upward-closedness of a purely periodic S of period m
    exactly: say a >= 1 is in S and ka is not.  Then k != 1 (mod m), or
    ka = a (mod m) would be in S.  Take a' in [1, m] with a' = a and k' in
    [2, m] with k' = k (mod m): a' is in S, and k'a' = ka (mod m) is a
    multiple of a' outside S with k'a' <= m^2.
    """
    bound = s.modulus * s.modulus
    have = {n for n in range(1, bound + 1) if n in s}
    return bool(have) and all(x in have for a in have for x in range(2 * a, bound + 1, a))


def power_logs(p: int, base: int) -> dict:
    """{x: least k >= 1 with base^k = x (mod p)}, by walking the powers of base."""
    out, x, k = {}, base, 1
    while x not in out:
        out[x] = k
        x, k = x * base % p, k + 1
    return out


def trial_primes(n: int) -> list:
    """Distinct prime factors of n >= 1 by trial division, sharing no code with `primes`."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2  # 2, then odd d only
    return out + [n] if n > 1 else out


def scan_divisors(n: int) -> list:
    """Divisors of n >= 1, ascending, from n % d for d up to isqrt(n); shares no
    code with `lattice` or `primes`."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def least_prime_factors(bound: int):
    """spf[n] = least prime factor of n for 2 <= n <= bound (n itself when n is
    prime), by a sieve that shares no code with `primes`."""
    spf = array("l", range(bound + 1))
    small = [p for p in range(2, isqrt(bound) + 1) if all(p % q for q in range(2, isqrt(p) + 1))]
    # descending: the least prime factor q of m, with q*q <= m, writes last
    for p in reversed(small):
        spf[p * p :: p] = array("l", [p]) * len(range(p * p, bound + 1, p))
    return spf


def sieve_factors(n: int, spf) -> list:
    """Prime factors of 1 <= n <= len(spf) - 1 with multiplicity, read off the sieve."""
    out = []
    while n > 1:
        out.append(spf[n])
        n //= spf[n]
    return out


def periodic_mismatches(got, period: int, top: int, want) -> list:
    """How `got` differs from S = {n >= 0 : want(n)}, given that S is periodic
    with `period` beyond `top`: membership over [0, 2 * period + top], `len`
    of the residues against a count over one period, equality and JSON against
    `make` of S listed explicitly, and the hash against the residue count and
    sum of the listing itself, so a fault in the sum by CRT shows."""
    hi = 2 * period + top
    truth = [want(n) for n in range(hi + 1)]
    bad = next((n for n in range(hi + 1) if (n in got) != truth[n]), None)
    found = [] if bad is None else [f"membership of {bad} is {bad in got}"]
    if period % got.modulus:
        return found + [f"modulus {got.modulus} does not divide {period}"]
    base = (top // period + 1) * period  # beyond every edit
    if len(got.residues) != sum(truth[base : base + got.modulus]):
        found.append(f"{len(got.residues)} residues, one period holds {sum(truth[base : base + got.modulus])}")
    residues = [x for x in range(period) if truth[base + x]]
    added = [n for n in range(top + 1) if truth[n] and not truth[base + n % period]]
    removed = [n for n in range(top + 1) if not truth[n] and truth[base + n % period]]
    listed = periodic_sets.make(period, residues, added, removed)
    if not (got == listed == got and got.to_json() == listed.to_json()):
        found.append(f"differs from the listing {listed}")
    m = listed.modulus  # make's minimal period
    own = [x for x in range(m) if truth[base + x]]
    if hash(got) != hash((m, len(own), sum(own) % m, frozenset(added), frozenset(removed))):
        found.append(f"hash differs from that of the listing {listed}")
    return found


def periodic_case(a, b, divisors) -> list:
    """Mismatches of ~, &, |, a composite that meets a complemented product,
    divisibility_union and up_closure, each against `periodic_mismatches`."""
    top, ab, d = max(a.max_edit(), b.max_edit()), lcm(a.modulus, b.modulus), lcm(*divisors)
    multiple = lambda n: any(n % x == 0 for x in divisors)
    checks = (
        ("~a", ~a, a.modulus, lambda n: n not in a),
        ("a & b", a & b, ab, lambda n: n in a and n in b),
        ("a | b", a | b, ab, lambda n: n in a or n in b),
        ("(a | b) & ~a", (a | b) & ~a, ab, lambda n: n in b and n not in a),
        ("divisibility_union", periodic_sets.divisibility_union(divisors), d, multiple),
        ("up_closure", lattice.up_closure(divisors), d, lambda n: n > 0 and multiple(n)),
    )
    return [
        f"a={a} b={b} divisors={sorted(divisors)}: {name}: {bad}"
        for name, got, period, want in checks
        for bad in periodic_mismatches(got, period, top, want)
    ]


def fip_scan(members):
    """Decide infinitude of the common intersection by scanning for a
    common element beyond all edits within 3 periods."""
    members = list(members)
    if not members:
        return True
    period = lcm(*(s.modulus for s in members))
    top = max(s.max_edit() for s in members)
    hi = 3 * period + top
    base = min(members, key=lambda s: len(s.residues) * (period // s.modulus))
    for r in sorted(base.residues):
        n = r if r > top else r + ((top - r) // base.modulus + 1) * base.modulus
        while n <= hi:
            if all(n in s for s in members):
                return True
            n += base.modulus
    return False


# -- case generators ----------------------------------------------------------


def _random_congruences(rng):
    k = rng.randint(1, 3)
    return [crt.Congruence(rng.randint(1, 30), rng.randint(-60, 60)) for _ in range(k)]


def _random_pure_set(rng):
    if rng.random() < 0.3:
        # upward-closed positives: unions of multiple-sets with period | 36
        els = rng.sample((2, 3, 4, 6, 9, 12, 18, 36), rng.randint(1, 3))
        return periodic_sets.divisibility_union(els)
    m = rng.randint(1, 36)
    density = rng.random()
    residues = {r for r in range(m) if rng.random() < density}
    return periodic_sets.make(m, residues)


def _random_member(rng, m=None, least=1):
    """make() of a random set mod m (default 2..24), with at least `least`
    residues and, a quarter of the time each, additions and removals below 61."""
    m = rng.randint(2, 24) if m is None else m
    residues = set(rng.sample(range(m), rng.randint(least, m)))
    added, removed = set(), set()
    if rng.random() < 0.25:
        added = {rng.randint(0, 60) for _ in range(rng.randint(1, 2))}
    if rng.random() < 0.25:
        removed = {rng.randint(0, 60) for _ in range(rng.randint(1, 2))} - added
    return periodic_sets.make(m, residues, added, removed)


def _random_chain(rng, p, depth, first_nonzero):
    chain, value = [], 0
    for n in range(1, depth + 1):
        digit = 0 if n < first_nonzero else rng.randint(1 if n == first_nonzero else 0, p - 1)
        value += digit * p ** (n - 1)
        chain.append(value)
    return tuple(chain)


def random_antichain_spec(rng, last):
    # one spec in four has 2 chains and 3-4 divisors, so build merges a divisor past the chains' steps
    wide = rng.random() < 0.25
    chain_primes = rng.sample((3, 5, 7, 11, 13), 2 if wide else rng.randint(2, 4))
    divisor_primes = rng.sample((2, 17, 19, 23), rng.randint(3, 4) if wide else rng.randint(1, 2))
    chains = []
    for p in chain_primes:
        first = rng.randint(1, 2)
        chains.append((p, _random_chain(rng, p, first + last, first)))
    return antichain.AntichainSpec(tuple(chains), tuple(divisor_primes))


# -- suites -------------------------------------------------------------------


def _crt_suite(rng, cases):
    for _ in range(cases):
        cs = _random_congruences(rng)
        got = crt.solve_system(cs)
        want = scan_system(cs)
        found = []
        if (got is None) != (want is None) or (got is not None and (got.modulus, got.residue) != want):
            found.append(f"{cs}: solver {got} vs scan {want}")
        shuffled = list(cs)
        rng.shuffle(shuffled)
        stream = crt.FeasibilityStream()
        for c in shuffled:
            stream.push(c)
        if stream.state != got:
            found.append(f"{cs}: stream {stream.state} vs batch {got}")
        yield found


def _geom_suite(rng, cases):
    for p in _GEOM_PRIMES:
        family = orbit_family(p)
        listed = geometry.enumerate_geometric(p)
        # one case per set of either family, so equal families add no case
        for s in sorted(family.keys() | listed, key=sorted):
            d = geometry.is_geometric(p, s)
            if s not in family or s not in listed:
                yield [f"p={p} {sorted(s)}: enumerate_geometric vs orbit_family"]
            elif d is None:
                yield [f"p={p} {sorted(s)}: family member not recognized"]
            elif geometry.expand(d) != s or (d.seed, d.ratio) != family[s]:
                yield [f"p={p} {sorted(s)}: descriptor mismatch {d} vs {family[s]}"]
            else:
                yield []
        for _ in range(cases):
            s = frozenset(rng.sample(range(p), rng.randint(1, p)))
            d = geometry.is_geometric(p, s)
            if (d is not None) != (s in family):
                yield [f"p={p} {sorted(s)}: recognizer vs enumeration"]
            elif d is not None and geometry.expand(d) != s:
                yield [f"p={p} {sorted(s)}: expansion mismatch"]
            else:
                yield []


def _upward_suite(rng, cases):
    for _ in range(cases):
        s = _random_pure_set(rng)
        got = lattice.is_upward_closed(s)
        want = upward_scan(s)
        yield [] if got == want else [f"{s}: criterion {got} vs scan {want}"]


def _fip_suite(rng, cases):
    for _ in range(cases):
        members = [_random_member(rng) for _ in range(rng.randint(1, 5))]
        got = filter_lab.has_fip(members)
        want = fip_scan(members)
        if got != want:
            yield [f"{members}: has_fip {got} vs scan {want}"]
        elif got:
            base = filter_lab.FilterBase(tuple(members))
            empty = next((m for m in range(2, 31) if not filter_lab.feasible_residues(base, m)), None)
            yield [] if empty is None else [f"{members}: no feasible residue mod {empty}"]
        else:
            yield []


def _periodic_suite(rng, cases):
    for _ in range(cases):
        a = _random_member(rng, rng.randint(1, 36), 0)
        # about a third of the pairs have coprime moduli
        coprime_to = a.modulus if rng.random() < 1 / 3 else 1
        b = _random_member(rng, rng.choice([k for k in range(1, 37) if gcd(k, coprime_to) == 1]), 0)
        yield periodic_case(a, b, rng.sample(range(1, 13), rng.randint(1, 3)))


def _antichain_suite(rng, cases):
    for case in range(cases):
        # one case in ten runs past the chains' own steps, where build lifts each step from the last
        last = rng.randint(20, 60) if case % 10 == 9 else rng.randint(1, 4)
        spec = random_antichain_spec(rng, last)
        values = antichain.build(spec, last)
        found = []
        if values != antichain.build(spec, last):
            found.append(f"{spec}: build is not deterministic")
        report = antichain.verify(values, spec)
        if not report.ok:
            yield found + [f"{spec}: verify failed {report.failures}"]
            continue
        for index in range(1, last + 1):
            system = antichain.step_congruences(spec, index)
            period = lcm(*(c.modulus for c in system))
            # the solutions are one class mod the period: the one in (previous, previous + period] is least
            x, previous = values[index], values[index - 1]
            if not (all(c.satisfied_by(x) for c in system) and previous < x <= previous + period):
                found.append(f"{spec}: element {index} is not the least solution above element {index - 1}")
            if period > 10**6:
                continue
            # every integer in between; the first congruence alone rules most of them out
            (m0, r0), *rest = [(c.modulus, c.residue) for c in system]
            for y in range(previous + 1, x):
                if y % m0 == r0 and all(y % m == r for m, r in rest):
                    found.append(f"{spec}: element {index} not least ({y} works)")
                    break
        yield found


def _dlog_prime(rng, index):
    """The suite's prime for case `index`: the fixed ones first, then by turns a
    prime up to 10^4, one up to 10^7 and one with p - 1 a product of primes <= 47,
    but every twentieth case a safe prime 2q + 1 with q in 2^24..2^36, whose digit mod
    q goes by baby-step giant-step below the point near q = 2^27 where `dlog`'s
    predicted costs cross and by index calculus, on a factor-base system of its own,
    above it (such a case costs about as much as twenty others, half of it certifying q
    by trial division)."""
    if index < len(_DLOG_PRIMES):
        return _DLOG_PRIMES[index]
    kind = 3 if index % 20 == 19 else index % 3  # so that 20 cases reach one
    while True:
        if kind == 0:
            p = rng.randint(2, _DLOG_SCAN_BOUND)
        elif kind == 1:
            p = rng.randint(_DLOG_SCAN_BOUND + 1, 10**7)
        elif kind == 2:
            p = 2 * prod(rng.choice(_GEOM_PRIMES + (37, 41, 43, 47)) for _ in range(rng.randint(3, 10))) + 1
        else:
            bits = rng.randint(25, 36)  # log-uniform: certifying q by trial division takes sqrt(q)
            q = rng.randrange(2 ** (bits - 1) + 1, 2**bits, 2)
            p = 2 * q + 1 if primes.is_prime(q) else 0
        if (kind == 0 or p > _DLOG_SCAN_BOUND) and primes.is_prime(p):
            return p


def _dlog_scan(rng, p):
    """discrete_log, multiplicative_order and exponent_offsets against the powers of
    the base and of the least g whose powers reach all of 1..p-1."""
    base = rng.randrange(1, p)
    logs = power_logs(p, base)
    found = []
    if geometry.multiplicative_order(p, base) != len(logs):
        found.append(f"multiplicative_order({p}, {base}) vs scan {len(logs)}")
    for x in {1, *rng.sample(range(1, p), min(p - 1, 20))}:
        if geometry.discrete_log(p, base, x) != logs.get(x):
            found.append(f"discrete_log({p}, {base}, {x}) vs scan {logs.get(x)}")
    root_logs = next(logs for g in range(1, p) if len(logs := power_logs(p, g)) == p - 1)
    s = rng.sample(range(1, p), rng.randint(1, min(p - 1, 50)))
    ks = sorted(root_logs[x] for x in s)
    got = geometry.exponent_offsets(p, s)
    if (got.base_exponent, got.offsets) != (ks[0], tuple(k - ks[0] for k in ks[1:])):
        found.append(f"exponent_offsets({p}, {sorted(s)}) vs scan")
    return found


def _dlog_certify(rng, p):
    """discrete_log, multiplicative_order and exponent_offsets certified by pow,
    with the primes of p - 1 found by trial division; g the least generator."""
    qs = trial_primes(p - 1)
    base = rng.randrange(1, p)
    t = geometry.multiplicative_order(p, base)
    if (p - 1) % t or pow(base, t, p) != 1 or any(pow(base, t // q, p) == 1 for q in qs if t % q == 0):
        return [f"multiplicative_order({p}, {base}) = {t} is not the order"]
    found = []
    # <base> = {z : z^t = 1}, and the log of a member is unique in [1, t]
    for x in (pow(base, rng.randint(1, t), p), rng.randrange(1, p)):
        k = geometry.discrete_log(p, base, x)
        if not (pow(x, t, p) != 1 if k is None else 1 <= k <= t and pow(base, k, p) == x):
            found.append(f"discrete_log({p}, {base}, {x}) = {k}")
    g = geometry.primitive_root(p)
    s = {rng.randrange(1, p) for _ in range(rng.randint(1, 20))}
    got = geometry.exponent_offsets(p, s)
    ks = [got.base_exponent, *(got.base_exponent + k for k in got.offsets)]
    generates = [all(pow(h, (p - 1) // q, p) != 1 for q in qs) for h in range(1, g + 1)]
    least = generates[-1] and not any(generates[:-1])
    if not (least and len(ks) == len(s) and 1 <= ks[0] and ks[-1] < p and {pow(g, k, p) for k in ks} == s):
        found.append(f"exponent_offsets({p}, {sorted(s)}) = {got}")
    return found


def _dlog_suite(rng, cases):
    """`geometry`'s discrete logs, which `dlog` takes, at the primes of `_dlog_prime`."""
    for index in range(cases):
        p = _dlog_prime(rng, index)
        yield (_dlog_scan if p <= _DLOG_SCAN_BOUND else _dlog_certify)(rng, p)


def _prime_above_2_10(rng):
    """A random prime in (2^10, 2^11), tested by trial division."""
    while True:
        p = rng.randrange(1025, 2048, 2)
        if trial_primes(p) == [p]:
            return p


def _divisors_suite(rng, cases):
    for _ in range(cases):
        els = []
        for _ in range(rng.randint(1, 4)):  # about half of them multiples of an earlier one
            x = rng.choice(els) if els and rng.random() < 0.5 else 1
            els.append(x * rng.randint(1, 500 // x))
        if rng.random() < 0.5:  # trial division leaves the product of the two primes to rho
            els.append(rng.choice(els) * _prime_above_2_10(rng) * _prime_above_2_10(rng))
        els = sorted(set(els))
        divisors = [z for y in els for z in scan_divisors(y)]
        hull = sorted({z for z in divisors if any(z % x == 0 for x in els)})
        found = []
        checks = (("down_closure", sorted(set(divisors))), ("convex_hull", hull), ("is_convex", hull == els))
        for name, want in checks:
            try:  # every element is within the default budget, so a refusal is a mismatch too
                got = getattr(lattice, name)(els)
            except primes.FactorizationBudgetError:
                got = None
            if got != want:
                found.append(f"{name}({els}): {got} vs scan")
        yield found


def _exponents(factors) -> dict:
    return dict(sorted(Counter(factors).items()))


def _factorization(n, trial_bound=primes.DEFAULT_TRIAL_BUDGET):
    """factorize(n, trial_bound), or None for a budget refusal."""
    try:
        return primes.factorize(n, trial_bound)
    except primes.FactorizationBudgetError:
        return None


def _primes_suite(rng, cases):
    spf = least_prime_factors(_SIEVE_BOUND)
    for n, factors, must_split in _PRIMES_REGRESSIONS:
        got, want = _factorization(n), _exponents(factors)
        found = []
        if got != want and (got is not None or must_split):
            found.append(f"factorize({n}): {got} vs {want}")
        if primes.is_prime(n) != (len(factors) == 1):
            found.append(f"is_prime({n}) is wrong")
        yield found
    for n, trial_bound in _PRIMES_REFUSALS:
        got = _factorization(n, trial_bound)
        yield [] if got is None else [f"factorize({n}, {trial_bound}) = {got} within the budget"]
    for _ in range(cases):
        n = rng.randint(1, _SIEVE_BOUND)
        # primes above 2^10 leave their product to rho
        ps = []
        for _ in range(rng.randint(2, 3)):
            p = rng.randint(1 << 10, _SIEVE_BOUND)
            while spf[p] != p:
                p -= 1
            ps.append(p)
        found, product = [], prod(ps)
        for m, want in ((n, _exponents(sieve_factors(n, spf))), (product, _exponents(ps))):
            got = _factorization(m)
            if got != want:
                found.append(f"factorize({m}): {got} vs {want}")
        if primes.is_prime(n) != (n > 1 and spf[n] == n):
            found.append(f"is_prime({n}) disagrees with the sieve")
        # products of 2-3 primes above 2^10 reach witness bands 2-9, which the sieve does not
        if primes.is_prime(product):
            found.append(f"is_prime({product}) accepts a product of {len(ps)} primes")
        yield found


SUITES = {
    "crt": (_crt_suite, 10_000),
    "geom": (_geom_suite, 10_000),
    "upward": (_upward_suite, 1_000),
    "fip": (_fip_suite, 1_000),
    "antichain": (_antichain_suite, 100),
    "primes": (_primes_suite, 1_000),
    "periodic": (_periodic_suite, 1_000),
    "dlog": (_dlog_suite, 500),
    "divisors": (_divisors_suite, 500),
}


def run_suite(suite: str, seed: int = DEFAULT_SEED, budget_s=None, cases=None) -> dict:
    """Run one suite; the report lists cases run, mismatches and wall time.

    `cases` scales the random portion (per prime for geom; primes adds its
    fixed regression cases).  Deterministic given the seed; the budget is
    checked before every case, and if it is hit the run stops early and the
    report says so.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    fn, default_cases = SUITES[suite]
    n = default_cases if cases is None else strict_int(json_int(cases, "cases"), "cases", 0)
    if budget_s is not None and not (type(budget_s) in (int, float) and 0 <= budget_s < inf):  # NaN fails too
        raise ValueError(f"budget_s must be a finite number of seconds >= 0, got {budget_s!r}")
    start = time.perf_counter()
    deadline = None if budget_s is None else start + budget_s
    checks = fn(random.Random(seed), n)
    mismatches = []
    cases_run = 0
    while not (exceeded := deadline is not None and time.perf_counter() >= deadline):
        found = next(checks, None)
        if found is None:
            break
        cases_run += 1
        mismatches.extend(found)
    wall = time.perf_counter() - start
    return {
        "suite": suite,
        "seed": seed,
        "cases": n,
        "cases_run": cases_run,
        "mismatches": len(mismatches),
        "mismatch_examples": mismatches[:5],
        "budget_exceeded": exceeded,
        "wall_time_s": round(wall, 3),
    }
