"""Geometric sets of residues modulo a prime.

A subset S of Z_p is geometric when S = {seed * ratio^k mod p : k >= 1}
for some seed and ratio.  For a nonzero seed this orbit is the full coset
seed * <ratio> of the cyclic subgroup generated by the ratio.  As Z_p* is
cyclic, its only subgroup of order l | p - 1 is H_l = {z : z^l = 1}, so a
zero-free S is geometric iff l = |S| divides p - 1 and S * r = S for a
generator r of H_l: a union of cosets of <r> = H_l with l elements is one
coset, and each coset is closed under r.  Recognition and enumeration work
from this criterion and take no discrete logarithms; only the
exponent-offset views do.

Residue sets are passed as (p, S) with S any iterable of residues.  Every
integer argument is checked by `primes.strict_int`, range included, a set's
residues by `primes.strict_ints` and p by `primes.strict_prime`, like those
of the rest of the library.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, log, prod

from .primes import (Record, _check_coprime, _factorize, _TRIAL_PRIMES, is_prime, strict_int, strict_ints,
                     strict_prime)

# Each digit mod a prime q of ord(base) goes by the cheaper route in baby steps (x86_64, Python 3.11):
# baby-step giant-step, sqrt(2 q e targets), or, for q ∥ p - 1, index calculus, _IC_STEP_COST (a walk
# step) * rho(u)^-2 (steps per relation; measured 0.83-1.64x that at 24 to 50 bits) * (|fb| + _IC_SLACK
# + targets + 1) + |fb|^3 / 3; a walk that runs out costs one more baby-step giant-step at most.  A walk
# uses _IC_WALK powers of g; _IC_SYSTEMS systems (p, q) are kept; _RHO holds Dickman's rho(j / _RHO_STEPS),
# 1 - ln u up to 2, then u rho(u) = its integral over [u - 1, u] (as rho'(u) = -rho(u - 1) / u) by trapezoids.
_IC_STEP_COST = 16
_IC_SLACK = 8
_IC_WALK = 16
_IC_SYSTEMS = 32
_RHO_STEPS = 64
_RHO = [1.0] * _RHO_STEPS + [1 - log(j / _RHO_STEPS) for j in range(_RHO_STEPS, 2 * _RHO_STEPS + 1)]


class GeometricDescriptor(Record):
    __slots__ = _fields = ("p", "seed", "ratio")

    def __init__(self, p: int, seed: int, ratio: int):
        object.__setattr__(self, "p", strict_prime(p, "p"))
        object.__setattr__(self, "seed", strict_int(seed, "seed", 0, p))
        object.__setattr__(self, "ratio", strict_int(ratio, "ratio", 1, p))


# discrete-log data of a zero-free residue set: its least exponent, and the others less it, ascending
ExponentOffsets = namedtuple("ExponentOffsets", "base_exponent offsets")


class StructureReport(namedtuple("StructureReport", "gcd_closed multiples_closed arithmetic_progression")):
    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        return self.gcd_closed and self.multiples_closed and self.arithmetic_progression


def expand(descriptor: GeometricDescriptor) -> frozenset:
    """The orbit {seed * ratio^k mod p : k >= 1}.

    For seed != 0 this equals the coset seed * <ratio> and contains the
    seed itself; for seed 0 it is {0}.
    """
    p, ratio = descriptor.p, descriptor.ratio
    out = set()
    x = descriptor.seed * ratio % p
    while x not in out:
        out.add(x)
        x = x * ratio % p
    return frozenset(out)


def primitive_root(p: int) -> int:
    """Least generator of the multiplicative group modulo p."""
    strict_prime(p, "p")
    return _generator(p, p - 1, _factorize(p - 1), range(1, p))


def _generator(p: int, n: int, primes, candidates) -> int:
    """The first candidate c with c^(n/q) != 1 (mod p) for each prime q | n: of order n if c^n = 1."""
    return next(c for c in candidates if all(pow(c, n // q, p) != 1 for q in primes))


def multiplicative_order(p: int, a: int) -> int:
    """Least t >= 1 with a^t = 1 (mod p)."""
    strict_prime(p, "p")
    strict_int(a, "a", 1, p)
    return _order(p, a, _factorize(p - 1))[0]


def _order(p: int, a: int, factors: dict) -> tuple:
    """(ord(a), {q: e} with ord(a) the product of q^e), from {q: e} of p - 1."""
    t, out = p - 1, dict(factors)
    for q in factors:
        while out[q] and pow(a, t // q, p) == 1:
            t, out[q] = t // q, out[q] - 1
    return t, {q: e for q, e in out.items() if e}


def discrete_log(p: int, base: int, x: int) -> int | None:
    """Least k >= 1 with base^k = x (mod p), or None if x is not a power of base."""
    strict_prime(p, "p")
    strict_int(base, "base", 1, p)
    strict_int(x, "x", 1, p)
    n, factors = _order(p, base, _factorize(p - 1))
    if pow(x, n, p) != 1:
        return None  # <base> is exactly {z : z^n = 1}
    return _logs(p, base, n, factors, (x,))[x]


def _logs(p: int, base: int, n: int, factors: dict, targets) -> dict:
    """{t: least k >= 1 with base^k = t (mod p)} for targets in <base>, where
    n = ord(base) is the product of q^e over factors = {q: e}.

    Pohlig-Hellman: k mod q^e is found for each q^e in the subgroup of order q.  Where q ∥ p - 1
    and `_ic_cost` is below baby-step giant-step's sqrt(2 q e targets), by `_index_calculus`,
    factor-base logs kept per (p, q) and one descent per target; else, or should that system have
    given up, a descent run out of steps or a digit fail its check, by `_baby_giant`, O(e sqrt(q))
    for one target.  The residues mod the coprime q^e sum to k mod n; k = 0 (t = 1) becomes n.
    """
    ks = dict.fromkeys(targets, 0)
    for q, e in factors.items():
        c = n // q**e
        unit = c * pow(c, -1, q**e)  # 1 mod q^e and 0 mod n / q^e
        # q ∥ p - 1, which also makes e = 1: without it the relations would not fix logs mod q
        by_ic = (p - 1) % (q * q) and _ic_cost(p, len(ks)) < isqrt(2 * q * e * len(ks))
        digits = _index_calculus(p, base, q, c, ks) if by_ic else None
        for t, r in (digits or _baby_giant(p, base, q, e, c, ks)).items():
            ks[t] += r * unit
    return {t: k % n or n for t, k in ks.items()}


def _baby_giant(p: int, base: int, q: int, e: int, c: int, targets) -> dict:
    """{t: k mod q^e} with base^k = t, c = ord(base) / q^e: the e base-q digits are logs to
    h = base^(c q^(e-1)), of order q, by baby-step giant-step from one table {h^j: j} for
    every digit and target, of m = sqrt(q * searches / 2) powers (a search stops halfway, an
    insert costs more than a lookup).  O(e * sqrt(q)) for one target.
    """
    h = pow(base, c * q ** (e - 1), p)
    m = min(q, isqrt(q * e * len(targets) // 2) + 1)
    baby, val = {}, 1
    for baby[val] in range(m):  # the loop target stores j under h^j
        val = val * h % p
    inverse = pow(base, -c, p) if e > 1 else 1  # e = 1: no digits to strip
    giant, out = pow(h, -m, p), {}
    for t in targets:
        y, r = pow(t, c, p), 0  # y = (base^c)^(k mod q^e); r holds the digits below i
        for i in range(e):
            gamma, d = pow(y * pow(inverse, r, p), q ** (e - 1 - i), p), 0  # h^(digit i)
            while gamma not in baby:
                gamma, d = gamma * giant % p, d + m
            r += (d + baby[gamma]) * q**i
        out[t] = r
    return out


def _index_calculus(p: int, base: int, q: int, c: int, targets) -> dict | None:
    """{t: k mod q} with base^k = t, for a prime q with q ∥ p - 1 and c = ord(base) / q, or
    None when p's system gave up, a descent runs out of steps or a digit fails its check.

    Logs are to π(g), of order q, with π(z) = z^((p - 1) / q) and g and the logs of the
    factor base from `_ic_system(p, q)`.  base and each target are descended once: the first
    z = t * g^x on a walk over the system's powers of g whose ratio has only solved primes
    gives log t, and the digit of t is log t / log base mod q, where log base != 0 as q
    divides ord(base).  The descents share isqrt(q * targets) // _IC_STEP_COST steps.  Each
    digit d is checked by (base^c)^d = t^c before it is used.
    """
    if (system := _ic_system(p, q)) is None:
        return None
    fb, smooth, root, walk, logs = system
    steps, out = isqrt(q * len(targets)) // _IC_STEP_COST, {}
    unsolved = [i for i in range(len(fb)) if i not in logs]
    for t in dict.fromkeys((base, *targets)):  # base first, and once
        z, x = t, 0  # z = t * g^x
        while (v := _ratio(p, z, fb, smooth, root)) is None or any(v[i] for i in unsolved):
            if not steps:
                return None
            (w, s), steps = walk[z % _IC_WALK], steps - 1
            z, x = z * w % p, x + s
        out[t] = (sum(k * logs[i] for i, k in enumerate(v) if k) - x) % q
    h, inverse = pow(base, c, p), pow(out[base] or 1, -1, q)  # log base is 0 only if logs are wrong
    digits = {t: out[t] * inverse % q for t in targets}
    return None if any(pow(h, d, p) != pow(t, c, p) for t, d in digits.items()) else digits


@lru_cache(maxsize=_IC_SYSTEMS)
def _ic_system(p: int, q: int) -> tuple | None:
    """(fb, prod(fb), isqrt(p), walk, logs) for the prime q ∥ p - 1, or None when the walk
    gave up: the factor base fb, the _IC_WALK pairs (g^s, s) and {index in fb: log mod q of
    π(that prime) to π(g)}, where g is the least x >= 2 with π(x) = x^((p - 1) / q) != 1, so
    π(g) generates the subgroup of order q and π(-1) = 1.

    A walk z = g^x multiplies z by one of the powers w = g^s, picked by z mod _IC_WALK, with
    s = isqrt(l * p) for the first primes l, near irrational multiples of sqrt(p), so two
    stretches of the walk seldom add up to a third; on the powers of one w they often do,
    and many relations are then sums of earlier ones.  A z whose ratio (see `_ratio`) is
    fb-smooth gives one linear relation mod q among the logs of fb, all solved by Gaussian
    elimination.  The walk has isqrt(q) // _IC_STEP_COST steps, one target's fallback, and gives
    up when they run out, at a cost of at most that fallback once per (p, q); for one target
    `_logs` calls it only where `_ic_cost` is lower, and 0 of 40 safe primes near 10^9 gave up.
    """
    g = _generator(p, p - 1, (q,), range(2, p))
    fb = _TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, _factor_bound(p))]
    smooth, root = prod(fb), isqrt(p)
    walk = [(pow(g, s, p), s) for s in (isqrt(l * p) for l in _TRIAL_PRIMES[:_IC_WALK])]
    steps = isqrt(q) // _IC_STEP_COST
    rows, z, x, need = [], 1, 0, len(fb) + _IC_SLACK  # z = g^x
    while len(rows) < need:
        if not steps:
            return None
        (w, s), steps = walk[z % _IC_WALK], steps - 1
        z, x = z * w % p, x + s
        if (v := _ratio(p, z, fb, smooth, root)) is not None:
            rows.append([x % q, *v])
    return fb, smooth, root, walk, _solve_mod(rows, len(fb), q)


def _ratio(p: int, z: int, fb, smooth: int, root: int) -> list | None:
    """Exponents over fb of a / b, where z = +-a/b (mod p) with a, b <= root = isqrt(p), or None
    if a or b has a prime past fb: a is the first remainder of Euclid on (p, z) below root,
    each of which is +-b * z (mod p) with b <= p / the remainder before it, and b = +-a / z."""
    r0, a = p, z
    while a > root:
        r0, a = a, r0 % a
    if pow(smooth, a.bit_length(), a):  # a has a prime past fb: fb^bits is not 0 mod a
        return None
    b = a * pow(z, -1, p) % p
    b = min(b, p - b)
    if pow(smooth, b.bit_length(), b):
        return None
    v = []
    for l in fb:
        k = 0
        while a % l == 0:
            a, k = a // l, k + 1
        while b % l == 0:
            b, k = b // l, k - 1
        v.append(k)
    return v


def _ic_cost(p: int, targets: int) -> float:
    """Predicted cost of index calculus at p in baby steps (see the constants); inf from u = 100 on."""
    i = round(min(log(p) / 2 / log(bound := _factor_bound(p)), 100) * _RHO_STEPS)  # u = ln sqrt(p) / ln B
    while len(_RHO) <= i:
        _RHO.append((_RHO[-_RHO_STEPS] / 2 + sum(_RHO[1 - _RHO_STEPS :])) / (len(_RHO) - 0.5))
    fb = bisect_right(_TRIAL_PRIMES, bound)
    return _IC_STEP_COST * (fb + _IC_SLACK + targets + 1) / _RHO[i] / _RHO[i] + fb**3 / 3


def _factor_bound(p: int) -> int:
    """B(p), the factor base's bound: 2^((bits of p + 22) / 8), and 2^10 from 58 bits on."""
    return round(2 ** ((min(p.bit_length(), 58) + 22) / 8))


def _solve_mod(rows: list, width: int, q: int) -> dict:
    """{column: value} for each column whose value the linear system fixes mod the prime q; a row
    is its right-hand side, then `width` coefficients.  Gaussian elimination from the last
    column, the rarest prime, which keeps the rows sparse and leaves each pivot row 0 past its
    column, then back substitution, which leaves out a column that stays free or whose row
    holds one."""
    pivots = []
    for col in reversed(range(width)):
        rank = len(pivots)
        at = next((i for i in range(rank, len(rows)) if rows[i][col + 1] % q), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        inv = pow(rows[rank][col + 1], -1, q)
        pivot = rows[rank][: col + 2] = [a * inv % q for a in rows[rank][: col + 2]]
        for row in rows[rank + 1 :]:
            if f := row[col + 1] % q:
                row[: col + 2] = [(a - f * b) % q for a, b in zip(row, pivot)]
        pivots.append(col)
    values = {}
    for col, row in zip(reversed(pivots), reversed(rows[: len(pivots)])):  # the later pivots first
        others = [j for j in range(col) if row[j + 1]]
        if all(j in values for j in others):
            values[col] = (row[0] - sum(row[j + 1] * values[j] for j in others)) % q
    return values


def exponent_offsets(p: int, residues: Iterable) -> ExponentOffsets:
    """Exponent structure of a residue set not containing 0."""
    strict_prime(p, "p")
    s = strict_ints(residues, "residue", 0, p)
    if not s:
        raise ValueError("residue set must be nonempty")
    if 0 in s:
        raise ValueError("exponent offsets are undefined when 0 is in the set")
    factors = _factorize(p - 1)  # the base, the least primitive root, has order p - 1
    ks = sorted(_logs(p, _generator(p, p - 1, factors, range(1, p)), p - 1, factors, s).values())
    return ExponentOffsets(ks[0], tuple(k - ks[0] for k in ks[1:]))


def structure_check(p: int, residues: Iterable) -> StructureReport:
    """Check the exponent-offset structure of a zero-free residue set.

    gcd_closed: offsets closed under pairwise gcd.  multiples_closed:
    every multiple of the least offset lands back on an offset (offset 0,
    the base element itself, counts as satisfied).  arithmetic_progression:
    the offsets are exactly 1..(l-1) times the least offset.  All three
    hold for every geometric set; no converse is claimed per property.
    """
    off = exponent_offsets(p, residues).offsets
    if not off:
        return StructureReport(True, True, True)
    rset, r1 = set(off), off[0]
    gcd_closed = all(gcd(a, b) in rset for a in off for b in off)
    # the multiples of r1 modulo p-1 are those of g = gcd(r1, p-1): 0, g, 2g, ...
    g = gcd(r1, p - 1)
    multiples_closed = all(k in rset for k in range(g, p - 1, g))
    ap = list(off) == [i * r1 for i in range(1, len(off) + 1)]
    return StructureReport(gcd_closed, multiples_closed, ap)


def is_geometric(p: int, residues: Iterable) -> GeometricDescriptor | None:
    """Recognize a geometric set; returns the lexicographically least
    (seed, ratio) descriptor, or None.

    One multiplication per residue, no logarithms: a zero-free S of size l
    is geometric iff l | p - 1 and S * r = S, r the least generator of H_l.
    S * r = S makes S a union of cosets of <r> = H_l, so, as |S| = l, one
    coset; every coset is closed under r.  Any element of S seeds the orbit,
    so the least seed is min(S), and the least ratio generating H_l is r.
    """
    strict_prime(p, "p")
    s = strict_ints(residues, "residue", 0, p)
    if not s:
        raise ValueError("residue set must be nonempty")
    if s == {0}:
        return GeometricDescriptor(p, 0, 1)
    l = len(s)
    if 0 in s or (p - 1) % l:
        return None  # no orbit holds 0 and more; a coset of H_l needs l | p - 1
    r = _least_generator(p, l)
    if frozenset(x * r % p for x in s) != s:
        return None
    return GeometricDescriptor(p, min(s), r)


@lru_cache(maxsize=256)
def _least_generator(p: int, l: int) -> int:
    """Least generator of H_l, l | p - 1: h = x^((p - 1) / l) is in H_l, of order l
    for the first x checked against the primes of l alone (p - 1 is never
    factored), and the generators are h^k for k prime to l: O(l) steps once."""
    h = _generator(p, l, _factorize(l), (pow(x, (p - 1) // l, p) for x in range(1, p)))
    powers = accumulate(range(l - 1), lambda y, _: y * h % p, initial=h)  # h^1 .. h^l
    return min(y for k, y in enumerate(powers, 1) if gcd(k, l) == 1)


def enumerate_geometric(p: int) -> set:
    """The family of all geometric sets modulo p, as frozensets.

    These are {0} and, for each k | p - 1, the k cosets of H_((p-1)/k): with
    pw the powers g^0 .. g^(p-2) of the least primitive root g, H_((p-1)/k) is
    pw[0::k] and its cosets are the slices pw[i::k].  1 + sigma(p - 1) sets in all.
    """
    g = primitive_root(p)
    pw = list(accumulate(range(p - 2), lambda y, _: y * g % p, initial=1))  # g^0 .. g^(p-2)
    out = {frozenset((0,))}
    for k in range(1, p):
        if (p - 1) % k == 0:
            out.update(frozenset(pw[i::k]) for i in range(k))
    return out


def prime_in_progression(modulus: int, residue: int) -> int:
    """Least prime congruent to `residue` modulo `modulus` (requires
    gcd(modulus, residue) = 1, which guarantees one exists)."""
    strict_int(modulus, "modulus", 1)
    strict_int(residue, "residue", 0, modulus)
    _check_coprime(modulus, residue)
    x = residue
    while True:
        if x >= 2 and is_prime(x):
            return x
        x += modulus


def witness_class_set(p: int, seed_residue: int, ratio_residue: int, count: int) -> list:
    """First `count` numbers s * b^k where s, b are the least primes in the
    classes of seed_residue and ratio_residue modulo p.

    Every element is congruent modulo p to seed_residue * ratio_residue^k,
    so the residues run through the geometric orbit of (seed_residue,
    ratio_residue) taken from k = 0.
    """
    strict_prime(p, "p")
    strict_int(seed_residue, "seed residue", 1, p)
    strict_int(ratio_residue, "ratio residue", 1, p)
    strict_int(count, "count", 1)
    s, b = prime_in_progression(p, seed_residue), prime_in_progression(p, ratio_residue)
    return [s * b**k for k in range(count)]
