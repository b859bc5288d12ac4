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

from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt
from typing import Iterable, NamedTuple, Optional

from .primes import Record, _check_coprime, _factorize, is_prime, strict_int, strict_ints, strict_prime


class GeometricDescriptor(Record):
    __slots__ = _fields = ("p", "seed", "ratio")

    def __init__(self, p: int, seed: int, ratio: int):
        object.__setattr__(self, "p", strict_prime(p, "p"))
        object.__setattr__(self, "seed", strict_int(seed, "seed", 0, p))
        object.__setattr__(self, "ratio", strict_int(ratio, "ratio", 1, p))


class ExponentOffsets(NamedTuple):
    """Discrete-log data of a zero-free residue set.

    base_exponent is the least exponent over the set; offsets are the
    remaining exponents minus it, sorted ascending.
    """

    base_exponent: int
    offsets: tuple


class StructureReport(NamedTuple):
    gcd_closed: bool
    multiples_closed: bool
    arithmetic_progression: bool

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


def discrete_log(p: int, base: int, x: int) -> Optional[int]:
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

    Pohlig-Hellman, O(sum of e * sqrt(q)) for one target: the e base-q digits of
    k mod q^e are logs to h = base^(n/q), of order q, by baby-step giant-step
    from one table per q for every digit and target.  It holds about
    sqrt(q * searches / 2) baby steps: a search stops halfway on average, and
    a baby step (a dict insert) costs more than a giant step (a lookup).  The
    residues mod the coprime q^e sum to k mod n, and k = 0 (t = 1) becomes n.
    """
    ks = dict.fromkeys(targets, 0)
    for q, e in factors.items():
        c, h = n // q**e, pow(base, n // q, p)
        m = min(q, isqrt(q * e * len(ks) // 2) + 1)
        baby, val = {}, 1
        for j in range(m):
            baby[val] = j
            val = val * h % p
        giant, inverse = pow(h, -m, p), pow(base, -c, p)
        unit = c * pow(c, -1, q**e)  # 1 mod q^e and 0 mod n / q^e
        for t in ks:
            y, r = pow(t, c, p), 0  # y = (base^c)^(k mod q^e); r holds the digits below i
            for i in range(e):
                gamma, d = pow(y * pow(inverse, r, p), q ** (e - 1 - i), p), 0  # h^(digit i)
                while gamma not in baby:
                    gamma, d = gamma * giant % p, d + m
                r += (d + baby[gamma]) * q**i
            ks[t] += r * unit
    return {t: k % n or n for t, k in ks.items()}


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
    rset = set(off)
    r1 = off[0]
    gcd_closed = all(gcd(a, b) in rset for a in off for b in off)
    # the multiples of r1 modulo p-1 are those of g = gcd(r1, p-1): 0, g, 2g, ...
    g = gcd(r1, p - 1)
    multiples_closed = all(k in rset for k in range(g, p - 1, g))
    ap = list(off) == [i * r1 for i in range(1, len(off) + 1)]
    return StructureReport(gcd_closed, multiples_closed, ap)


def is_geometric(p: int, residues: Iterable) -> Optional[GeometricDescriptor]:
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

    These are {0} and, for each d | p - 1, the cosets of H_d: the fibres of
    x -> x^d on 1..p-1, whose kernel is H_d.  1 + sigma(p - 1) sets in all.
    """
    strict_prime(p, "p")
    out = {frozenset((0,))}
    for d in range(1, p):
        if (p - 1) % d == 0:
            fibres = {}
            for x in range(1, p):
                fibres.setdefault(pow(x, d, p), []).append(x)
            out.update(map(frozenset, fibres.values()))
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
    s = prime_in_progression(p, seed_residue)
    b = prime_in_progression(p, ratio_residue)
    return [s * b**k for k in range(count)]
