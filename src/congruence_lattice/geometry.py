"""Geometric sets of residues modulo a prime.

A subset S of Z_p is geometric when S = {seed * ratio^k mod p : k >= 1}
for some seed and ratio.  For a nonzero seed this orbit is the full coset
seed * <ratio> of the cyclic subgroup generated by the ratio.  As Z_p* is
cyclic, its only subgroup of order l | p - 1 is H_l = {z : z^l = 1}, so a
zero-free S is geometric iff l = |S| divides p - 1 and S * r = S for a
generator r of H_l: a union of cosets of <r> = H_l with l elements is one
coset, and each coset is closed under r.  Recognition and enumeration work
from this criterion and take no discrete logarithms; only the
exponent-offset views do, by `dlog`, which they import when called.

Residue sets are passed as (p, S) with S any iterable of residues.  Every
integer argument is checked by `primes.strict_int`, range included, a set's
residues by `primes.strict_ints` and p by `primes.strict_prime`, like those
of the rest of the library.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .primes import Record, _check_coprime, _factorize, is_prime, strict_int, strict_ints, strict_prime


class GeometricDescriptor(Record):
    __slots__ = _fields = ("p", "seed", "ratio")

    def __init__(self, p: int, seed: int, ratio: int):
        self._set(strict_prime(p, "p"), strict_int(seed, "seed", 0, p), strict_int(ratio, "ratio", 1, p))


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
    GeometricDescriptor._check((descriptor,), "descriptor")
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
    from .dlog import _logs  # on first use, so that recognition and enumeration load no log code
    return _logs(p, base, n, factors, (x,))[x]


def exponent_offsets(p: int, residues: Iterable) -> ExponentOffsets:
    """Exponent structure of a residue set not containing 0."""
    strict_prime(p, "p")
    s = strict_ints(residues, "residue", 0, p)
    if not s:
        raise ValueError("residue set must be nonempty")
    if 0 in s:
        raise ValueError("exponent offsets are undefined when 0 is in the set")
    from .dlog import _logs
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
