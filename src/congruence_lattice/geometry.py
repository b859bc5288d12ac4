"""Geometric sets of residues modulo a prime.

A subset S of Z_p is geometric when S = {seed * ratio^k mod p : k >= 1}
for some seed and ratio.  For a nonzero seed this orbit is the full coset
seed * <ratio> of the cyclic subgroup generated by the ratio, which gives
the recognizer below its structure: take discrete logarithms with respect
to a primitive root and check that the exponent offsets form an initial
segment of multiples of their minimum that wraps around the exponent group.

Residue sets are passed as (p, S) with S any iterable of residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Optional

from .primes import is_prime, prime_factors

_TABLE_LIMIT = 1 << 16  # precompute full dlog tables only for small p


@dataclass(frozen=True)
class GeometricDescriptor:
    p: int
    seed: int
    ratio: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not 0 <= self.seed < self.p:
            raise ValueError(f"seed {self.seed} out of range for p={self.p}")
        if not 0 < self.ratio < self.p:
            raise ValueError(f"ratio {self.ratio} out of range for p={self.p}")


@dataclass(frozen=True)
class ExponentOffsets:
    """Discrete-log data of a zero-free residue set.

    base_exponent is the least exponent over the set; offsets are the
    remaining exponents minus it, sorted ascending.
    """

    base_exponent: int
    offsets: tuple


@dataclass(frozen=True)
class StructureReport:
    gcd_closed: bool
    multiples_closed: bool
    arithmetic_progression: bool

    @property
    def all_hold(self) -> bool:
        return self.gcd_closed and self.multiples_closed and self.arithmetic_progression


def _check_residue_set(p: int, residues: Iterable) -> frozenset:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # check the residues as given, in one pass before the set is built:
    # building it first would merge True into an equal 1 unseen
    items = tuple(residues)
    for r in items:
        if type(r) is not int:
            raise ValueError(f"residue {r!r} is not an int")
        if not 0 <= r < p:
            raise ValueError(f"residue {r} out of range for p={p}")
    s = frozenset(items)
    if not s:
        raise ValueError("residue set must be nonempty")
    return s


def _orbit(p: int, seed: int, ratio: int) -> frozenset:
    if seed == 0:
        return frozenset((0,))
    out = set()
    x = seed * ratio % p
    while x not in out:
        out.add(x)
        x = x * ratio % p
    return frozenset(out)


def expand(descriptor: GeometricDescriptor) -> frozenset:
    """The orbit {seed * ratio^k mod p : k >= 1}.

    For seed != 0 this equals the coset seed * <ratio> and contains the
    seed itself; for seed 0 it is {0}.
    """
    return _orbit(descriptor.p, descriptor.seed, descriptor.ratio)


def primitive_root(p: int) -> int:
    """Least generator of the multiplicative group modulo p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise RuntimeError(f"no primitive root found for prime {p}")


def multiplicative_order(p: int, a: int) -> int:
    """Least t >= 1 with a^t = 1 (mod p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 < a < p:
        raise ValueError(f"{a} out of range for p={p}")
    t = p - 1
    for f in prime_factors(p - 1):
        while t % f == 0 and pow(a, t // f, p) == 1:
            t //= f
    return t


def discrete_log(p: int, base: int, x: int) -> Optional[int]:
    """Least k >= 1 with base^k = x (mod p), or None if x is not a power of base."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 < base < p or not 0 < x < p:
        raise ValueError(f"base/x out of range for p={p}")
    n = multiplicative_order(p, base)
    if pow(x, n, p) != 1:
        return None  # <base> is exactly {z : z^n = 1}
    if x == 1:
        return n
    # baby-step giant-step over the order of the base; ascending giant
    # steps with least-j baby entries yield the least exponent
    m = isqrt(n) + 1
    baby = {}
    val = 1
    for j in range(m):
        baby.setdefault(val, j)
        val = val * base % p
    giant = pow(base, -m, p)
    gamma = x
    for i in range(m + 1):
        if gamma in baby:
            k = i * m + baby[gamma]
            if 1 <= k <= n:
                return k
        gamma = gamma * giant % p
    return None


@lru_cache(maxsize=64)
def _index_table(p: int):
    """(primitive root q, {value: least k >= 1 with q^k = value})."""
    q = primitive_root(p)
    table = {}
    x = 1
    for k in range(1, p):
        x = x * q % p
        table.setdefault(x, k)
    return q, table


def _indices(p: int, residues) -> list:
    """Sorted least exponents of the given nonzero residues w.r.t. the
    cached primitive root."""
    if p <= _TABLE_LIMIT:
        _, table = _index_table(p)
        return sorted(table[r] for r in residues)
    q = primitive_root(p)
    return sorted(discrete_log(p, q, r) for r in residues)


def exponent_offsets(p: int, residues: Iterable) -> ExponentOffsets:
    """Exponent structure of a residue set not containing 0."""
    s = _check_residue_set(p, residues)
    if 0 in s:
        raise ValueError("exponent offsets are undefined when 0 is in the set")
    ks = _indices(p, s)
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

    Structure route: a zero-free S is geometric iff its sorted discrete
    logarithms form an arithmetic progression whose common difference d
    satisfies |S| * d = 0 (mod p-1); then S is the coset min(S) * <q^d>.
    """
    s = _check_residue_set(p, residues)
    if s == {0}:
        return GeometricDescriptor(p, 0, 1)
    if 0 in s:
        return None  # a nonzero seed never reaches 0, a zero seed stays there
    if len(s) == 1:
        return GeometricDescriptor(p, next(iter(s)), 1)
    ks = _indices(p, s)
    k0 = ks[0]
    offsets = [k - k0 for k in ks[1:]]
    r1 = offsets[0]
    l = len(s)
    if offsets != [i * r1 for i in range(1, l)]:
        return None
    if (l * r1) % (p - 1) != 0:
        return None
    q, _ = _index_table(p) if p <= _TABLE_LIMIT else (primitive_root(p), None)
    gen = pow(q, r1, p)
    subgroup = set()
    x = 1
    for _ in range(l):
        x = x * gen % p
        subgroup.add(x)
    ratio = min(h for h in subgroup if multiplicative_order(p, h) == l)
    return GeometricDescriptor(p, min(s), ratio)


def exhaustive_descriptor(p: int, residues: Iterable) -> Optional[GeometricDescriptor]:
    """Brute-force recognizer: try every (seed, ratio) pair in lexicographic
    order.  Kept deliberately independent of the structure route; used as
    the test oracle."""
    s = _check_residue_set(p, residues)
    for seed in range(p):
        for ratio in range(1, p):
            if _orbit(p, seed, ratio) == s:
                return GeometricDescriptor(p, seed, ratio)
    return None


def enumerate_geometric(p: int) -> set:
    """The family of all geometric sets modulo p, as frozensets."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = set()
    for seed in range(p):
        for ratio in range(1, p):
            out.add(_orbit(p, seed, ratio))
    return out


def prime_in_progression(modulus: int, residue: int) -> int:
    """Least prime congruent to `residue` modulo `modulus` (requires
    gcd(modulus, residue) = 1, which guarantees one exists)."""
    if not isinstance(modulus, int) or modulus < 1:
        raise ValueError(f"modulus must be a positive integer, got {modulus!r}")
    if not 0 <= residue < modulus:
        raise ValueError(f"residue {residue} out of range for modulus {modulus}")
    if gcd(modulus, residue) != 1:
        raise ValueError(f"gcd({modulus}, {residue}) = {gcd(modulus, residue)} != 1")
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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 < seed_residue < p or not 0 < ratio_residue < p:
        raise ValueError("seed and ratio residues must be in [1, p)")
    if count < 1:
        raise ValueError("count must be positive")
    s = prime_in_progression(p, seed_residue)
    b = prime_in_progression(p, ratio_residue)
    out = []
    val = s
    for _ in range(count):
        out.append(val)
        val *= b
    return out
