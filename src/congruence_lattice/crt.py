"""Congruence systems over arbitrary moduli.

General (non-coprime) moduli are merged through gcd compatibility and the
extended Euclidean algorithm; nothing is ever factored.  An unsolvable
system is a value (None), not an exception: feasibility testing is the
whole point.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .primes import Record, _shown, json_int, strict_int, strict_prime


class Congruence(Record):
    """The residue class x = residue (mod modulus), residue normalized: a single
    constraint, or the solved form of a system (one class modulo the lcm)."""

    __slots__ = _fields = ("modulus", "residue")

    def __init__(self, modulus: int, residue: int):
        object.__setattr__(self, "modulus", strict_int(modulus, "modulus", 1))
        object.__setattr__(self, "residue", strict_int(residue, "residue") % modulus)

    def satisfied_by(self, x: int) -> bool:
        return x % self.modulus == self.residue


SolutionClass = Congruence


def _merge(m1: int, r1: int, m2: int, r2: int):
    """Intersect two residue classes; None when they are disjoint."""
    g = gcd(m1, m2)
    if (r1 - r2) % g != 0:
        return None
    m = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return m, (r1 + m1 * t) % m


def solve_pair(c1, c2) -> Optional[Congruence]:
    """Merge two congruences into the class modulo lcm, or None if disjoint."""
    merged = _merge(c1.modulus, c1.residue, c2.modulus, c2.residue)
    return None if merged is None else Congruence(*merged)


def solve_system(congruences: Iterable) -> Optional[Congruence]:
    """Left-fold of solve_pair; the empty system solves to everything (1, 0)."""
    state = (1, 0)
    for c in congruences:
        state = _merge(state[0], state[1], c.modulus, c.residue)
        if state is None:
            return None
    return Congruence(*state)


class FeasibilityStream:
    """Accumulates congruences one at a time; infeasibility is sticky.

    Single-owner mutable state: after k pushes the state equals
    solve_system of those k congruences, in any push order.
    """

    def __init__(self):
        self._state: Optional[Congruence] = Congruence(1, 0)

    def push(self, congruence: Congruence) -> Optional[Congruence]:
        if self._state is not None:
            self._state = solve_pair(self._state, congruence)
        return self._state

    @property
    def state(self) -> Optional[Congruence]:
        return self._state

    @property
    def is_feasible(self) -> bool:
        return self._state is not None


class ZeroToDepth(NamedTuple):
    """All listed residues are 0: zero up to the inspected depth."""

    depth: int


class NonZero(NamedTuple):
    """First depth at which the residue chain leaves 0."""

    first_nonzero: int


def validate_chain_table(table: Mapping) -> dict:
    """Check a prime -> residue-chain table.

    For each prime p the chain lists residues modulo p, p^2, ... and
    consecutive entries must be congruent (each entry refines the previous
    one p-adically).  Returns a normalized {prime: tuple} dict.
    """
    if not isinstance(table, Mapping):
        raise ValueError(f"residue-chain table must be a mapping, got {type(table).__name__}")
    out = {}
    for p, chain in table.items():
        p = strict_prime(json_int(p, "chain prime"), "chain prime")
        if p in out:
            raise ValueError(f"prime {_shown(p)} listed twice")
        if not isinstance(chain, (list, tuple)):
            raise ValueError(f"residue chain for {_shown(p)} must be a list, got {_shown(chain)}")
        chain = tuple(json_int(r, "chain residue") for r in chain)
        if not chain:
            raise ValueError(f"empty residue chain for prime {_shown(p)}")
        power = 1
        prev = 0
        for depth, r in enumerate(chain, start=1):
            power *= p
            if not 0 <= r < power:
                raise ValueError(f"residue {_shown(r)} at depth {depth} out of range for {_shown(p)}^{depth}")
            if depth > 1 and r % (power // p) != prev:
                raise ValueError(
                    f"chain for {_shown(p)} inconsistent at depth {depth}: "
                    f"{_shown(r)} != {_shown(prev)} (mod {_shown(p)}^{depth - 1})"
                )
            prev = r
        out[p] = chain
    return out


def chain_support(chain) -> NonZero | ZeroToDepth:
    """NonZero at the least depth whose residue is nonzero, else ZeroToDepth of
    the chain's length (a chain as validate_chain_table returns it)."""
    for depth, r in enumerate(chain, start=1):
        if r != 0:
            return NonZero(depth)
    return ZeroToDepth(len(chain))


def classify_prime_support(table: Mapping) -> dict:
    """Classify each prime of a residue-chain table.

    ZeroToDepth(d): every listed residue is 0, so the prime divides to the
    full inspected depth d (and possibly beyond - that is not decidable
    from a finite table).  NonZero(s): s is the least depth whose residue
    is nonzero.
    """
    return {p: chain_support(chain) for p, chain in validate_chain_table(table).items()}
