"""Congruence systems over arbitrary moduli.

General (non-coprime) moduli are merged through gcd compatibility and the
extended Euclidean algorithm; nothing is ever factored.  An unsolvable
system is a value (None), not an exception: feasibility testing is the
whole point.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from math import gcd

from .primes import Record, _int_value, _shown, json_array, json_int, json_object, strict_int, strict_prime


class Congruence(Record):
    """The residue class x = residue (mod modulus), residue normalized: a single
    constraint, or the solved form of a system (one class modulo the lcm)."""

    __slots__ = _fields = ("modulus", "residue")

    def __init__(self, modulus: int, residue: int):
        self._set(strict_int(modulus, "modulus", 1), strict_int(residue, "residue") % modulus)

    @staticmethod
    def from_json(data) -> "Congruence":
        """The congruence of a JSON object {"m": modulus, "a": residue}; an int may be a decimal string."""
        data = json_object(data, "congruence JSON", "m", "a")
        m, a = (json_int(data[key], f'congruence JSON field "{key}"') for key in ("m", "a"))
        return Congruence(strict_int(m, 'congruence JSON field "m"', 1), a)

    def satisfied_by(self, x: int) -> bool:
        """Whether the int x equals (3.0 is 3) lies in the class over Z; a value equal to no int does not."""
        return (type(x) is int or (x := _int_value(x)) is not None) and x % self.modulus == self.residue


def _merge(m1: int, r1: int, m2: int, r2: int):
    """Intersect two residue classes; None when they are disjoint."""
    g = gcd(m1, m2)
    if (r1 - r2) % g != 0:
        return None
    m = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return m, (r1 + m1 * t) % m


def solve_pair(c1, c2) -> Congruence | None:
    """Merge two congruences into the class modulo lcm, or None if disjoint."""
    Congruence._check((c1, c2), "congruence")
    merged = _merge(c1.modulus, c1.residue, c2.modulus, c2.residue)
    return None if merged is None else Congruence(*merged)


def solve_system(congruences: Iterable) -> Congruence | None:
    """Solve a congruence system: one class modulo the lcm, or None; the empty system gives (1, 0)."""
    state = (1, 0)
    for c in Congruence._check(list(congruences), "congruence"):
        state = _merge(state[0], state[1], c.modulus, c.residue)
        if state is None:
            return None
    return Congruence(*state)


class FeasibilityStream:
    """Solve a congruence system pushed one congruence at a time; infeasibility is sticky.

    Single-owner mutable state: after k pushes the state equals
    solve_system of those k congruences, in any push order.
    """

    def __init__(self):
        self._state: Congruence | None = Congruence(1, 0)

    def push(self, congruence: Congruence) -> Congruence | None:
        if self._state is None:  # refused after infeasibility too; solve_pair checks it before that
            Congruence._check((congruence,), "congruence")
        else:
            self._state = solve_pair(self._state, congruence)
        return self._state

    @property
    def state(self) -> Congruence | None:
        return self._state

    @property
    def is_feasible(self) -> bool:
        return self._state is not None


ZeroToDepth = namedtuple("ZeroToDepth", "depth")  # all listed residues are 0: zero up to the inspected depth
NonZero = namedtuple("NonZero", "first_nonzero")  # the first depth at which the residue chain leaves 0


def validate_chain_table(table: Mapping) -> dict:
    """Check a prime -> residue-chain table.

    For each prime p the chain lists residues modulo p, p^2, ... and
    consecutive entries must be congruent (each entry refines the previous
    one p-adically).  Returns a normalized {prime: tuple} dict.
    """
    out = {}
    for p, chain in json_object(table, "residue-chain table").items():
        p = strict_prime(json_int(p, "chain prime"), "chain prime")
        if p in out:
            raise ValueError(f"prime {_shown(p)} listed twice")
        out[p] = _checked_chain(p, chain)
    return out


def _checked_chain(p: int, chain) -> tuple:
    """The residue chain of the prime p as a tuple, checked as validate_chain_table checks each."""
    chain = tuple(json_int(r, "chain residue") for r in json_array(chain, f"residue chain for {_shown(p)}"))
    if not chain:
        raise ValueError(f"empty residue chain for prime {_shown(p)}")
    power, prev = 1, 0
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
    return chain


def chain_support(chain) -> NonZero | ZeroToDepth:
    """NonZero at the least depth whose residue is nonzero, else ZeroToDepth of
    the chain's length (a chain as validate_chain_table returns it)."""
    depth = next((depth for depth, r in enumerate(chain, start=1) if r != 0), None)
    return ZeroToDepth(len(chain)) if depth is None else NonZero(depth)


def classify_prime_support(table: Mapping) -> dict:
    """Classify each prime of a residue-chain table.

    ZeroToDepth(d): every listed residue is 0, so the prime divides to the
    full inspected depth d (and possibly beyond - that is not decidable
    from a finite table).  NonZero(s): s is the least depth whose residue
    is nonzero.
    """
    return {p: chain_support(chain) for p, chain in validate_chain_table(table).items()}
