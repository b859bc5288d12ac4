"""Combinatorics of the divisibility order on the positive integers.

Finite sets are passed around as plain iterables of positive integers and
returned as sorted lists.  Upward closures are eventually periodic, so they
come back as PeriodicSet values with 0 edited out (0 is not part of the
divisibility universe here).  `is_upward_closed` reads a set's parts, so it
lives in `periodic_sets`, which owns them; this module re-exports it.
"""

from __future__ import annotations

from typing import Iterable

from .periodic_sets import PeriodicSet, _multiples, is_upward_closed
from .primes import DEFAULT_TRIAL_BUDGET, FactorizationBudgetError, _factorize, _is_antichain, _valuations
from .primes import factorize, json_int, strict_int, strict_ints, strict_prime

__all__ = [
    "FactorizationBudgetError",
    "up_closure",
    "down_closure",
    "is_antichain",
    "is_convex",
    "convex_hull",
    "omega",
    "omega_lower_bound",
    "level_members",
    "is_upward_closed",
]


def _elements(xs: Iterable, allow_empty: bool = True) -> tuple:
    out = tuple(sorted(strict_ints([json_int(x, "element") for x in xs], "element", 1)))
    if not out and not allow_empty:
        raise ValueError("expected a nonempty set of positive integers")
    return out


def _divisors(n: int) -> list:
    divisors = [1]
    for p, e in _factorize(n).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return sorted(divisors)


def up_closure(elements: Iterable) -> PeriodicSet:
    """All positive integers divisible by some element of the given set."""
    return _multiples(_elements(elements, allow_empty=False), {0})


def down_closure(elements: Iterable) -> list:
    """All divisors of elements of the given set, sorted.  A member that `factorize`
    cannot split at the default budget raises FactorizationBudgetError (CLI exit 2)."""
    els = _elements(elements, allow_empty=False)
    out = set()
    for n in els:
        out.update(_divisors(n))
    return sorted(out)


def is_antichain(elements: Iterable) -> bool:
    """True iff no element divides a distinct element."""
    return _is_antichain(_elements(elements))


def _hull(els: tuple):
    """Each z with x | z | y for some x, y in els, lazily, y ascending (z may
    repeat): is_convex stops at the first z outside els, before it factors a
    later y."""
    return (z for y in els for z in _divisors(y) if any(z % x == 0 for x in els))


def is_convex(elements: Iterable) -> bool:
    """True iff the set holds its convex hull (see convex_hull); refuses a member
    past the default factoring budget as down_closure does, unless a smaller one
    has already shown the set is not convex."""
    els = _elements(elements)
    have = set(els)
    return all(z in have for z in _hull(els))


def convex_hull(elements: Iterable) -> list:
    """Least convex superset: all z with x | z | y for some set members x, y; refuses
    a member past the default factoring budget as down_closure does."""
    return sorted(set(_hull(_elements(elements))))


def omega(n: int, trial_budget: int = DEFAULT_TRIAL_BUDGET) -> int:
    """Number of prime factors of n counted with multiplicity.

    Factoring is `primes.factorize` within a work budget of `trial_budget`
    units (trial division to 2^10, then Brent's rho); if a composite cofactor
    cannot be split within it the call raises FactorizationBudgetError
    instead of stalling.
    """
    return sum(factorize(n, trial_budget).values())


def omega_lower_bound(n: int, primes: Iterable) -> int:
    """Sum of valuations of n at the supplied primes; cheap for huge n."""
    strict_int(n, "n", 1)
    return _valuations(n, {strict_prime(json_int(p, "prime"), "prime") for p in primes})


def level_members(level: int, bound: int) -> list:
    """Integers in [1, bound] with exactly `level` prime factors (with multiplicity)."""
    strict_int(level, "level", 0)
    return [n for n in range(1, strict_int(bound, "bound", 1) + 1) if sum(_factorize(n).values()) == level]
