"""Exact algebra of eventually periodic subsets of the non-negative integers.

A set is stored as a periodic part (residues modulo a period) together with
finitely many explicit additions and removals, with minimal period and edit
sets, so two values are structurally equal exactly when they contain the same
integers.  `make` checks outside input, then canonicalizes it; the algebra's
results are canonical by construction and skip the checks.

Membership semantics for a value with period m, residue set R and edit sets
(added, removed):

    n in A  <=>  n in added, or (n mod m in R and n not in removed)

The universe is the non-negative integers; callers that work over the
positive integers (divisibility, filter bases) simply never consult 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable

from .primes import _factorize, json_int, strict_int


@dataclass(frozen=True)
class PeriodicSet:
    modulus: int
    residues: frozenset
    added: frozenset
    removed: frozenset

    def __repr__(self):
        return (
            f"PeriodicSet(mod={self.modulus}, residues={sorted(self.residues)}, "
            f"add={sorted(self.added)}, remove={sorted(self.removed)})"
        )

    # -- membership ---------------------------------------------------------

    def member(self, n: int) -> bool:
        """True iff n belongs to the set (negative n never does)."""
        if n < 0:
            return False
        if n in self.added:
            return True
        if n in self.removed:
            return False
        return n % self.modulus in self.residues

    __contains__ = member

    def is_empty(self) -> bool:
        return not self.residues and not self.added

    def is_infinite(self) -> bool:
        # finitely many removals cannot make a nonempty periodic part finite
        return bool(self.residues)

    def max_edit(self) -> int:
        """Largest explicitly edited element (0 when there are no edits)."""
        return max(self.added | self.removed, default=0)

    def enumerate_up_to(self, bound: int) -> list:
        """Sorted members n with 0 <= n <= bound."""
        if strict_int(bound, "bound") < 0:
            raise ValueError("bound must be non-negative")
        return [n for n in range(bound + 1) if self.member(n)]

    # -- boolean algebra -----------------------------------------------------

    def meets_infinitely(self, other: "PeriodicSet") -> bool:
        """Whether the intersection is infinite, decided without building it.

        Two residue classes intersect (and then infinitely often) exactly
        when their residues agree modulo the gcd of the periods; edits are
        finite and cannot change the answer.
        """
        g = gcd(self.modulus, other.modulus)
        hits = {r % g for r in self.residues}
        return any(r % g in hits for r in other.residues)

    def intersect(self, other: "PeriodicSet") -> "PeriodicSet":
        m = lcm(self.modulus, other.modulus)
        # enumerate lifts of the sparser operand, filter by the other
        a, b = self, other
        if len(a.residues) * (m // a.modulus) > len(b.residues) * (m // b.modulus):
            a, b = b, a
        residues = set()
        for r in a.residues:
            for x in range(r, m, a.modulus):
                if x % b.modulus in b.residues:
                    residues.add(x)
        return _rebuild(m, residues, (self, other), lambda n: n in self and n in other)

    def union(self, other: "PeriodicSet") -> "PeriodicSet":
        m = lcm(self.modulus, other.modulus)
        residues = set()
        for r in self.residues:
            residues.update(range(r, m, self.modulus))
        for r in other.residues:
            residues.update(range(r, m, other.modulus))
        return _rebuild(m, residues, (self, other), lambda n: n in self or n in other)

    def complement(self) -> "PeriodicSet":
        residues = frozenset(range(self.modulus)) - self.residues
        return _canonical(self.modulus, residues, self.removed, self.added)

    __and__ = intersect
    __or__ = union
    __invert__ = complement

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "residues": sorted(self.residues),
            "add": sorted(self.added),
            "remove": sorted(self.removed),
        }

    @staticmethod
    def from_json(data: dict) -> "PeriodicSet":
        if not isinstance(data, dict):
            raise ValueError("periodic set JSON must be an object")
        if "modulus" not in data:
            raise ValueError('periodic set JSON: missing field "modulus"')
        fields = {}
        for key in ("residues", "add", "remove"):
            value = data.get(key, ())
            if not isinstance(value, (list, tuple)):
                raise ValueError(f'periodic set JSON: field "{key}" must be an array')
            fields[key] = [json_int(v, f'periodic set JSON field "{key}"') for v in value]
        modulus = json_int(data["modulus"], 'periodic set JSON field "modulus"')
        return make(modulus, fields["residues"], fields["add"], fields["remove"])


def _rebuild(modulus, residues, operands, truth):
    """Build the canonical result of a pointwise operation.

    `residues` is the periodic part already combined; membership of the
    finitely many edited points of the operands is fixed up explicitly.
    """
    added, removed = set(), set()
    edits = set()
    for s in operands:
        edits |= s.added | s.removed
    for n in edits:
        want = truth(n)
        periodic = n % modulus in residues
        if want and not periodic:
            added.add(n)
        elif not want and periodic:
            removed.add(n)
    return _canonical(modulus, residues, added, removed)


def _minimal_period(modulus, residues):
    """Shrink (modulus, residues) until the residues are not a union of
    full cosets of any proper divisor of the modulus.

    A union of full cosets modulo m/p holds a multiple of p residues, so
    only the primes of gcd(m, |R|) are candidates: the modulus itself is
    never factored, only a number no larger than |R|.
    """
    if not residues:
        return 1, frozenset()
    while modulus > 1:
        for p in _factorize(gcd(modulus, len(residues))):
            d = modulus // p
            # closed under +d (mod m) <=> a union of cosets of the order-p subgroup
            if all((r + d) % modulus in residues for r in residues):
                residues = frozenset(r % d for r in residues)
                modulus = d
                break
        else:
            break
    return modulus, frozenset(residues)


def make(modulus: int, residues: Iterable = (), added: Iterable = (), removed: Iterable = ()) -> PeriodicSet:
    """Canonical constructor for outside input.

    Accepts any semantically valid description: redundant edits are dropped
    and the period is minimized.  Rejects non-integers, a modulus < 1,
    residues outside [0, modulus), negative and overlapping edits.
    """
    if strict_int(modulus, "modulus") < 1:
        raise ValueError(f"modulus must be a positive integer, got {modulus!r}")
    residues = frozenset(strict_int(r, "residue") for r in residues)
    for r in residues:
        if not 0 <= r < modulus:
            raise ValueError(f"residue {r} out of range for modulus {modulus}")
    added = frozenset(strict_int(a, "added element") for a in added)
    removed = frozenset(strict_int(x, "removed element") for x in removed)
    for e in added | removed:
        if e < 0:
            raise ValueError(f"edited element {e} must be non-negative")
    if added & removed:
        raise ValueError(f"ambiguous edits: {sorted(added & removed)} both added and removed")
    return _canonical(modulus, residues, added, removed)


def _canonical(modulus, residues, added, removed) -> PeriodicSet:
    """A valid description (int residues in [0, modulus), disjoint non-negative int
    edits; not checked) with redundant edits dropped and the period minimized."""
    added = frozenset(a for a in added if a % modulus not in residues)
    removed = frozenset(x for x in removed if x % modulus in residues)
    modulus, residues = _minimal_period(modulus, residues)
    return PeriodicSet(modulus, residues, added, removed)


def progression(modulus: int, residue: int) -> PeriodicSet:
    """The arithmetic progression {n >= 0 : n = residue (mod modulus)}."""
    return make(modulus, (residue,))


def divisibility_union(divisors: Iterable) -> PeriodicSet:
    """Union of the multiple sets n*{0,1,2,...} over the given divisors."""
    ds = sorted({strict_int(n, "divisor") for n in divisors})
    if not ds:
        raise ValueError("divisibility_union needs at least one divisor")
    if ds[0] < 1:
        raise ValueError(f"divisors must be >= 1, got {ds[0]}")
    return _multiples(ds)


def _multiples(divisors, removed=()) -> PeriodicSet:
    """divisibility_union of checked ints >= 1, less the points of `removed`."""
    period = lcm(*divisors)
    residues = set()
    for n in divisors:
        residues.update(range(0, period, n))
    return _canonical(period, residues, (), removed)


def non_divisibility(n: int) -> PeriodicSet:
    """The non-negative integers not divisible by n (n >= 2)."""
    if strict_int(n, "n") < 2:
        raise ValueError(f"non_divisibility expects an integer >= 2, got {n!r}")
    return _canonical(n, range(1, n), (), ())
