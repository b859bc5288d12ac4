"""Finitary laboratory for filter bases over eventually periodic sets.

A FilterBase is a finite family of PeriodicSets standing in for a filter
base on the positive integers.  The intersection property is strengthened
to "every finite intersection is infinite", so a valid base always extends
to nonprincipal ultrafilters; for a finite family that is equivalent to
the single condition that the meet of all members is infinite.

Everything here is exact.  A base holds its members alone; edits are finite, so
their meet is infinite iff their periodic parts meet, which `periodic_sets`' fold
decides without building it.  No function here builds the meet: `feasible_residues`
reads the products that fold yields (pairwise coprime moduli), so no lcm of the family
is listed; residues and upward closure are asked of `periodic_sets`, which alone reads parts.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from math import gcd

from .periodic_sets import PeriodicSet, _core, _residues_met, _views, is_upward_closed
from .primes import Record, _check_coprime, _shown, json_int, strict_int, strict_ints


class NoWitnessSourceError(ValueError):
    """No pool element is coprime to the modulus and all forbidden divisors."""


def _checked(members: Iterable) -> tuple:
    """The members as a tuple, refused unless every one is a PeriodicSet."""
    return PeriodicSet._check(tuple(members), "filter base members")


class FilterBase(Record):
    """A filter base: nonempty members whose meet is infinite (everything for
    the empty base), decided by the fold over their parts; no meet is stored."""

    __slots__ = _fields = ("members",)

    def __init__(self, members: tuple = ()):
        members = _checked(members)
        if any(s.is_empty() for s in members):
            raise ValueError("filter base members must be nonempty")
        if _core(_views(members)) is None:
            raise ValueError("every finite intersection of a filter base must be infinite")
        self._set(members)


def has_fip(members: FilterBase | Sequence) -> bool:
    """True iff the intersection of all members is infinite.

    For a finite family this already implies that every sub-intersection
    is infinite.  Accepts a FilterBase or any sequence of PeriodicSets, so
    candidate families can be tested before constructing a base.
    """
    if isinstance(members, FilterBase):
        return True
    return _core(_views(_checked(members))) is not None


def extend(base: FilterBase, s: PeriodicSet) -> FilterBase | None:
    """Base with s appended when that preserves the intersection property,
    else None."""
    FilterBase._check((base,), "base")
    try:  # one fold, the constructor's; it refuses an s that is no PeriodicSet with TypeError
        return FilterBase(base.members + (s,))
    except ValueError:  # s is empty, or meets the members finitely
        return None


def feasible_residues(base: FilterBase | Sequence, modulus: int) -> set:
    """Residues r modulo `modulus` whose progression is consistent with the base.

    These are exactly the r for which extend(base, progression(modulus, r))
    would succeed; every ultrafilter extending the base has its residue in
    this set.  By CRT, r is feasible iff for some product of the meet, as the fold
    yields them unbuilt, r mod g_i is hit by its part i for every part, where
    g_i = gcd(part modulus, modulus).  A degenerate base whose meet is finite (a
    principal carrier) falls back to the residues of the points every member holds.
    Time and memory are linear in `modulus` per product read, with no budget: 0.14 s and 67 MiB at 10^6.
    """
    strict_int(modulus, "modulus", 2)
    members = base.members if isinstance(base, FilterBase) else _checked(base)
    return _residues_met(members, modulus)


class CongruenceVerdict(Enum):
    CONGRUENT = "congruent"
    NOT_CONGRUENT = "not_congruent"
    UNDETERMINED = "undetermined"


def congruent_mod(
    base_f: FilterBase | Sequence, base_g: FilterBase | Sequence, modulus: int
) -> CongruenceVerdict:
    """Compare the feasible residue sets of two bases modulo `modulus`.

    Congruent when both are pinned to the same single residue; not
    congruent when the residue sets are disjoint; otherwise undetermined
    (base-level evidence cannot pin the residue down).
    """
    rf = feasible_residues(base_f, modulus)
    rg = feasible_residues(base_g, modulus)
    if rf == rg and len(rf) == 1:
        return CongruenceVerdict.CONGRUENT
    if rf.isdisjoint(rg):
        return CongruenceVerdict.NOT_CONGRUENT
    return CongruenceVerdict.UNDETERMINED


class DividesStatus(Enum):
    PASSES = "passes"
    FAILS = "fails"
    VACUOUS = "vacuous"


DividesReport = namedtuple("DividesReport", "status witness", defaults=(None,))  # witness: a failing member


def divides_check(base_f: FilterBase, base_g: FilterBase) -> DividesReport:
    """Necessary condition for divisibility between ultrafilter extensions.

    Every purely periodic, upward-closed member of base_f must be
    consistent with base_g (their intersection infinite); a failing member
    is returned as the witness.  Vacuous when base_f certifies no
    upward-closed member.  This checks only the upward-closed sets the
    base exhibits, so a pass is never a completeness claim.
    """
    FilterBase._check((base_f, base_g), "divides_check bases")
    found = False
    for member in base_f.members:
        try:
            if not is_upward_closed(member):
                continue
        except ValueError:  # closure is undecidable under edits away from 0
            continue
        found = True
        if not member.meets_infinitely(*base_g.members):
            return DividesReport(DividesStatus.FAILS, member)
    return DividesReport(DividesStatus.PASSES if found else DividesStatus.VACUOUS)


def nmax_witness(modulus: int, residue: int, forbidden: Iterable, pool: Iterable) -> int:
    """Least x with x = residue (mod modulus), a | x for the chosen pool
    element a, and n does not divide x for every forbidden n.

    The source a is the least pool element coprime to the modulus and to every forbidden divisor.  Only
    an n prime to the modulus can divide x, and the step modulus * a is prime to those: by CRT the walk ends.
    """
    strict_int(modulus, "modulus", 2)
    strict_int(residue, "residue", 1, modulus)
    _check_coprime(modulus, residue)
    forbidden = [json_int(n, "forbidden divisor") for n in forbidden]
    forbidden = sorted(strict_ints(forbidden, "forbidden divisor", 2))
    pool = [json_int(a, "pool element") for a in pool]
    pool = sorted(strict_ints(pool, "pool element", 2))
    if not pool:
        raise ValueError("pool must be nonempty")
    coprime = (a for a in pool if gcd(a, modulus) == 1 and all(gcd(a, n) == 1 for n in forbidden))
    if (source := next(coprime, None)) is None:
        raise NoWitnessSourceError(
            f"no pool element is coprime to {_shown(modulus)} and to all of {_shown(forbidden)}"
        )
    from .crt import _merge  # on first use, so that the other filter commands load no crt
    step, x = _merge(modulus, residue, source, 0)  # coprime moduli: never None
    while any(x % n == 0 for n in forbidden):
        x += step
    return x
