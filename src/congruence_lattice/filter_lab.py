"""Finitary laboratory for filter bases over eventually periodic sets.

A FilterBase is a finite family of PeriodicSets standing in for a filter
base on the positive integers.  The intersection property is strengthened
to "every finite intersection is infinite", so a valid base always extends
to nonprincipal ultrafilters; for a finite family that is equivalent to
the single condition that the meet of all members is infinite.

Everything here is exact and reads the meet of the members, built once per
base by `periodic_sets`' n-ary meet, the routine `PeriodicSet.intersect`
calls.  That meet is in CRT-product form (parts with pairwise coprime
moduli), so no lcm of the whole family is ever materialised; edits are
finite, so it is infinite iff the members' periodic parts meet.  Residues
and upward closure are asked of `periodic_sets`, which alone reads parts.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .crt import _merge
from .periodic_sets import PeriodicSet, _meet, _residues_met, is_upward_closed
from .primes import Record, _check_coprime, _shown, json_int, strict_int, strict_ints


class NoWitnessSourceError(ValueError):
    """No pool element is coprime to the modulus and all forbidden divisors."""


def _checked(members: Iterable) -> tuple:
    """The members as a tuple, refused unless every one is a PeriodicSet."""
    members = tuple(members)
    for s in members:
        if not isinstance(s, PeriodicSet):
            raise TypeError(f"filter base members must be PeriodicSet, got {type(s).__name__}")
    return members


class FilterBase(Record):
    """A filter base; `intersection`, the meet of all members, is built once
    with the base and is infinite (everything for the empty base)."""

    _fields = ("members",)
    __slots__ = (*_fields, "intersection")

    def __init__(self, members: tuple = ()):
        members = _checked(members)
        object.__setattr__(self, "members", members)
        if any(s.is_empty() for s in members):
            raise ValueError("filter base members must be nonempty")
        meet = _meet(members)
        if not meet.is_infinite():
            raise ValueError("every finite intersection of a filter base must be infinite")
        object.__setattr__(self, "intersection", meet)


BaseLike = Union[FilterBase, Sequence]


def has_fip(members: BaseLike) -> bool:
    """True iff the intersection of all members is infinite.

    For a finite family this already implies that every sub-intersection
    is infinite.  Accepts a FilterBase or any sequence of PeriodicSets, so
    candidate families can be tested before constructing a base.
    """
    if isinstance(members, FilterBase):
        return True
    members = _checked(members)
    return not members or members[0].meets_infinitely(*members[1:])


def extend(base: FilterBase, s: PeriodicSet) -> Optional[FilterBase]:
    """Base with s appended when that preserves the intersection property,
    else None."""
    _checked((s,))
    return FilterBase(base.members + (s,)) if base.intersection.meets_infinitely(s) else None


def feasible_residues(base: BaseLike, modulus: int) -> set:
    """Residues r modulo `modulus` whose progression is consistent with the base.

    These are exactly the r for which extend(base, progression(modulus, r))
    would succeed; every ultrafilter extending the base has its residue in
    this set.  By CRT, r is feasible iff r mod g_i is hit by part i of the
    meet for every part, where g_i = gcd(part modulus, modulus).  A
    degenerate base whose meet is finite (a principal carrier) falls back
    to the residues of the meet's own points, its added ones.
    """
    strict_int(modulus, "modulus", 2)
    meet = base.intersection if isinstance(base, FilterBase) else _meet(_checked(base))
    return _residues_met(meet, modulus)


class CongruenceVerdict(Enum):
    CONGRUENT = "congruent"
    NOT_CONGRUENT = "not_congruent"
    UNDETERMINED = "undetermined"


def congruent_mod(base_f: BaseLike, base_g: BaseLike, modulus: int) -> CongruenceVerdict:
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


class DividesReport(NamedTuple):
    status: DividesStatus
    witness: Optional[PeriodicSet] = None


def divides_check(base_f: FilterBase, base_g: FilterBase) -> DividesReport:
    """Necessary condition for divisibility between ultrafilter extensions.

    Every purely periodic, upward-closed member of base_f must be
    consistent with base_g (their intersection infinite); a failing member
    is returned as the witness.  Vacuous when base_f certifies no
    upward-closed member.  This checks only the upward-closed sets the
    base exhibits, so a pass is never a completeness claim.
    """
    found = False
    for member in base_f.members:
        try:
            if not is_upward_closed(member):
                continue
        except ValueError:  # closure is undecidable under edits away from 0
            continue
        found = True
        if not member.meets_infinitely(base_g.intersection):
            return DividesReport(DividesStatus.FAILS, member)
    return DividesReport(DividesStatus.PASSES if found else DividesStatus.VACUOUS)


def nmax_witness(modulus: int, residue: int, forbidden: Iterable, pool: Iterable) -> int:
    """Least x with x = residue (mod modulus), a | x for the chosen pool
    element a, and n does not divide x for every forbidden n.

    The source a is the least pool element coprime to the modulus and to
    every forbidden divisor; with such an a the three conditions are
    always simultaneously satisfiable, and the least solution appears
    within one period lcm(modulus, a, product of forbidden).
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
    source = next(
        (a for a in pool if gcd(a, modulus) == 1 and all(gcd(a, n) == 1 for n in forbidden)),
        None,
    )
    if source is None:
        raise NoWitnessSourceError(
            f"no pool element is coprime to {_shown(modulus)} and to all of {_shown(forbidden)}"
        )
    step, x = _merge(modulus, residue, source, 0)  # coprime moduli: never None
    cap = lcm(modulus, source, prod(forbidden, start=1))
    while x <= cap:
        if all(x % n != 0 for n in forbidden):
            return x
        x += step
    raise RuntimeError("witness search exhausted its period window")
