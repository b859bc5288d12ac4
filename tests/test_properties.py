"""Property tests: canonical periods and canonical algebra results, the
n-ary meet of periodic_sets against membership, and filter_lab's decisions
against a meet folded pairwise with `PeriodicSet.intersect`."""

from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from congruence_lattice import filter_lab as fl, lattice, oracles, periodic_sets as ps
from congruence_lattice.filter_lab import FilterBase

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# mixes coprime moduli with ones sharing 2, 3 or 5, and keeps lcms desk-sized
MODULI = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 20, 24)


@st.composite
def residue_sets(draw, max_modulus=60):
    """(m, R): R is random, or a union of cosets of a divisor d of m."""
    m = draw(st.integers(1, max_modulus))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    base = draw(st.sets(st.integers(0, d - 1)))
    residues = {x for x in range(m) if x % d in base}
    flips = draw(st.sets(st.integers(0, m - 1), max_size=2))
    return m, residues ^ flips if draw(st.booleans()) else residues


@st.composite
def periodic_members(draw, allow_empty=False):
    # a listed set, a union of two classes or an up-closure, each with edits: the last two are complemented
    # products of several parts when their moduli are coprime, which the fold tries or lists
    kind = draw(st.sampled_from(("listed", "union", "up")))
    added = draw(st.sets(st.integers(0, 80), max_size=3))
    removed = draw(st.sets(st.integers(0, 80), max_size=3)) - added
    if kind == "listed":
        m = draw(st.sampled_from(MODULI))
        residues = draw(st.sets(st.integers(0, m - 1), min_size=0 if allow_empty else 1))
        s = ps.make(m, residues, added, removed)
    else:
        if kind == "union":
            m, n = draw(st.sampled_from(MODULI)), draw(st.sampled_from(MODULI))
            s = ps.progression(m, draw(st.integers(0, m - 1))) | ps.progression(n, draw(st.integers(0, n - 1)))
        else:
            s = lattice.up_closure(draw(st.sets(st.sampled_from(MODULI[1:]), min_size=1, max_size=3)))
        s = (s | ps.make(1, (), added)) & ~ps.make(1, (), removed)
    if draw(st.booleans()):  # complemented sets give product-form values
        s = ~s
    assume(allow_empty or not s.is_empty())
    return s


families = st.lists(periodic_members(allow_empty=True), max_size=5)


def pairwise_meet(members):
    """The reference meet: the members folded pairwise (everything for none)."""
    return reduce(ps.PeriodicSet.intersect, members, ps.progression(1, 0))


def least_period(m, residues):
    """Least d | m such that membership in R depends only on x mod d."""
    return next(
        d for d in range(1, m + 1)
        if m % d == 0 and all((x in residues) == ((x + d) % m in residues) for x in range(m))
    )


def materialised_feasible(members, modulus):
    """feasible_residues read off the full meet, as the meet defines it."""
    meet = pairwise_meet(members)
    if meet.is_infinite():
        g = gcd(meet.modulus, modulus)
        hit = {r % g for r in meet.residues}
        return {r for r in range(modulus) if r % g in hit}
    return {x % modulus for x in meet.added}


@SETTINGS
@given(residue_sets())
def test_make_finds_the_least_period(case):
    m, residues = case
    s = ps.make(m, residues)
    d = least_period(m, residues)
    assert s.modulus == d
    assert s.residues == {r % d for r in residues}


@SETTINGS
@given(
    periodic_members(allow_empty=True),
    periodic_members(allow_empty=True),
    st.sets(st.integers(1, 24), min_size=1, max_size=3),
)
def test_the_algebra_builds_canonical_sets(a, b, divisors):
    # the algebra skips make's checks, so make must leave each result as it is
    for r in (a & b, a | b, ~a, ps.divisibility_union(divisors), lattice.up_closure(divisors)):
        assert ps.make(r.modulus, r.residues, r.added, r.removed) == r


@SETTINGS
@given(
    periodic_members(allow_empty=True),
    periodic_members(allow_empty=True),
    st.sets(st.integers(1, 12), min_size=1, max_size=3),
)
def test_product_form_matches_the_explicit_listing(a, b, divisors):
    # membership, len, and equality and hash against make of the listing: a
    # product-form set must hash like its frozenset-backed listing
    assert oracles.periodic_case(a, b, sorted(divisors)) == []


@SETTINGS
@given(families)
def test_n_ary_meet_is_pointwise_membership(members):
    meet = ps._meet(members)
    bound = 2 * lcm(*(s.modulus for s in members)) + max((s.max_edit() for s in members), default=0)
    assert all((n in meet) == all(n in s for s in members) for n in range(bound + 1))
    assert ps.make(meet.modulus, meet.residues, meet.added, meet.removed) == meet


@SETTINGS
@given(families, st.integers(2, 40))
def test_a_base_and_its_member_list_answer_alike(members, modulus):
    assume(all(not s.is_empty() for s in members) and pairwise_meet(members).is_infinite())
    base = FilterBase(tuple(members))
    assert fl.has_fip(base) == fl.has_fip(members)
    assert fl.feasible_residues(base, modulus) == fl.feasible_residues(members, modulus)


@SETTINGS
@given(families, st.integers(2, 40))
def test_componentwise_decisions_match_the_materialised_meet(members, modulus):
    meet = pairwise_meet(members)
    assert fl.has_fip(members) == meet.is_infinite()
    assert fl.feasible_residues(members, modulus) == materialised_feasible(members, modulus)


@SETTINGS
@given(st.lists(periodic_members(), max_size=4), periodic_members(allow_empty=True), st.integers(2, 40))
def test_extend_matches_the_materialised_meet(base_members, s, modulus):
    assume(pairwise_meet(base_members).is_infinite())
    base = FilterBase(tuple(base_members))
    extended = fl.extend(base, s)
    if not pairwise_meet([*base_members, s]).is_infinite():
        assert extended is None
        return
    assert extended == FilterBase(base.members + (s,))
    assert hash(extended) == hash(FilterBase(base.members + (s,)))
    assert fl.has_fip(extended)
    assert fl.feasible_residues(extended, modulus) == materialised_feasible(extended.members, modulus)


@SETTINGS
@given(st.lists(periodic_members(), max_size=5))
def test_a_base_is_accepted_iff_its_meet_is_infinite(base_members):
    if pairwise_meet(base_members).is_infinite():
        assert FilterBase(tuple(base_members)).members == tuple(base_members)
        return
    with pytest.raises(ValueError, match="^every finite intersection of a filter base must be infinite$"):
        FilterBase(tuple(base_members))


def test_semiprime_progression_is_not_factored():
    m = (10**6 + 3) * (10**6 + 33)  # both factors prime, beyond trial division
    s = ps.progression(m, 5)
    assert s.modulus == m and s.residues == {5}
    assert ps.make(m, (5, 7)).modulus == m
