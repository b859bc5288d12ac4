"""Periodic set algebra: canonicalization, membership, boolean operations."""

import os
import random
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import lcm, prod

import pytest

from congruence_lattice import filter_lab as fl, lattice, oracles
from congruence_lattice import periodic_sets as ps
from congruence_lattice.crt import Congruence


def scan(s, hi):
    return [n for n in range(hi + 1) if n in s]


# -- construction and canonical form ------------------------------------------


def test_make_identity_case():
    evens = ps.make(2, {0})
    assert evens.modulus == 2 and evens.residues == frozenset({0})
    assert evens == ps.progression(2, 0)


def test_make_merges_full_cosets():
    assert ps.make(4, {0, 2}) == ps.make(2, {0})
    assert ps.make(12, {0, 2, 4, 6, 8, 10}) == ps.make(2, {0})


def test_make_pure_finite_encoding():
    s = ps.make(1, (), {1, 2}, ())
    assert s.modulus == 1 and not s.residues
    assert scan(s, 10) == [1, 2]
    assert not s.is_infinite()
    assert not s.is_empty()


def test_make_full_set_canonicalizes_to_modulus_one():
    assert ps.make(6, range(6)) == ps.progression(1, 0)


def test_make_drops_redundant_edits():
    s = ps.make(2, {0}, added={4}, removed={3})
    assert not s.added and not s.removed


def test_make_rejects_bad_input():
    with pytest.raises(ValueError):
        ps.make(0, ())
    with pytest.raises(ValueError):
        ps.make(4, {4})
    with pytest.raises(ValueError):
        ps.make(4, {-1})
    with pytest.raises(ValueError):
        ps.make(2, {0}, added={3}, removed={3})
    with pytest.raises(ValueError):
        ps.make(2, {0}, removed={-2})


def _stored(s):
    r = s.residues
    return s.modulus, r.parts, r.co, s.added, s.removed, hash(s)


# near 10^12: the largest prime below it, a prime above it, 2^12 * 5^12 and a semiprime
_NEAR_10_12 = (999999999989, 10**12 + 39, 10**12, 999983 * 1000003)


@pytest.mark.parametrize("m", [*range(1, 61), *_NEAR_10_12])
def test_progression_and_non_divisibility_are_built_as_make_builds_them(m):
    # built in one step, with no period search, yet stored exactly as make stores them
    for r in range(m) if m <= 60 else (0, 1, m // 2, m - 1):
        got, want = ps.progression(m, r), ps.make(m, (r,))
        assert got == want and _stored(got) == _stored(want), (m, r)
    if m >= 2:
        got, want = ps.non_divisibility(m), ~ps.make(m, (0,))
        assert got == want and _stored(got) == _stored(want), m


@pytest.mark.parametrize(
    "m, r", [(True, 0), (3, True), (-1, 0), (3, -1), (3, 3), (0, 0), (2.0, 0), (3, 2.0)], ids=repr
)
def test_progression_refuses_as_make_refuses(m, r):
    with pytest.raises(ValueError) as want:
        ps.make(m, (r,))
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        ps.progression(m, r)


# -- membership ----------------------------------------------------------------


def test_member_examples():
    assert 7 in ps.progression(3, 1)
    assert 7 not in ps.divisibility_union({2, 3})
    assert 5 in ps.progression(2, 0).complement()
    assert -3 not in ps.progression(1, 0)


# a NaN Decimal raises InvalidOperation when ordered or reduced, where a frozenset answers False
_DECIMALS = tuple(map(Decimal, ("NaN", "Infinity", "1", "3.0", "2.5")))


def test_membership_answers_as_a_frozenset_of_the_members_does():
    # 2.5 mod 2 is 0.5, which is not the stored residue 0 of the complemented part
    odd, everything = ps.non_divisibility(2), ps.progression(1, 0)
    assert 2.5 not in odd and not odd.member(2.5) and 0.5 not in everything
    values = (3.0, True, False, 4.0, 7.0, 2.5, 0.5, -1.0, float("nan"), float("inf"), "a", "3", None, 1j)
    # past 2^53 a float rounds the modulus: each value must answer as the int it equals
    big = (float(2**53), Decimal(2**53), float(2**54), Decimal(2**53 + 1), Decimal(2**53) + Decimal("0.5"), 2**53 + 1)
    near = range(2**53 - 2, 2**53 + 3)
    sets = (odd, everything, ps.make(6, {1, 3}, {4}, {7}), lattice.up_closure([2, 3]))
    for s in (*sets, ps.progression(2**53 + 1, 0), ps.progression(2**53 + 1, 2**53), ~ps.progression(2**53 + 1, 0)):
        listed = frozenset(scan(s, 40)) | {n for n in (*near, 2**54) if n in s}
        for x in (*values, *_DECIMALS, *big):
            assert (x in s) == s.member(x) == (x in listed), (s, x)
    assert 3.0 in odd and True in odd and 4.0 not in odd and False not in odd


def test_membership_reads_a_value_by_its_exact_ratio():
    # Decimal("1e1000000") converted whole and compared with its int took 53 s; its ratio takes under 1 s.
    # The big value is read in a child interpreter killed after 5 s: an alarm waits for one long C call
    child = textwrap.dedent("""
        from decimal import Decimal
        from congruence_lattice import periodic_sets as ps
        from congruence_lattice.crt import Congruence
        big = Decimal("1e1000000")
        assert big in ps.progression(5, 0) and ps.progression(5, 0).member(big)
        assert big not in ps.progression(5, 0).residues and Congruence(5, 0).satisfied_by(big)
    """)
    src = os.path.dirname(os.path.dirname(ps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=5)
    # the answers of the rule that converted every value with int() and compared
    values = (3.0, True, 2.5, float("nan"), float("inf"), "3", Fraction(6, 2), Decimal("3.0"), Decimal("NaN"), 3 + 0j)
    s, members = ps.progression(3, 0), [3.0, Fraction(6, 2), Decimal("3.0")]
    assert [x for x in values if x in s] == [x for x in values if s.member(x)] == members
    assert [x for x in values if Congruence(3, 0).satisfied_by(x)] == members
    assert not any(x in s.residues for x in values)


def test_enumerate_up_to():
    assert ps.progression(4, 1).enumerate_up_to(10) == [1, 5, 9]
    assert ps.make(1, ()).enumerate_up_to(100) == []


# -- named constructors ----------------------------------------------------------


def test_divisibility_union_residues():
    want = sorted(n for n in range(30) if n % 6 == 0 or n % 10 == 0)
    assert want == [0, 6, 10, 12, 18, 20, 24]
    u = ps.divisibility_union({6, 10})
    assert u.modulus == 30 and sorted(u.residues) == want
    # derived by direct scan
    assert u.enumerate_up_to(60) == [n for n in range(61) if n % 6 == 0 or n % 10 == 0]
    assert u.enumerate_up_to(30) == [0, 6, 10, 12, 18, 20, 24, 30]


def test_divisibility_union_needs_a_divisor():
    with pytest.raises(ValueError, match="^divisibility_union needs at least one divisor$"):
        ps.divisibility_union([])


def test_non_divisibility():
    assert ps.non_divisibility(2) == ps.progression(2, 1)
    with pytest.raises(ValueError):
        ps.non_divisibility(1)


def test_progression_one_is_everything():
    alln = ps.progression(1, 0)
    assert scan(alln, 5) == [0, 1, 2, 3, 4, 5]


# -- boolean operations ----------------------------------------------------------


def test_intersect_progressions_derived_by_scan():
    got = ps.progression(4, 2).intersect(ps.progression(6, 2))
    want = [n for n in range(25) if n % 4 == 2 and n % 6 == 2]
    assert want == [2, 14]  # frozen from the scan
    assert got == ps.progression(12, 2)
    assert got.enumerate_up_to(24) == want


def test_intersect_disjoint_parities():
    got = ps.progression(2, 0).intersect(ps.progression(2, 1))
    assert got.is_empty()


def test_intersect_coprime_moduli():
    assert ps.progression(3, 0).intersect(ps.progression(5, 0)) == ps.progression(15, 0)


def _random_set(rng, max_mod=12, max_edit=40):
    m = rng.randint(1, max_mod)
    residues = {r for r in range(m) if rng.random() < rng.random()}
    added = {rng.randint(0, max_edit) for _ in range(rng.randint(0, 2))}
    removed = {rng.randint(0, max_edit) for _ in range(rng.randint(0, 2))} - added
    return ps.make(m, residues, added, removed)


def test_operations_agree_with_pointwise_semantics():
    rng = random.Random(1201)
    for _ in range(400):
        a = _random_set(rng)
        b = _random_set(rng)
        hi = 3 * a.modulus * b.modulus + max(a.max_edit(), b.max_edit())
        for n in range(hi + 1):
            assert (n in a.intersect(b)) == ((n in a) and (n in b))
            assert (n in a.union(b)) == ((n in a) or (n in b))
            assert (n in a.complement()) == (n not in a)


def test_de_morgan_and_double_complement():
    rng = random.Random(77)
    for _ in range(200):
        a = _random_set(rng)
        b = _random_set(rng)
        assert a.complement().complement() == a
        assert a.intersect(b).complement() == a.complement().union(b.complement())
        assert a.union(b).complement() == a.complement().intersect(b.complement())


def test_operators_are_aliases():
    a = ps.progression(4, 2)
    b = ps.progression(6, 2)
    assert (a & b) == a.intersect(b)
    assert (a | b) == a.union(b)
    assert ~a == a.complement()


@pytest.mark.parametrize("other", [3, {1}, None, 2.5, "a", frozenset({1, 5})])
def test_an_operand_that_is_no_periodic_set_is_refused_with_type_error(other):
    s = ps.make(6, [1, 5])
    for apply in (
        lambda: s & other,
        lambda: other & s,
        lambda: s | other,
        lambda: other | s,
        lambda: s.intersect(other),
        lambda: s.meets_infinitely(other),
        lambda: s.meets_infinitely(s, other),
    ):
        with pytest.raises(TypeError):
            apply()


# -- product form: counts without the lcm period -----------------------------------


def peak_bytes(build):
    """(result, tracemalloc peak) of build()."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complement_of_a_large_progression_is_counted_not_listed():
    count, peak = peak_bytes(lambda: len((~ps.progression(10**7, 3)).residues))
    assert count == 10**7 - 1 and peak < 2**20


def test_up_closure_of_six_primes_near_100():
    primes = [83, 89, 97, 101, 103, 107]
    m = prod(primes)
    (s, count, closed), peak = peak_bytes(
        lambda: (s := lattice.up_closure(primes), len(s.residues), lattice.is_upward_closed(s))
    )
    assert s.modulus == m and count == m - prod(p - 1 for p in primes) and closed
    assert s.removed == {0} and not s.added and peak < 2**20
    assert 0 not in s and 101 * 7 in s and 2 * 3 * 5 * 7 * 11 not in s


def test_union_of_coprime_progressions_by_inclusion_exclusion():
    classes = ((97, 3), (101, 5), (103, 7))
    (u, count), peak = peak_bytes(
        lambda: (u := ps.progression(97, 3) | ps.progression(101, 5) | ps.progression(103, 7), len(u.residues))
    )
    a, b, c = (m for m, _ in classes)
    assert u.modulus == a * b * c and count == b * c + a * c + a * b - a - b - c + 1
    assert peak < 2**20
    rng = random.Random(8)
    for n in (rng.randrange(10**9) for _ in range(200)):
        assert (n in u) == any(n % m == r for m, r in classes)


def test_a_union_builds_no_set_but_its_result(monkeypatch):
    # (modulus, residues, added, removed): edits added, removed and both, then the classes
    # of three coprime moduli near 100, whose union has a period near 10^6
    described = [(6, {1, 2}, {3}, ()), (10, {0, 5, 7}, (), {5}), (4, {1, 3}, {8}, {5}), (15, {0, 3, 11}, {2}, {3})]
    described += [(97, {3}, (), ()), (101, {5}, (), ()), (103, {7}, (), ())]
    sets = [ps.make(m, r, a, d) for m, r, a, d in described]

    def holds(n, m, r, added, removed):
        return n in added or (n % m in r and n not in removed)

    def refuse(self):
        raise AssertionError("a union built a complement")

    built, init = [], ps.PeriodicSet.__init__

    def counted(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(ps.PeriodicSet, "complement", refuse)
    monkeypatch.setattr(ps.PeriodicSet, "__invert__", refuse)
    monkeypatch.setattr(ps.PeriodicSet, "__init__", counted)
    edited, classes = range(4), range(4, 7)
    for trio in [(i, j, k) for i in edited for j in edited for k in edited if i != j != k != i] + [tuple(classes)]:
        a, b, c = (sets[i] for i in trio)
        built.clear()
        pair, whole = a | b, (a | b) | c
        assert len(built) == 3  # the pair twice, then the whole
        width = 2 * lcm(*(described[i][0] for i in trio)) + 9 if trio[0] in edited else 3000
        for n in range(width):
            got = [holds(n, *described[i]) for i in trio]
            assert (n in pair) == (got[0] or got[1]) and (n in whole) == any(got), (trio, n)
    count = 101 * 103 + 97 * 103 + 97 * 101 - 97 - 101 - 103 + 1
    assert whole.modulus == 97 * 101 * 103 and len(whole.residues) == count


def test_the_fold_builds_a_view_only_for_its_result(monkeypatch):
    # unions and unions of multiples fold their operands' parts as they are stored, so each builds
    # one view, its result; a comparison v <= w that the meet decides builds none when neither v
    # nor ~w is a complemented product of several parts, the one product listed through a view
    a, b, c = ps.progression(97, 3), ps.progression(101, 5), ps.progression(103, 7)
    pair = a | b
    builds = {
        "a | b": lambda: a | b,
        "(a | b) | c": lambda: pair | c,
        "divisibility_union, coprime": lambda: ps.divisibility_union([7, 11, 13, 17]),
        "divisibility_union, shared factors": lambda: ps.divisibility_union([4, 6, 9, 10]),
        "divisibility_union with 1": lambda: ps.divisibility_union([1, 6]),
        "up_closure, coprime": lambda: lattice.up_closure([83, 89, 97]),
        "up_closure, shared factors": lambda: lattice.up_closure([6, 10, 15]),
    }
    want = {name: build() for name, build in builds.items()}
    p, q = 2999, 3001
    compared = [  # (v, w, v <= w): v is one part or a product, w one part or a complemented product
        (ps.non_divisibility(15), ps.progression(3, 1) | ps.progression(5, 2), False),
        (ps.non_divisibility(p * q), ~(ps.progression(p, 0) & ps.progression(q, 0)), True),
        (ps.non_divisibility(7) & ps.non_divisibility(11), ps.non_divisibility(77), True),
        (ps.non_divisibility(15), ~ps.progression(15, 4), False),
    ]
    built, init, core, met = [], ps.ProductView.__init__, ps._core, []

    def counted(self, parts, co):
        built.append(self)
        init(self, parts, co)

    monkeypatch.setattr(ps.ProductView, "__init__", counted)
    monkeypatch.setattr(ps, "_core", lambda pairs: met.append(pairs) or core(pairs))
    for name, build in builds.items():
        built.clear()
        result = build()
        assert len(built) == 1 and result.residues is built[0] and result == want[name], name
    for s, t, below in compared:
        built.clear()
        met.clear()
        assert (s.residues <= t.residues) == below and met and not built, (s, t)


def test_a_complemented_product_meets_other_sets_through_its_smaller_side():
    # up_closure and a union of classes are complements of products with about
    # 7 * 10^5 and 10^6 members; meeting them must list their own 2-3 * 10^4
    up = lattice.up_closure([83, 89, 97])
    union = ps.progression(97, 3) | ps.progression(101, 5) | ps.progression(103, 7)
    even = ps.progression(2, 0)
    (fip, status, meets, count, odd_count), peak = peak_bytes(
        lambda: (
            fl.has_fip(fl.FilterBase([up])),
            fl.divides_check(fl.FilterBase([up]), fl.FilterBase([even])).status,
            up.meets_infinitely(even),
            len((up & even).residues),
            len((union & ps.progression(2, 1)).residues),
        )
    )
    assert fip and status is fl.DividesStatus.PASSES and meets
    assert count == 83 * 89 * 97 - 82 * 88 * 96
    assert odd_count == 101 * 103 + 97 * 103 + 97 * 101 - 97 - 101 - 103 + 1
    assert peak < 16 * 2**20


def test_a_family_of_one_set_lists_nothing(monkeypatch):
    # the meet of one set is the set itself; listing the smaller side of this
    # complemented product would take about 4.8 * 10^8 residues
    up = lattice.up_closure([89, 97, 101, 103, 107])

    def listed(s):
        raise LookupError

    monkeypatch.setattr(ps, "_factors", listed)
    try:
        fip, meets, base = fl.has_fip([up]), up.meets_infinitely(), fl.FilterBase((up,))
    except LookupError:  # reported without the traceback, whose arguments' reprs list the set
        fip = None
    assert fip is True and meets
    assert base.members == (up,)


def test_a_complemented_product_met_only_with_itself_or_everything_is_kept(monkeypatch):
    # such a product is the whole meet, so a result keeps its parts and a read reads them; listing the
    # smaller side took 3.6 * 10^6 residues for u and raised MemoryError under 1 GiB for u5
    def listed(*args):
        raise LookupError

    u, u5 = lattice.up_closure([89, 97, 101, 103]), lattice.up_closure([89, 97, 101, 103, 107])
    everything = ps.make(1, [0])
    with monkeypatch.context() as patch:
        patch.setattr(ps, "_factors", listed)
        patch.setattr(ps.ProductView, "__iter__", listed)
        try:
            got = [(u & u, u), (u & everything, u), (everything & u, u), (~u | ~u, ~u), (ps._meet([u] * 3), u)]
            got += [(u5 & u5, u5)]
            residues = fl.feasible_residues([u5], 6)
        except LookupError:  # reported without the traceback, whose arguments' reprs list the set
            got = residues = None
    assert got is not None and all(r == s and r.residues.parts == s.residues.parts for r, s in got)
    assert residues == {0, 1, 2, 3, 4, 5}


def test_a_complemented_product_beside_a_plain_part_is_still_listed(monkeypatch):
    # only a product alone is kept whole: beside the even numbers its smaller side is listed, once
    up, even = lattice.up_closure([83, 89, 97]), ps.progression(2, 0)
    factors, sides = ps._factors, []
    monkeypatch.setattr(ps, "_factors", lambda inside: sides.append(len(inside)) or factors(inside))
    assert len((up & even).residues) == 83 * 89 * 97 - 82 * 88 * 96 and len(sides) == 1


def test_decisions_try_the_parts_of_a_complemented_product_and_list_only_a_small_side(monkeypatch):
    # up_closure of k primes from 89 is the complement of a product of k parts, and its complement
    # that product; each side holds 10^5 residues or more, so every decision on them tries the
    # parts one at a time, and listing or walking either would raise
    def listed(*args):
        raise LookupError

    primes, answers = (89, 97, 101, 103, 107, 109, 113, 127), {}
    for k in range(2, 9):
        up, even = lattice.up_closure(primes[:k]), ps.progression(2, 0)
        rest = ~up  # the non-multiples of every prime
        p, q = primes[:2]  # the same set with its first two parts as one at pq
        merged = ~ps.make(p * q, {x for x in range(p * q) if x % p == 0 or x % q == 0})
        for r in primes[2:k]:
            merged &= ps.non_divisibility(r)
        fewer = ~(up | ps.progression(primes[k - 1], 1))  # rest less one class of the last prime
        v, w, x = rest.residues, merged.residues, fewer.residues
        assert len(v.parts) == k and len(w.parts) == k - 1 and len(x.parts) == k and not v.co
        with monkeypatch.context() as patch:
            patch.setattr(ps, "_factors", listed)
            patch.setattr(ps.ProductView, "__iter__", listed)
            try:
                answers[k] = (
                    up.meets_infinitely(even),
                    up.meets_infinitely(),
                    not up.meets_infinitely(rest),
                    up.meets_infinitely(ps.progression(3, 1), up, even),
                    fl.has_fip([up, even]) and fl.has_fip([rest, up, ps.progression(5, 2)]) is False,
                    fl.divides_check(fl.FilterBase([up]), fl.FilterBase([even])).status is fl.DividesStatus.PASSES,
                    fl.divides_check(fl.FilterBase([up]), fl.FilterBase([rest])) == (fl.DividesStatus.FAILS, up),
                    v == w and w == v and v <= w and w >= v and not v != w,
                    x <= v and x < v and not v <= x and v > x and v != x,
                    fl.FilterBase([up, even]).members == (up, even),
                    fl.extend(fl.FilterBase([even]), up) == fl.FilterBase([even, up]),
                    fl.divides_check(fl.FilterBase([up]), fl.FilterBase([even, up]))
                    == (fl.DividesStatus.PASSES, None),
                    fl.extend(fl.FilterBase([even, up]), rest) is None,
                )
            except LookupError:  # reported without the traceback, whose arguments' reprs list the set
                answers[k] = None
    assert answers == {k: (True,) * 13 for k in range(2, 9)}
    # thirty complemented classes mod 30 leave nothing; each lists its one-member smaller side,
    # where trying the parts of each in turn would open 3^30 tries
    factors, sides = ps._factors, []
    monkeypatch.setattr(ps, "_factors", lambda inside: sides.append(len(inside)) or factors(inside))
    family = [~(ps.progression(2, x % 2) & ps.progression(3, x % 3) & ps.progression(5, x % 5)) for x in range(30)]
    assert fl.has_fip(family) is False and sides == [1] * 30


def test_a_fold_tries_every_complemented_product_or_lists_each_once(monkeypatch):
    # u = up_closure([7, 11, 13]) is the complement of a product of 3 parts, whose smaller side holds
    # 281 residues mod 1001; x, the complement of a product of 3 classes mod 30, holds 1.  Equal products
    # are met once, so five or six copies of u open 3 tries, not 3^5 = 243 or 729, and u is tried.  With
    # x, whose side is the smallest, x is listed and u is tried; a product is listed once at most
    u, even = lattice.up_closure([7, 11, 13]), ps.progression(2, 0)
    x = ~(ps.progression(2, 0) & ps.progression(3, 0) & ps.progression(5, 0))
    factors, join, sides, joins = ps._factors, ps._join, [], []
    monkeypatch.setattr(ps, "_factors", lambda inside: sides.append(len(inside)) or factors(inside))
    monkeypatch.setattr(ps, "_join", lambda p, q: joins.append(p) or join(p, q))
    got = []
    families = ([u] * 5 + [~u], [u] * 6 + [~u], [u] * 5 + [x, ~u], [u] * 5 + [x, even])
    for family in families + ([even, u, u], [u, x, even]):
        sides.clear()
        joins.clear()
        got.append((fl.has_fip(family), sides[:], len(joins)))
    assert [(fip, sides) for fip, sides, _ in got] == [
        (False, []),  # tried: ~u is met first, so each of the first copy's 3 tries fails at its one join
        (False, []),  # tried: the six copies are met once, as one copy is
        (False, [1]),  # x listed, then each copy's tries fail
        (True, [1]),
        (True, []),
        (True, [1]),
    ]
    assert got[0][2] == got[1][2] == 3, got


def test_the_residues_of_a_complemented_product_list_nothing(monkeypatch):
    # the meet of this base is a complemented product of five parts; its smaller side
    # holds about 4.8 * 10^8 residues, and the parts alone answer every modulus
    base = fl.FilterBase([lattice.up_closure([89, 97, 101, 103, 107])])

    def listed(view):
        raise LookupError

    monkeypatch.setattr(ps, "_factors", listed)
    try:
        residues = {m: fl.feasible_residues(base, m) for m in range(2, 13)}
        verdict = fl.congruent_mod(base, [ps.progression(2, 1)], 2)
    except LookupError:  # reported without the traceback, whose arguments' reprs list the set
        residues = verdict = None
    assert residues == {m: set(range(m)) for m in range(2, 13)}
    assert verdict is fl.CongruenceVerdict.UNDETERMINED


def test_reads_and_decisions_on_up_closures_near_100_try_their_parts(monkeypatch):
    # a base of up_closure(primes) and a class is read by trying the up-closure's parts, one read mod m
    # a try, where its meet lists the smaller side (3.6 * 10^6 residues at four primes); eleven copies of
    # u4 are met once, so against its complement they open 4 tries, not 4^11
    def listed(*args):
        raise LookupError

    u4, even, verdict = lattice.up_closure([89, 97, 101, 103]), ps.progression(2, 0), fl.CongruenceVerdict
    primes = (89, 97, 101, 103, 107, 109, 113, 127)
    with monkeypatch.context() as patch:
        patch.setattr(ps, "_factors", listed)
        patch.setattr(ps.ProductView, "__iter__", listed)
        try:
            got = [not fl.has_fip([u4] * 11 + [~u4]), fl.FilterBase([u4] * 11 + [even]).members[-1] is even]
            for k in range(2, 9):
                up, four = lattice.up_closure(primes[:k]), ps.progression(30, 4)
                base = fl.FilterBase([up, even])
                got += [
                    fl.feasible_residues(base, 6) == {0, 2, 4},
                    fl.feasible_residues([even, up], 30) == set(range(0, 30, 2)),
                    fl.congruent_mod(base, [up, ps.progression(3, 1)], 6) is verdict.UNDETERMINED,
                    fl.congruent_mod(base, [ps.progression(2, 1), up], 30) is verdict.NOT_CONGRUENT,
                    fl.congruent_mod([up, four], fl.FilterBase([four, up, up]), 30) is verdict.CONGRUENT,
                ]
        except LookupError:  # reported without the traceback, whose arguments' reprs list the set
            got = None
    assert got == [True] * 37


def test_a_read_lists_where_its_tries_would_cost_more(monkeypatch):
    # each product holds 8 residues of about 10^3 and 10^4, so a read mod 99484 lists both (16 residues)
    # rather than run 9 reads of range(99484); the answer is that of the meet read as one set
    big = 7 * 11 * 17 * 19 * 4
    dense = [~(ps.make(7, {0, 1}) & ps.make(11, {0, 1}) & ps.make(13, {0, 1})),
             ~(ps.make(17, {0, 1}) & ps.make(19, {0, 1}) & ps.make(23, {0, 1}))]
    want = ps._residues_met([dense[0] & dense[1]], big)
    factors, sides = ps._factors, []
    monkeypatch.setattr(ps, "_factors", lambda inside: sides.append(len(inside)) or factors(inside))
    assert fl.feasible_residues(dense, big) == want and sides == [8, 8]


def test_repr_lists_few_residues_and_never_walks_a_view():
    up = lattice.up_closure([89, 97, 101, 103, 107])  # about 4.8 * 10^8 residues
    start = time.perf_counter()
    text = repr(up)
    assert time.perf_counter() - start < 0.1
    assert text == (
        "PeriodicSet(mod=9609573593, residues=ProductView(moduli=[89, 97, 101, 103, 107], "
        "co=True, len=475595993), add=[], remove=[0])"
    )
    assert repr(ps.make(100, range(50))) == (
        "PeriodicSet(mod=100, residues=ProductView(moduli=[100], co=False, len=50), add=[], remove=[])"
    )
    assert repr(ps.make(10, {3, 1}, {2}, {13})) == "PeriodicSet(mod=10, residues=[1, 3], add=[2], remove=[13])"


def test_a_set_and_its_base_hash_without_walking_a_view(monkeypatch):
    def walk(view):
        raise AssertionError("a view was iterated")

    s, again = (lattice.up_closure([89, 97, 101, 103, 107]) for _ in "ab")  # about 4.8 * 10^8 residues
    monkeypatch.setattr(ps.ProductView, "__iter__", walk)
    base = fl.FilterBase((s,))
    assert s is not again and hash(s) == hash(again) and {s: "up"}[again] == "up"
    assert hash(base) == hash(fl.FilterBase((again,))) and {base: "base"}[fl.FilterBase((again,))] == "base"
    with pytest.raises(TypeError):
        hash(s.residues)


def test_sets_of_one_modulus_and_count_hash_apart():
    # the residue sum mod the period tells the 2003 classes apart
    assert len({hash(ps.progression(2003, r)) for r in range(2003)}) == 2003


def test_a_view_and_its_frozenset_hash_equal_and_so_do_their_complements():
    upward = [n for n in range(30) if n % 2 == 0 or n % 3 == 0 or n % 5 == 0]
    mixed = [n for n in range(36) if n % 4 == 1 and n % 9 != 2]
    cases = (
        (ps.progression(2, 1) & ps.progression(3, 1), ps.make(6, [1])),
        (ps.progression(4, 1) & ~ps.progression(9, 2), ps.make(36, mixed)),
        (lattice.up_closure([2, 3, 5]), ps.make(30, upward, removed={0})),  # a complemented view
    )
    for view, listed in cases:
        co = ps.make(view.modulus, set(range(view.modulus)) - listed.residues, listed.removed, listed.added)
        for a, b in ((view, listed), (~view, co), (~view, ~listed), (~listed, co)):
            assert a == b and hash(a) == hash(b)


def test_views_iterate_by_crt_and_agree_with_frozensets():
    # one class modulo about 10^13: iteration must not scan the period
    a, b = 10**6 + 3, 10**7 + 19
    s = ps.progression(a, 5) & ps.progression(b, 7)
    assert s.modulus == a * b and len(s.residues) == 1
    (x,) = s.residues
    assert x % a == 5 and x % b == 7
    cases = (
        (ps.progression(4, 1) | ps.progression(9, 2), lambda n: n % 4 == 1 or n % 9 == 2),
        (ps.progression(4, 1) & ~ps.progression(9, 2), lambda n: n % 4 == 1 and n % 9 != 2),
        (~ps.progression(35, 3), lambda n: n % 35 != 3),
    )
    for s, want in cases:
        view = s.residues
        listed = frozenset(n for n in range(s.modulus) if want(n))
        assert type(view) is ps.ProductView
        assert sorted(view) == sorted(listed) and len(view) == len(listed)
        assert view == listed and listed == view and hash(s) == hash(ps.make(s.modulus, listed))
        shifted = frozenset((n + 1) % s.modulus for n in listed)  # as many members, not the same
        assert view != shifted and shifted != view
        assert type(view | {0}) is frozenset and view - listed == frozenset()


def test_a_view_equals_no_integer():
    view = ps.progression(6, 1).residues
    assert (view == 5) is False and view != 5


def test_a_view_holds_only_its_residues_as_a_frozenset_of_them_does():
    # Set semantics: a view holds its residues only, so {7} is not the residues {1} mod 6
    s = ps.make(6, {1})
    view = s.residues
    assert view != {7} and (view & {7}) == frozenset() and not view.isdisjoint({1, 7})
    assert not ps.make(12, {7}).residues <= view and ps.make(12, {1, 7}).residues >= view
    assert "a" not in view and view != {"a"} and view.isdisjoint({"a"})
    # past 2^53, float(2**53) % float(2**53 + 1) is 0.0: a view answers as the int the value equals
    wide = (ps.progression(2**53 + 1, 0), ps.progression(2**53 + 1, 2**53), ps.progression(2**64 + 13, 2**53 + 1))
    big = (float(2**53), Decimal(2**53), float(2**53 + 2), Decimal(2**53 + 1), Decimal(2**53) + Decimal("0.5"), 2**53)
    for t in (s, ~s, ps.make(1, {0}), ps.progression(4, 1) | ps.progression(9, 2), *wide):
        v, listed = t.residues, frozenset(t.residues)
        edges = (-5, -1, 0, 1, 7, v.modulus - 1, v.modulus, v.modulus + 1, 1.0, 1.5, "a", None, 1j, (1,))
        for x in (*edges, *_DECIMALS, *big):
            assert (x in v) == (x in listed), (v, x)
    assert float(2**53) not in wide[0].residues and 2**53 not in wide[0].residues
    # a PeriodicSet reduces n itself, and so do its redundant edits
    assert 7 in s and s.member(13) and 8 not in s
    edited = ps.make(6, {1}, added={7, 8}, removed={13, 14})
    assert edited.added == {8} and edited.removed == {13}
    assert hash(s) == hash(ps.make(12, {1, 7})) and s.to_json()["residues"] == [1]


def _random_expression(rng, depth):
    """A random ~, & and | expression of depth <= `depth` over one-class sets, up_closure and make."""
    if depth == 0 or rng.random() < 0.3:
        m = rng.randint(1, 16)
        return rng.choice(
            (
                lambda: ps.progression(m, rng.randrange(m)),
                lambda: ps.non_divisibility(max(m, 2)),
                lambda: lattice.up_closure(rng.sample(range(2, 17), rng.randint(1, 3))),
                lambda: ps.make(m, {r for r in range(m) if rng.random() < 0.5}),
            )
        )()
    a, op = _random_expression(rng, depth - 1), rng.choice("~&|")
    if op == "~":
        return ~a
    b = _random_expression(rng, depth - 1)
    return a & b if op == "&" else a | b


_COMPARISONS = (
    lambda a, b: a == b,
    lambda a, b: a != b,
    lambda a, b: a < b,
    lambda a, b: a <= b,
    lambda a, b: a > b,
    lambda a, b: a >= b,
)


def test_views_of_one_modulus_compare_as_frozensets_of_their_members(monkeypatch):
    # each same-modulus pair is decided by the meet or by the walk, chosen by the size rule;
    # both routes must be taken often, and every answer must be a frozenset's
    core, calls, routes, equal = ps._core, [], {"meet": 0, "walk": 0}, 0
    monkeypatch.setattr(ps, "_core", lambda views: calls.append(views) or core(views))
    rng, by_modulus = random.Random(32), {}
    while sum(map(len, by_modulus.values())) < 1000:
        view = _random_expression(rng, 3).residues
        if view.modulus <= 20000:
            by_modulus.setdefault(view.modulus, []).append((view, frozenset(view)))
    for views in by_modulus.values():
        for (a, fa), (b, fb) in ((x, y) for x in views[:40] for y in views[:40]):
            if (a.parts, a.co) != (b.parts, b.co):
                met = len(calls)
                a <= b
                routes["meet" if len(calls) > met else "walk"] += 1
                equal += fa == fb
            for compare in _COMPARISONS:
                assert compare(a, b) == compare(fa, fb), (a, b)
    assert routes["meet"] > 1000 and routes["walk"] > 1000 and equal > 100, (routes, equal)


def test_equal_sets_in_different_product_forms_compare_by_the_meet(monkeypatch):
    # a is one complemented part at pq, b the complement of a product of two classes; a walk
    # would test pq - 1 members per comparison, and a dict lookup would walk them again
    p, q = 2999, 3001
    a, b = ps.non_divisibility(p * q), ~(ps.progression(p, 0) & ps.progression(q, 0))
    walk, yielded = ps.ProductView.__iter__, []

    def counted(view):
        for x in walk(view):
            yielded.append(x)
            yield x

    monkeypatch.setattr(ps.ProductView, "__iter__", counted)
    v, w = a.residues, b.residues
    assert (v.parts, v.co) != (w.parts, w.co)
    assert a == b and b == a and {a: 1}[b] == 1
    assert v <= w and v >= w and w <= v and w >= v and not v < w and not w > v
    # b == a, v >= w and w <= v each meet w first, and _factors lists w's one-member inside
    assert len(yielded) <= 3, len(yielded)


def test_a_small_view_against_large_parts_is_walked_not_met(monkeypatch):
    # the meet would lift one class of q to pq; the walk tests the one member
    p, q = 99991, 100003
    c, d = ps.progression(p, 0) & ps.progression(q, 0), ps.make(p * q, (0,))

    def met(views):
        raise AssertionError("a meet was taken")

    monkeypatch.setattr(ps, "_core", met)
    v, w = c.residues, d.residues
    assert (v.parts, v.co) != (w.parts, w.co)
    assert c == d and d == c and {c: 1}[d] == 1 and {d: 1}[c] == 1
    assert v <= w and v >= w and w <= v and w >= v and not v != w


def test_minimal_period_factors_once_per_call(monkeypatch):
    # the periods of R are the multiples of its least one, so each prime is tried once
    calls = []
    factorize = ps._factorize
    monkeypatch.setattr(ps, "_factorize", lambda n: calls.append(n) or factorize(n))
    residues = frozenset(x for x in range(360) if x % 6 in (1, 5))  # lifted from {1, 5} mod 6
    assert ps._minimal_period(360, residues) == (6, frozenset({1, 5}))
    assert calls == [120]
    assert ps._minimal_period(360, frozenset({0, 7})) == (360, frozenset({0, 7})) and calls == [120, 2]
    assert ps._minimal_period(12, frozenset()) == (1, frozenset()) and len(calls) == 2


def test_every_set_stores_a_view_and_hashes_its_residue_count_and_sum(monkeypatch):
    # the sets the periodic oracle suite checks (~, &, |, divisibility_union, up_closure), and
    # make, progression and non_divisibility at modulus 1 and beyond; sum() walks each view by CRT
    seen = []
    monkeypatch.setattr(oracles, "periodic_mismatches", lambda got, *rest: seen.append(got) or [])
    oracles.run_suite("periodic", cases=200)
    evens, odds = ps.progression(2, 0), ps.progression(2, 1)
    nothing, everything = evens & odds, evens | odds
    made = (ps.make(1), ps.make(1, [0]), ps.make(6, range(6)), ps.make(10, {3, 1}, {2}, {13}), ps.make(36, [1, 5]))
    named = (ps.progression(1, 0), ps.progression(35, 3), ps.non_divisibility(6), ~ps.make(1), nothing, everything)
    assert len(seen) == 6 * 200 and (nothing.modulus, everything.modulus) == (1, 1)
    for s in seen + [*made, *named]:
        r = s.residues
        assert type(r) is ps.ProductView and r.modulus == s.modulus, s
        assert hash(s) == hash((s.modulus, len(r), sum(r) % s.modulus, s.added, s.removed)), s
    assert not hasattr(ps, "_structure")


def test_a_view_yields_members_without_listing_a_part():
    # 10^12 + 39 is prime: no part at that modulus can be listed, plain or complemented
    big = 10**12 + 39
    cases = (
        ps.progression(7, 3) & ~ps.progression(big, 5),
        lattice.up_closure([7, big]),  # a complemented product: parts after the first are walked
        ~ps.progression(big, 3),
    )
    for s in cases:
        got, peak = peak_bytes(lambda: list(islice(s.residues, 3)))
        assert len(set(got)) == 3 and all(0 <= x < s.modulus and x in s.residues for x in got)
        assert peak < 2**16


def test_is_upward_closed_decides_each_part():
    rng = random.Random(4242)
    for _ in range(150):
        m1, m2 = rng.choice((2, 4, 8, 3, 9)), rng.choice((5, 7))
        a = ps.make(m1, rng.sample(range(m1), rng.randint(1, m1)))
        b = ps.make(m2, rng.sample(range(m2), rng.randint(1, m2)))
        for s in (a & b, a | b, ~(a & b), ~(a | b), ~a & ~b):
            assert lattice.is_upward_closed(s) == oracles.upward_scan(s), s
    # a set holding 1 but not everything is refused without listing a complement
    refused, peak = peak_bytes(lambda: lattice.is_upward_closed(ps.non_divisibility(10**6)))
    assert refused is False and peak < 2**20


def test_only_periodic_sets_reads_the_storage():
    assert lattice.is_upward_closed is ps.is_upward_closed
    assert not hasattr(ps, "_part_sets")
    for module in (lattice, fl):
        assert not {"_structure", "_factors", "ProductView"} & set(vars(module)), module.__name__


# -- canonical form is semantic identity ---------------------------------------


def test_equal_membership_means_structural_equality():
    rng = random.Random(5150)
    for _ in range(200):
        a = _random_set(rng)
        # re-encode with a blown-up modulus and redundant edits
        k = rng.randint(1, 4)
        lifted = {r + i * a.modulus for r in a.residues for i in range(k)}
        b = ps.make(a.modulus * k, lifted, a.added, a.removed)
        assert a == b
        assert hash(a) == hash(b)


def test_canonicalize_idempotent():
    rng = random.Random(999)
    for _ in range(200):
        a = _random_set(rng)
        again = ps.make(a.modulus, a.residues, a.added, a.removed)
        assert again == a


def test_is_infinite_matches_enumeration_criterion():
    rng = random.Random(31337)
    for _ in range(300):
        a = _random_set(rng)
        hi = 2 * a.modulus + a.max_edit()
        has_large = any(n > a.modulus + a.max_edit() for n in a.enumerate_up_to(hi))
        assert a.is_infinite() == has_large


def test_is_empty_examples():
    assert ps.progression(2, 0).intersect(ps.progression(2, 1)).is_empty()
    assert ps.progression(5, 3).is_infinite()
    assert not ps.make(1, (), {1, 2}, ()).is_infinite()


# -- JSON ------------------------------------------------------------------------


def test_json_round_trip_is_canonical():
    rng = random.Random(404)
    for _ in range(100):
        a = _random_set(rng)
        data = a.to_json()
        assert data["residues"] == sorted(data["residues"])
        assert ps.PeriodicSet.from_json(data) == a


def test_json_accepts_non_canonical_input():
    s = ps.PeriodicSet.from_json({"modulus": 4, "residues": [0, 2], "add": [8], "remove": []})
    assert s == ps.progression(2, 0)


def test_json_rejects_missing_modulus():
    with pytest.raises(ValueError):
        ps.PeriodicSet.from_json({"residues": [0]})


def test_json_rejects_a_field_that_is_no_array():
    with pytest.raises(ValueError, match='^periodic set JSON field "residues": expected an array, got 5$'):
        ps.PeriodicSet.from_json({"modulus": 3, "residues": 5})
