"""Filter-base laboratory: FIP decisions, feasible residues, divisibility checks."""

import random
from math import gcd, lcm

import pytest

from congruence_lattice import filter_lab as fl, lattice, periodic_sets as ps
from congruence_lattice.filter_lab import (
    CongruenceVerdict,
    DividesStatus,
    FilterBase,
    NoWitnessSourceError,
)
from congruence_lattice.oracles import fip_scan


def nN(n):
    return ps.divisibility_union({n})


# -- base construction ------------------------------------------------------------


def test_base_rejects_empty_member():
    with pytest.raises(ValueError):
        FilterBase((ps.make(1, ()),))


def test_base_rejects_finite_intersection():
    with pytest.raises(ValueError):
        FilterBase((ps.progression(2, 0), ps.progression(2, 1)))
    with pytest.raises(ValueError):
        FilterBase((ps.make(1, (), {5, 10}, ()),))  # finite member


def test_members_that_are_not_sets_get_one_type_error():
    calls = (
        lambda: FilterBase((ps.progression(2, 0), 1)),
        lambda: fl.has_fip([1, 2]),
        lambda: fl.feasible_residues([1], 5),
        lambda: fl.extend(FilterBase(()), 1),
    )
    for call in calls:
        with pytest.raises(TypeError, match="^filter base members must be PeriodicSet, got int$"):
            call()


def test_empty_base_is_valid():
    # the meet of no members is everything: every infinite set extends it, and every residue is feasible
    base = FilterBase(())
    assert base.members == () and fl.has_fip(base)
    assert fl.extend(base, ps.progression(5, 3)) == FilterBase([ps.progression(5, 3)])
    assert fl.extend(base, ps.make(1, (), {4}, ())) is None
    assert fl.feasible_residues(base, 6) == set(range(6))


# -- has_fip ------------------------------------------------------------------------


def test_has_fip_examples():
    assert fl.has_fip([nN(2), nN(3)])
    assert not fl.has_fip([ps.progression(2, 0), ps.progression(2, 1)])
    # 17 is in both classes; the intersection is a full class mod 12
    meet = ps.progression(4, 1).intersect(ps.progression(6, 5))
    assert 17 in meet and meet == ps.progression(12, 5)
    assert fl.has_fip([ps.progression(4, 1), ps.progression(6, 5)])


def test_has_fip_agrees_with_scan():
    rng = random.Random(1111)
    from congruence_lattice.oracles import _random_member

    for _ in range(300):
        members = [_random_member(rng) for _ in range(rng.randint(1, 5))]
        assert fl.has_fip(members) == fip_scan(members)


# -- extend --------------------------------------------------------------------------


def test_extend_examples():
    base = FilterBase((nN(2),))
    bigger = fl.extend(base, nN(4))
    assert bigger is not None and len(bigger.members) == 2
    assert fl.extend(base, ps.progression(2, 1)) is None
    assert fl.extend(FilterBase(()), ps.progression(3, 1)).members == (ps.progression(3, 1),)


def test_extend_runs_the_fold_once(monkeypatch):
    # the constructor's check is the one decision: a base returned or None, one fold each
    calls, core = [], ps._core

    def counted(pairs):
        calls.append(pairs)
        return core(pairs)

    monkeypatch.setattr(ps, "_core", counted)
    monkeypatch.setattr(fl, "_core", counted)
    base = FilterBase([ps.non_divisibility(n) for n in (2, 3, 5, 7, 11)])
    odd_up = lattice.up_closure([89, 97, 101, 103])
    for b, s, extends in (
        (base, ps.progression(3, 1), True),
        (base, ps.progression(2, 0), False),
        (FilterBase([ps.progression(2, 0)]), odd_up, True),
        (FilterBase([ps.progression(2, 1)]), lattice.up_closure([2]), False),
        (base, ps.make(1, (), {4}), False),
    ):
        calls.clear()
        got, folds = fl.extend(b, s), len(calls)
        assert folds == 1, (b, s, folds)
        assert got == FilterBase(b.members + (s,)) if extends else got is None, (b, s)


def test_extend_never_enlarges_feasible_residues():
    rng = random.Random(2222)
    for _ in range(200):
        m1, m2 = rng.randint(2, 12), rng.randint(2, 12)
        base = FilterBase((ps.progression(m1, rng.randrange(m1)),))
        extra = ps.progression(m2, rng.randrange(m2))
        extended = fl.extend(base, extra)
        if extended is None:
            continue
        for m in range(2, 16):
            assert fl.feasible_residues(extended, m) <= fl.feasible_residues(base, m)


# -- feasible residues ------------------------------------------------------------------


def test_feasible_residues_examples():
    assert fl.feasible_residues(FilterBase((nN(2),)), 4) == {0, 2}
    assert fl.feasible_residues(FilterBase(()), 3) == {0, 1, 2}
    # 3, 9, 15, 21 alternate between 3 and 1 mod 4
    assert [x % 4 for x in (3, 9, 15, 21)] == [3, 1, 3, 1]
    assert fl.feasible_residues(FilterBase((ps.progression(6, 3),)), 4) == {1, 3}


def test_feasible_residues_matches_extension_definition():
    # the docstring's definition: r is feasible iff progression(m, r) extends the base
    rng = random.Random(3333)
    from congruence_lattice.oracles import _random_member

    for _ in range(200):
        members = [_random_member(rng) for _ in range(rng.randint(1, 4))]
        if not fl.has_fip(members):
            continue
        base = FilterBase(tuple(members))
        m = rng.randint(2, 60)
        want = {r for r in range(m) if fl.extend(base, ps.progression(m, r)) is not None}
        assert fl.feasible_residues(base, m) == want
        assert fl.feasible_residues(members, m) == want


def _fold(mask, width, g):
    """Bit t (t < g) set iff some bit t + j * g of the width-bit mask is; g divides width."""
    n = width // g
    while n > 1:  # OR the upper chunks of g bits onto the lower ones, halving their number
        h = n // 2
        mask = mask & (1 << h * g) - 1 | mask >> h * g
        n -= h
    return mask


def test_feasible_residues_of_unions_and_meets_of_wide_parts_agree_with_a_scan():
    # parts whose modulus m_i exceeds gcd(m_i, m), so a class mod gcd holds several lifts
    rng = random.Random(3434)
    moduli = (4, 8, 9, 12, 16, 18, 25, 27, 49)
    for _ in range(500):
        drawn = []
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(moduli)
            drawn.append((m, rng.sample(range(m), rng.randint(1, m - 1)), rng.random() < 0.5, rng.random() < 0.5))
        period = lcm(*(m for m, _, _, _ in drawn))
        s = mask = None
        for m, residues, co, join in drawn:
            t = ps.make(m, residues)
            # the members on one period, by repeating the m bits of the residues
            bits = sum(1 << x for x in residues) * (((1 << period) - 1) // ((1 << m) - 1))
            if co:
                t, bits = ~t, ~bits & (1 << period) - 1
            if s is None:
                s, mask = t, bits
            else:
                s, mask = (s | t, mask | bits) if join else (s & t, mask & bits)
        for k in range(2, 61):
            # class r mod k meets the periodic set iff a member is r mod gcd(period, k), by CRT
            g = gcd(period, k)
            classes = _fold(mask, period, g)
            want = {r for r in range(k) if classes >> r % g & 1}
            assert fl.feasible_residues([s], k) == want, (drawn, k)


def test_feasible_residues_nonempty_on_valid_bases():
    rng = random.Random(4444)
    from congruence_lattice.oracles import _random_member

    for _ in range(100):
        members = [_random_member(rng) for _ in range(rng.randint(1, 5))]
        if not fl.has_fip(members):
            continue
        base = FilterBase(tuple(members))
        for m in range(2, 31):
            assert fl.feasible_residues(base, m)


def test_principal_carriers_multiply_like_residues():
    rng = random.Random(5555)
    for _ in range(200):
        a = rng.randint(1, 400)
        b = rng.randint(1, 400)
        m = rng.randint(2, 30)
        singleton = ps.make(1, (), {a * b}, ())
        assert fl.feasible_residues([singleton], m) == {(a % m) * (b % m) % m}


def test_feasible_residues_rejects_small_modulus():
    with pytest.raises(ValueError):
        fl.feasible_residues(FilterBase(()), 1)


# -- congruence verdicts ---------------------------------------------------------------


def test_congruent_mod_examples():
    one = FilterBase((ps.progression(4, 1),))
    three = FilterBase((ps.progression(4, 3),))
    evens = FilterBase((nN(2),))
    assert fl.congruent_mod(one, one, 4) is CongruenceVerdict.CONGRUENT
    assert fl.congruent_mod(one, three, 4) is CongruenceVerdict.NOT_CONGRUENT
    assert fl.congruent_mod(evens, evens, 4) is CongruenceVerdict.UNDETERMINED


# -- divides check ----------------------------------------------------------------------


def test_divides_check_examples():
    assert fl.divides_check(FilterBase((nN(6),)), FilterBase((nN(12),))).status is DividesStatus.PASSES
    report = fl.divides_check(FilterBase((nN(6),)), FilterBase((ps.progression(4, 1),)))
    assert report.status is DividesStatus.FAILS
    assert report.witness == nN(6)
    assert (
        fl.divides_check(FilterBase((ps.progression(2, 1),)), FilterBase((nN(2),))).status
        is DividesStatus.VACUOUS
    )


def test_divides_check_skips_edited_members():
    odd_after_five = ps.make(2, {1}, added={2}, removed={1})
    base = FilterBase((odd_after_five,))
    assert fl.divides_check(base, FilterBase((nN(2),))).status is DividesStatus.VACUOUS
    # the evens less 2 would be the witness if their periodic part were tested;
    # the up-closure's only edit is at 0, so it is tested and fails
    evens_but_two, threes = ps.make(2, {0}, removed={2}), lattice.up_closure([3])
    report = fl.divides_check(FilterBase((evens_but_two, threes)), FilterBase((ps.progression(6, 1),)))
    assert report.status is DividesStatus.FAILS and report.witness == threes


def test_divides_passes_for_refining_up_closures():
    # generators stay in [2, 50]; resample when the lcm (the representation
    # period of the up-closure) grows beyond desk scale
    rng = random.Random(6666)
    done = 0
    while done < 100:
        gens = rng.sample(range(2, 51), rng.randint(1, 4))
        multiples = sorted({g * k for g in gens for k in range(1, 50 // g + 1)})
        picks = rng.sample(multiples, min(len(multiples), rng.randint(1, 4)))
        if lcm(*gens, *picks) > 10**5:
            continue
        done += 1
        left = FilterBase((lattice.up_closure(gens),))
        right = FilterBase((lattice.up_closure(picks),))
        assert fl.divides_check(left, right).status is DividesStatus.PASSES


# -- witness construction ------------------------------------------------------------------


def test_nmax_witness_examples():
    assert fl.nmax_witness(4, 1, [3], [5, 7]) == 5
    # derived: multiples of 5 congruent 1 mod 3 are 10, 25, ...; 10 is even
    assert [x for x in range(1, 31) if x % 3 == 1 and x % 5 == 0] == [10, 25]
    assert fl.nmax_witness(3, 1, [2], [5]) == 25


def test_nmax_witness_rejects_shared_factor():
    with pytest.raises(ValueError):
        fl.nmax_witness(4, 2, [], [5])


def test_nmax_witness_rejects_non_integers():
    with pytest.raises(ValueError, match="expected an integer"):
        fl.nmax_witness(4, 1, [3.5], [5])
    with pytest.raises(ValueError, match="expected an integer"):
        fl.nmax_witness(4, 1, [], [True, 5])


def test_nmax_witness_requires_usable_pool():
    with pytest.raises(NoWitnessSourceError):
        fl.nmax_witness(4, 1, [3], [6, 9, 8])
    with pytest.raises(ValueError):
        fl.nmax_witness(4, 1, [], [])


def test_nmax_witness_is_the_least_of_a_scan_of_one_period():
    # every forbidden set of at most two divisors in [2, 8], every unit residue mod 2..7
    pool, divisors = range(2, 14), range(2, 9)
    forbiddens = [[], *([n] for n in divisors), *([a, b] for a in divisors for b in divisors if a < b)]
    for m in range(2, 8):
        for r in (r for r in range(1, m) if gcd(r, m) == 1):
            for forbidden in forbiddens:
                a = next(a for a in pool if gcd(a, m) == 1 and all(gcd(a, n) == 1 for n in forbidden))
                period = lcm(m, a, *forbidden)
                fits = (x for x in range(1, period + 1) if x % m == r and x % a == 0)
                want = next(x for x in fits if all(x % n for n in forbidden))
                assert fl.nmax_witness(m, r, forbidden, pool) == want, (m, r, forbidden)


def test_nmax_witness_random_inputs_verify():
    rng = random.Random(7777)
    done = 0
    while done < 100:
        m = rng.randint(2, 30)
        r = rng.choice([r for r in range(1, m) if gcd(m, r) == 1])
        forbidden = sorted({rng.randint(2, 12) for _ in range(rng.randint(0, 3))})
        pool = sorted({rng.randint(2, 50) for _ in range(rng.randint(1, 4))})
        usable = [a for a in pool if gcd(a, m) == 1 and all(gcd(a, n) == 1 for n in forbidden)]
        if not usable:
            continue
        done += 1
        x = fl.nmax_witness(m, r, forbidden, pool)
        a = usable[0]
        assert x % m == r
        assert x % a == 0
        assert all(x % n != 0 for n in forbidden)
        # least: nothing smaller in the class of (m, r) and (a, 0) works
        step = lcm(m, a)
        y = x - step
        while y > 0:
            assert any(y % n == 0 for n in forbidden)
            y -= step
