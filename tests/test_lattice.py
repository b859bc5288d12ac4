"""Divisibility-order operations: closures, antichains, convexity, levels."""

import random

import pytest

from congruence_lattice import lattice, periodic_sets as ps, primes
from congruence_lattice.lattice import FactorizationBudgetError
from congruence_lattice.oracles import upward_scan
from congruence_lattice.primes import factorize


def divisors_naive(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# -- closures -------------------------------------------------------------------


def test_up_closure_single():
    evens = lattice.up_closure([2])
    assert 0 not in evens
    assert evens.enumerate_up_to(10) == [2, 4, 6, 8, 10]


def test_up_closure_scan():
    up = lattice.up_closure([6, 10])
    want = [n for n in range(1, 61) if n % 6 == 0 or n % 10 == 0]
    assert want[:7] == [6, 10, 12, 18, 20, 24, 30]
    assert up.enumerate_up_to(60) == want


def test_up_closure_of_one_is_all_positives():
    alln = lattice.up_closure([1])
    assert 0 not in alln
    assert alln.enumerate_up_to(5) == [1, 2, 3, 4, 5]


def test_up_closure_rejects_empty_and_zero():
    with pytest.raises(ValueError):
        lattice.up_closure([])
    with pytest.raises(ValueError):
        lattice.up_closure([0, 2])


def test_down_closure_by_divisor_enumeration():
    assert lattice.down_closure([12]) == divisors_naive(12)
    assert divisors_naive(12) == [1, 2, 3, 4, 6, 12]
    assert lattice.down_closure([1]) == [1]
    want = sorted(set(divisors_naive(6)) | set(divisors_naive(10)))
    assert want == [1, 2, 3, 5, 6, 10]
    assert lattice.down_closure([6, 10]) == want


def test_down_closure_contains_generators():
    rng = random.Random(8)
    for _ in range(50):
        els = rng.sample(range(1, 120), rng.randint(1, 6))
        assert set(els) <= set(lattice.down_closure(els))


# -- antichains -------------------------------------------------------------------


def test_is_antichain_examples():
    assert lattice.is_antichain([4, 6, 9])
    assert not lattice.is_antichain([2, 6])
    assert lattice.is_antichain([])
    assert lattice.is_antichain([17])


# -- convexity --------------------------------------------------------------------


def test_is_convex_examples():
    assert not lattice.is_convex([2, 8])  # 2 | 4 | 8 but 4 missing
    # derived: every z with x | z | y for x, y in {2,4,8} is a power of two in range
    chain = [2, 4, 8]
    betweens = {z for y in chain for z in divisors_naive(y) for x in chain if z % x == 0}
    assert betweens == {2, 4, 8}
    assert lattice.is_convex(chain)


def test_convex_hull_derived_by_enumeration():
    want = sorted(z for z in divisors_naive(8) if z % 2 == 0)
    assert want == [2, 4, 8]
    assert lattice.convex_hull([2, 8]) == want


def test_convex_hull_idempotent_and_convex():
    rng = random.Random(99)
    for _ in range(100):
        els = rng.sample(range(1, 200), rng.randint(1, 5))
        hull = lattice.convex_hull(els)
        assert lattice.is_convex(hull)
        assert lattice.convex_hull(hull) == hull
        assert set(els) <= set(hull)


# -- prime-factor counts -----------------------------------------------------------


def test_down_closure_of_semiprime_beyond_the_trial_budget():
    # trial division stops at 2^10; rho splits the product at the default budget
    p, q = 10**6 + 3, 10**6 + 33
    assert lattice.down_closure([p * q]) == [1, p, q, p * q]


def test_divisor_views_refuse_what_factorize_cannot_split(monkeypatch):
    # no trial division up to the square root stands behind rho
    monkeypatch.setattr(primes, "_rho", lambda m, left: (0, 0))
    for view in (lattice.down_closure, lattice.is_convex, lattice.convex_hull):
        with pytest.raises(FactorizationBudgetError):
            view([1031 * 1033])
    # a prime cofactor needs no rho
    assert lattice.down_closure([2 * 1031]) == [1, 2, 1031, 2 * 1031]


def test_is_convex_answers_false_before_it_factors_a_larger_member(monkeypatch):
    monkeypatch.setattr(primes, "_rho", lambda m, left: (0, 0))
    # 4 lies between 2 and 8, so 1031 * 1033, which no rho can split here, is never factored
    assert not lattice.is_convex([1031 * 1033, 8, 2])
    with pytest.raises(FactorizationBudgetError):
        lattice.is_convex([2, 4, 8, 1031 * 1033])


def test_omega_examples():
    assert lattice.omega(12) == 3
    assert lattice.omega(1) == 0
    assert lattice.omega(2**10) == 10


def test_omega_leaves_its_argument_check_to_factorize():
    for n in (0, -12):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            lattice.omega(n)


def test_omega_of_two_primes_above_a_million():
    # trial division to 10^6 used to refuse; rho splits it
    assert lattice.omega(1000036000099) == 2
    assert lattice.omega(1000003**2 * 1000033 * 8) == 6


def test_omega_budget_exceeded():
    # 1009 * 1013 has no factor <= 100 and exceeds 100^2
    with pytest.raises(FactorizationBudgetError):
        lattice.omega(1009 * 1013, trial_budget=100)
    # a prime residual is fine even above the budget square
    assert lattice.omega(2 * (10**9 + 7), trial_budget=100) == 2


def test_omega_rejects_trial_budget_below_one():
    with pytest.raises(ValueError, match="trial bound"):
        lattice.omega(12, trial_budget=-5)


def test_omega_is_the_exponent_sum_of_factorize():
    for n in [*range(1, 3000), 2**61 - 1, 3**40 * 7, 10**12 + 39, (10**6 + 3) * 999983]:
        assert lattice.omega(n) == sum(factorize(n).values()), n


def test_elements_must_be_integers():
    # int() used to truncate 2.7 to 2 and read True as 1
    for bad in ([2.7], [True, 3], [4, "x"]):
        with pytest.raises(ValueError, match="expected an integer"):
            lattice.up_closure(bad)
        with pytest.raises(ValueError, match="expected an integer"):
            lattice.is_antichain(bad)
    with pytest.raises(ValueError, match="expected an integer"):
        lattice.omega_lower_bound(72, [2.5])
    # decimal strings are how JSON carries integers beyond 2^53-1
    assert lattice.down_closure(["12"]) == [1, 2, 3, 4, 6, 12]


def test_omega_lower_bound():
    n = 2**5 * 3**2 * 7
    assert lattice.omega_lower_bound(n, [2, 3]) == 7
    assert lattice.omega_lower_bound(n, [5]) == 0
    big = 3**40 * (10**100 + 267)  # second factor unknown to the bound
    assert lattice.omega_lower_bound(big, [3]) == 40
    with pytest.raises(ValueError):
        lattice.omega_lower_bound(12, [4])


def _omega_sieve(bound):
    # independent route: smallest-prime-factor dynamic programming
    spf = list(range(bound + 1))
    for p in range(2, int(bound**0.5) + 1):
        if spf[p] == p:
            for n in range(p * p, bound + 1, p):
                if spf[n] == n:
                    spf[n] = p
    om = [0] * (bound + 1)
    for n in range(2, bound + 1):
        om[n] = om[n // spf[n]] + 1
    return om


def test_level_members_against_sieve():
    want = [n for n in range(1, 11) if _omega_sieve(10)[n] == 2]
    assert want == [4, 6, 9, 10]
    assert lattice.level_members(2, 10) == want
    om = _omega_sieve(300)
    for level in range(6):
        assert lattice.level_members(level, 300) == [
            n for n in range(1, 301) if om[n] == level
        ]


def test_level_zero_is_one():
    assert lattice.level_members(0, 10) == [1]


# -- upward closedness ---------------------------------------------------------------


def test_is_upward_closed_examples():
    assert lattice.is_upward_closed(ps.divisibility_union({6}))
    assert not lattice.is_upward_closed(ps.progression(4, 2))
    up = lattice.up_closure([6, 10])
    assert lattice.is_upward_closed(up)
    assert upward_scan(up)  # cross-check by scan to 30^2 is criterion 5


def test_is_upward_closed_rejects_edited_sets():
    s = ps.make(2, {0}, added={3})
    with pytest.raises(ValueError):
        lattice.is_upward_closed(s)


def test_is_upward_closed_ignores_edits_at_zero():
    # the only edit of an up-closure is the removal of 0
    assert lattice.is_upward_closed(lattice.up_closure([4]))


def test_is_upward_closed_stops_at_the_first_failing_gcd_class(monkeypatch):
    # a complemented part is walked lazily: its first unit gives gcd 1, which fails at x = 1
    calls = []
    gcd = ps.gcd
    monkeypatch.setattr(ps, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
    assert not lattice.is_upward_closed(~ps.progression(10**6 + 3, 1))
    assert len(calls) < 10, len(calls)
    assert not lattice.is_upward_closed(~ps.progression(10**12 + 39, 1))


def test_empty_set_is_not_upward_closed():
    assert not lattice.is_upward_closed(ps.make(1, ()))


def test_up_closures_always_pass():
    # generators from [2, 100]; resample when the lcm-sized representation
    # would leave desk scale
    rng = random.Random(4242)
    from math import lcm

    done = 0
    while done < 100:
        els = rng.sample(range(2, 101), rng.randint(1, 5))
        if lcm(*els) > 10**6:
            continue
        done += 1
        assert lattice.is_upward_closed(lattice.up_closure(els))


def test_antichain_is_meet_of_its_closures():
    # for an antichain A and any bound covering it, A is exactly the set of
    # n that lie above some element (up-closure) and below some element
    # (divide a member)
    from math import lcm

    rng = random.Random(777)
    done = 0
    while done < 100:
        els = sorted(rng.sample(range(2, 80), rng.randint(1, 5)))
        if not lattice.is_antichain(els) or lcm(*els) > 10**6:
            continue
        done += 1
        bound = max(els)
        up = lattice.up_closure(els)
        recovered = [
            n for n in range(1, bound + 1) if n in up and any(a % n == 0 for a in els)
        ]
        assert recovered == els


def test_residue_criterion_matches_bounded_scan():
    rng = random.Random(2718)
    for _ in range(300):
        m = rng.randint(1, 36)
        residues = {r for r in range(m) if rng.random() < rng.random()}
        s = ps.make(m, residues)
        assert lattice.is_upward_closed(s) == upward_scan(s)
