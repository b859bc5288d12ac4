"""Primality: the exact range of the Miller-Rabin witness set, Baillie-PSW
above it, factorization by trial division and rho under a work budget."""

from collections import Counter
from math import gcd, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congruence_lattice import primes
from congruence_lattice.primes import (
    FactorizationBudgetError,
    _strong_lucas_probable_prime,
    factorize,
    is_prime,
    prime_factors,
    primes_up_to,
)

# psi_t: the least composite that is a strong pseudoprime to each of the
# first t prime bases (t = 1..12), with a factorization to show it composite
PSI = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}


def _product(factors):
    out = 1
    for f in factors:
        out *= f
    return out


def test_agrees_with_sieve_below_ten_thousand():
    primes = set(primes_up_to(10**4))
    assert [n for n in range(10**4 + 1) if is_prime(n)] == sorted(primes)


def test_strong_pseudoprimes_below_psi13_are_composite():
    for n, factors in PSI.items():
        assert _product(factors) == n
        assert all(is_prime(f) for f in factors)
        assert not is_prime(n), n


def test_psi12_is_composite():
    # a strong pseudoprime to every prime base up to 37; base 41 rejects it
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)


def test_psi13_is_composite():
    # a strong pseudoprime to all 13 witnesses; the strong Lucas test rejects it
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981
    assert all(is_prime(f) for f in (1287836182261, 2575672364521))
    assert not is_prime(3317044064679887385961981)


def test_strong_lucas_pseudoprimes_below_20000():
    # with Selfridge's parameters exactly these odd composites below 20000
    # pass the strong Lucas test; Miller-Rabin rejects each of them
    pseudoprimes = {5459, 5777, 10877, 16109, 18971}
    odd_primes = set(primes_up_to(20000)) - {2}
    passed = {n for n in range(3, 20000, 2) if _strong_lucas_probable_prime(n)}
    assert passed == odd_primes | pseudoprimes
    assert not any(is_prime(n) for n in pseudoprimes)


def _lucas_lehmer(p):
    # 2^p - 1 (p an odd prime) is prime iff s_(p-2) = 0, s_0 = 4, s_(i+1) = s_i^2 - 2
    m = 2**p - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def test_mersenne_numbers_above_psi13():
    for p in (83, 89, 97, 101, 103, 107, 109, 113, 127, 521, 607):
        assert 2**p - 1 > 3317044064679887385961981
        assert is_prime(2**p - 1) == _lucas_lehmer(p), p


def test_pocklington_certified_primes_above_psi13():
    # p = 2q + 1 with q prime (exact below psi13) and q > sqrt(p): p is prime
    # iff 2^(p-1) = 1 (mod p), by Pocklington's criterion with witness 2
    certified = []
    q = 3317044064679887385961981 // 2 + 1
    while len(certified) < 5:
        q += 2
        if is_prime(q):
            p = 2 * q + 1
            prime = pow(2, p - 1, p) == 1 and gcd(pow(2, 2, p) - 1, p) == 1
            assert is_prime(p) == prime, p
            if prime:
                certified.append(p)


def test_carmichael_numbers_are_composite():
    # Chernick form (6k+1)(12k+1)(18k+1): a Fermat liar to every coprime base
    for k in (1, 35, 1000051):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = _product(factors)
        assert all(is_prime(f) for f in factors)
        assert pow(2, n - 1, n) == 1
        assert not is_prime(n), n
    assert not is_prime(561)


def test_witness_primes_are_prime():
    # each witness is settled by trial division, never tested against itself
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        assert is_prime(p)
        assert prime_factors(p) == [p]


def test_factorize_matches_smallest_prime_factor_sieve():
    bound = 10**5
    spf = list(range(bound + 1))
    for p in range(2, isqrt(bound) + 1):
        if spf[p] == p:
            for m in range(p * p, bound + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(1, bound + 1):
        want = {}
        m = n
        while m > 1:
            want[spf[m]] = want.get(spf[m], 0) + 1
            m //= spf[m]
        got = factorize(n)
        assert list(got.items()) == sorted(want.items()), n
        assert prime_factors(n) == sorted(want), n


def test_factorize_accepts_a_prime_cofactor_beyond_the_budget():
    assert factorize(2**3 * (10**9 + 7), trial_bound=100) == {2: 3, 10**9 + 7: 1}
    with pytest.raises(FactorizationBudgetError):
        factorize(1009 * 1013, trial_bound=100)


def test_rho_splits_products_of_primes_above_a_million():
    # trial division to 10^6 used to refuse each of these
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert prime_factors(2273077 * 2994671) == [2273077, 2994671]
    assert factorize(12 * 1000003**2 * 1000033) == {2: 2, 3: 1, 1000003: 2, 1000033: 1}
    assert factorize(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
    assert factorize(7 * 982135097087) == {7: 1, 982135097087: 1}


_RHO_POOL = [p for p in primes_up_to(200_000) if p > 1 << 10]


@given(st.lists(st.sampled_from(_RHO_POOL), min_size=1, max_size=4))
def test_factorize_products_of_primes_past_trial_division(ps):
    assert factorize(prod(ps)) == dict(sorted(Counter(ps).items()))


def test_default_budget_refuses_two_primes_near_10_15():
    with pytest.raises(FactorizationBudgetError):
        factorize(1000000000000037 * 1000000000000091)
    with pytest.raises(FactorizationBudgetError):
        factorize((10**9 + 7) * (10**9 + 9), trial_bound=100)


def test_rho_gets_every_unit_trial_division_leaves(monkeypatch):
    # trial division up to 1023 spends 1023 units, and nothing is held back from
    # rho for a trial division up to the square root
    lefts = []
    rho = primes._rho
    monkeypatch.setattr(primes, "_rho", lambda m, left: lefts.append(left) or rho(m, left))
    assert factorize(999983 * 999979) == {999979: 1, 999983: 1}
    assert lefts[0] == primes.DEFAULT_TRIAL_BUDGET - 1023
    # a budget that would pay for trial division to isqrt(n), but leaves rho
    # one step, refuses
    with pytest.raises(FactorizationBudgetError):
        factorize(1031 * 1033, isqrt(1031 * 1033))


def test_factorize_rejects_trial_bound_below_one():
    # a negative bound squared is positive, which once passed 12 off as prime
    for bound in (0, -5):
        with pytest.raises(ValueError, match="trial bound"):
            factorize(12, trial_bound=bound)
        with pytest.raises(ValueError, match="trial bound"):
            prime_factors(12, trial_bound=bound)
    # a bound of 1 tries no divisor: only a cofactor proved prime is accepted
    assert factorize(13, trial_bound=1) == {13: 1}
    with pytest.raises(FactorizationBudgetError):
        factorize(12, trial_bound=1)
