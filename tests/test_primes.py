"""Primality: the exact range of the Miller-Rabin witness set, and regressions."""

from math import isqrt

import pytest

from congruence_lattice.primes import (
    FactorizationBudgetError,
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
