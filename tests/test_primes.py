"""Primality: the exact range of the Miller-Rabin witness set, Baillie-PSW
above it, factorization by trial division and rho under a work budget."""

import random
import re
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
    strict_int,
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


# the psi_k of the first 13 prime bases, k = 1..13, in the order of k
PSI_K = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _product(factors):
    out = 1
    for f in factors:
        out *= f
    return out


def test_no_primes_up_to_one():
    assert primes_up_to(1) == primes_up_to(0) == []


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


@pytest.mark.parametrize("value", [2.0, True, "7", None, 10.0**30])
def test_is_prime_refuses_what_is_not_an_int(value):
    # it answered True for 2.0, False for True and for 10.0**30, and raised a bare TypeError for "7"
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
        is_prime(value)


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


Q36 = 68719476767  # a 36-bit prime: rho does not split Q36^2 within the default budget


def test_a_perfect_power_that_rho_gives_up_on_is_factored_through_its_root():
    assert factorize(Q36**2) == {Q36: 2}
    assert factorize(Q36**3) == {Q36: 3}
    assert factorize(72 * Q36**2) == {2: 3, 3: 2, Q36: 2}
    assert factorize(Q36**6) == {Q36: 6}  # a square root, then a cube root of each copy
    # a root that is composite goes back to rho, which still refuses it
    a, b = 1000000000000037, 1000000000000091
    with pytest.raises(FactorizationBudgetError, match=f"^budget exceeded: cannot factor residual {a * b}$"):
        factorize((a * b) ** 2)
    with pytest.raises(FactorizationBudgetError, match=f"^budget exceeded: cannot factor residual {a * b**2}$"):
        factorize(a * b**2)


def test_a_residual_that_rho_splits_takes_no_root(monkeypatch):
    roots = []
    exact_root = primes._exact_root
    monkeypatch.setattr(primes, "_exact_root", lambda n, k: roots.append(k) or exact_root(n, k))
    assert factorize(1000003**2 * 1000033) == {1000003: 2, 1000033: 1}
    assert factorize(999983**3) == {999983: 3}
    assert roots == []


def test_exact_root_finds_each_kth_power_and_nothing_else():
    rng = random.Random(26)
    for _ in range(400):
        k, r = rng.randint(2, 300), rng.randrange(2, 1 << rng.randint(2, 400))
        assert primes._exact_root(r**k, k) == r
        assert primes._exact_root(r**k - 1, k) == primes._exact_root(r**k + 1, k) == 0


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


def test_rho_refuses_when_an_overshooting_batch_has_no_unit_left_for_its_replay():
    # 1003 = 17 * 59: c = 1's batch at r = 4 meets both primes at once (gcd 1003) after its
    # 14th step, the 112th unit at 8 a step, so its replay has none; with more, the replay
    # meets both too, c = 1 fails, and c = 2 splits off 17 after 22 steps in all
    assert primes._rho(1003, 112) == primes._rho(1003, 120) == (0, 0)
    assert primes._rho(1003, 4000) == (17, 4000 - 22 * 8)


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


def _miller_rabin_13(n):
    """Miller-Rabin over all 13 witnesses whatever n is, the reference: exact below psi13."""
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _witness_bands():
    """(k, low, high): the n in [low, high) need the first k witnesses; empty bands skipped."""
    lows = (WITNESSES[-1] + 1,) + PSI_K[:-1]
    return [(k, low, high) for k, (low, high) in enumerate(zip(lows, PSI_K), 1) if low < high]


def _largest_prime_below(n):
    n -= 1 if n % 2 == 0 else 2
    while not _miller_rabin_13(n):
        n -= 2
    return n


def _least_prime_from(n):
    n |= 1
    while not _miller_rabin_13(n):
        n += 2
    return n


def test_each_witness_band_agrees_with_all_13_witnesses():
    rng = random.Random(19)
    for k, low, high in _witness_bands():
        for _ in range(300):
            n = rng.randrange(low, high) | 1
            assert is_prime(n) == _miller_rabin_13(n), (k, n)
        q = _largest_prime_below(high)
        assert q >= low and is_prime(q), (k, q)
        if high < PSI_K[-1]:  # psi_k itself, the first n of band k + 1
            assert not is_prime(high) and not _miller_rabin_13(high), k
    # psi13 passes all 13 witnesses; the strong Lucas test rejects it
    assert _miller_rabin_13(PSI_K[-1]) and not is_prime(PSI_K[-1])


def test_a_prime_in_band_k_runs_the_first_k_witnesses(monkeypatch):
    bases = []
    monkeypatch.setattr(primes, "pow", lambda a, d, n: bases.append(a) or pow(a, d, n), raising=False)
    for k, low, high in _witness_bands():
        for q in (_least_prime_from(low), _largest_prime_below(high)):
            bases.clear()
            assert is_prime(q)
            assert bases == list(WITNESSES[:k]), (k, q)
    # at and above psi13 all 13 run, and the strong Lucas test after them
    bases.clear()
    assert is_prime(2**89 - 1)
    assert bases == list(WITNESSES)
    # the witnesses themselves are settled by trial division
    bases.clear()
    assert all(is_prime(p) for p in WITNESSES) and bases == []


def _factorize_by_odd_d(n, trial_bound):
    """The reference for factorize's units: trial division by 2 and every odd d up to
    min(2^10, trial_bound), stopping at d and charging d - 2 units, then rho, and where
    rho gives up the least k with m a k-th power, its root found from a float guess."""
    out = {}
    d, bound = 2, min(trial_bound, 1 << 10)
    while d * d <= n and d <= bound:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n < d * d:
        if n > 1:
            out[n] = 1
        return out
    left = trial_bound - (d - 2)
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g, left = primes._rho(m, left)
        if g:
            pending += (g, m // g)
            continue
        roots = ((k, r) for k in range(2, m.bit_length() + 1) for r in (round(m ** (1 / k)),) if r**k == m)
        k, r = next(roots, (0, 0))
        if not k:
            raise FactorizationBudgetError(f"budget exceeded: cannot factor residual {m}")
        pending += [r] * k
    return dict(sorted(out.items()))


def test_trial_division_by_primes_charges_the_units_the_odd_d_loop_charged(monkeypatch):
    rho_calls = []
    rho = primes._rho
    monkeypatch.setattr(primes, "_rho", lambda m, left: rho_calls.append((m, left)) or rho(m, left))

    def run(factorizer, n, budget):
        rho_calls.clear()
        try:
            got = factorizer(n, budget)
        except FactorizationBudgetError as refusal:
            got = str(refusal)
        return got, list(rho_calls)

    rng = random.Random(19)
    near = [p for p in primes_up_to(1 << 11) if p > 900]  # the primes around 2^10
    large = [p for p in primes_up_to(200_000) if p > 1 << 10]
    small = primes_up_to(1 << 10)
    for case in range(1500):
        kind = case % 4
        if kind == 0:  # a square or product of primes near 2^10, times a small number
            n = rng.choice(near) * rng.choice(near) * rng.randint(1, 30)
        elif kind == 1:  # a prime power
            p = rng.choice(small + near + large)
            n = p ** rng.randint(1, max(1, 60 // p.bit_length()))
        elif kind == 2:  # a smooth part times primes past trial division: rho's work
            n = prod(rng.choices(small, k=rng.randint(0, 3))) * prod(rng.choices(large, k=rng.randint(1, 3)))
        else:
            n = rng.randint(1, 10**12)
        budget = rng.choice((rng.randint(1, 1025), rng.randint(1, 1025), primes.DEFAULT_TRIAL_BUDGET))
        want = run(_factorize_by_odd_d, n, budget)
        assert run(factorize, n, budget) == want, (n, budget)
    for budget in (1, 2, 3, 4, 5, 1019, 1020, 1021, 1022, 1023, 1024, 1025):
        for n in (1, 13, 12, 1021**2, 1021 * 1031, 1031**2, 1021**2 * 1031, 2**40, 2 * 1000003 * 1000033):
            assert run(factorize, n, budget) == run(_factorize_by_odd_d, n, budget), (n, budget)


def test_refusals_show_an_int_too_long_to_print_by_its_bits(digit_limit):
    huge = 10**5000  # 16610 bits, past the 4300-digit limit
    with pytest.raises(ValueError, match=r"^n must be an integer, got <int of 16610 bits>$"):
        strict_int(type("Big", (int,), {})(huge), "n")
    with pytest.raises(ValueError, match=r"^n must be >= 1, got <negative int of 16610 bits>$"):
        strict_int(-huge, "n", 1)
    with pytest.raises(ValueError, match=r"^residue <int of 16610 bits> out of range \[0, 7\)$"):
        strict_int(huge, "residue", 0, 7)
    # an int within the limit is shown in full, as before
    with pytest.raises(ValueError, match=rf"^residue {10**4000} out of range \[0, 7\)$"):
        strict_int(10**4000, "residue", 0, 7)
