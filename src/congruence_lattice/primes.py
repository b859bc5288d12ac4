"""Primality testing, small factorization and JSON integer coercion for the library."""

from __future__ import annotations

# Miller-Rabin witnesses: the first 13 primes.  No composite below
# psi13 = 3317044064679887385961981 is a strong pseudoprime to all of them
# (Sorenson & Webster 2015), so the test is exact below that bound; psi13
# itself passes them all.  Above the bound the answer is a strong
# probable-prime verdict, not a proof.  The first 12 primes alone would
# stop at psi12 = 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


DEFAULT_TRIAL_BUDGET = 10**6


class FactorizationBudgetError(ValueError):
    """Raised when factoring would exceed the configured trial-division budget."""


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test over the first 13 prime bases.

    Exact for n < psi13 = 3317044064679887385961981 (about 3.3e24).  At and
    above that bound a True answer means n is a strong probable prime to
    those bases; composites such as psi13 itself are reported prime.
    """
    if n < 2:
        return False
    # trial division by the witnesses leaves n larger than every witness
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, trial_bound: int = DEFAULT_TRIAL_BUDGET) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1, primes ascending, by trial division up to
    `trial_bound` >= 1; a leftover cofactor is accepted if it is provably prime, otherwise a
    FactorizationBudgetError is raised."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if trial_bound < 1:
        raise ValueError(f"trial bound must be >= 1, got {trial_bound}")
    out = {}
    d = 2
    while d * d <= n and d <= trial_bound:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        # cofactor <= trial_bound**2 has no divisor <= trial_bound, hence prime
        if n <= trial_bound * trial_bound or is_prime(n):
            out[n] = 1
        else:
            raise FactorizationBudgetError(f"budget exceeded: cannot factor residual {n}")
    return out


def prime_factors(n: int, trial_bound: int = DEFAULT_TRIAL_BUDGET) -> list[int]:
    """Distinct prime factors of n >= 1, ascending; see factorize."""
    return list(factorize(n, trial_bound))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, bound + 1, p))
    return [n for n in range(2, bound + 1) if sieve[n]]


def json_int(value, what: str) -> int:
    """An integer given as a non-bool int or as a decimal string (the form JSON
    integers beyond 2^53-1 travel in); floats and booleans are rejected, never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise ValueError(f"{what}: expected an integer, got {value!r}")
