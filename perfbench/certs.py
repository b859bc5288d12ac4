"""The benchmark's own number theory: input generation and answer certificates.

Nothing here imports the library under test.  Primes are generated together
with a Pocklington certificate and the full factorization of p - 1, so that
the checks in `workloads` never have to trust the code they are checking.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

TRIAL_LIMIT = 10**7  # below this, primality is settled by trial division

# Known strong pseudoprimes: psi_k is the least composite that passes the
# strong test to every prime base below the k-th prime (Sorenson & Webster).
PSI11 = (3825123056546413051, (149491, 747451, 34233211))
PSI12 = (318665857834031151167461, (399165290221, 798330580441))
PSI13 = (3317044064679887385961981, (1287836182261, 2575672364521))


def trial_factor(n: int) -> dict:
    """{p: e} by trial division; only for n whose second-largest prime
    factor is small (every caller passes n < 10^12 or a product it built)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def small_is_prime(n: int) -> bool:
    return n >= 2 and (n < 4 or trial_factor(n) == {n: 1})


def verify_prime(p: int, certs: dict) -> bool:
    """Check a Pocklington chain: certs[p] = (q, a) with q prime, q | p - 1,
    q^2 > p, a^(p-1) = 1 and gcd(a^((p-1)/q) - 1, p) = 1 (mod p)."""
    if p < TRIAL_LIMIT:
        return small_is_prime(p)
    if p not in certs:
        return False
    q, a = certs[p]
    return (
        (p - 1) % q == 0
        and q * q > p
        and pow(a, p - 1, p) == 1
        and gcd(pow(a, (p - 1) // q, p) - 1, p) == 1
        and verify_prime(q, certs)
    )


def composite_witness(n: int, factors) -> bool:
    """True when `factors` are nontrivial and multiply to n."""
    return len(factors) >= 2 and all(1 < f < n for f in factors) and prod(factors) == n


def certified_prime(rng, lo: int, hi: int, certs: dict, fact: dict, k: int = 0) -> int:
    """A prime in [lo, hi) drawn from rng, certified in `certs`; the full
    factorization of p - 1 is stored in `fact[p]`.

    Above TRIAL_LIMIT the prime has the form p = 2kq + 1 with q a certified
    prime above sqrt(p), so Pocklington's criterion applies.  A given k fixes
    the shape of p - 1 (k = 1: a safe prime); otherwise k is drawn.
    """
    if hi <= TRIAL_LIMIT:
        while True:
            p = rng.randrange(lo, hi) | 1
            if lo <= p < hi and small_is_prime(p):
                fact[p] = trial_factor(p - 1)
                return p
    kmax = min(1000, lo // (2 * isqrt(hi) + 2))
    if kmax < max(k, 1):
        raise ValueError(f"range [{lo}, {hi}) too wide for a Pocklington chain")
    while True:
        k0 = k or rng.randint(1, kmax)
        q = certified_prime(rng, -(-lo // (2 * k0)), hi // (2 * k0), certs, fact)
        for kk in [k] if k else range(k0, k0 + 64):
            p = 2 * kk * q + 1
            if not lo <= p < hi:
                break
            for a in (2, 3, 5, 7, 11, 13):
                if pow(a, p - 1, p) != 1:
                    break
                if gcd(pow(a, (p - 1) // q, p) - 1, p) == 1:
                    certs[p] = (q, a)
                    f = trial_factor(2 * kk)
                    f[q] = f.get(q, 0) + 1
                    fact[p] = f
                    return p


def is_generator(g: int, p: int, factors) -> bool:
    """g generates (Z/p)^* given the prime factors of p - 1."""
    return g % p != 0 and all(pow(g, (p - 1) // f, p) != 1 for f in factors)


def order_certified(a: int, t: int, p: int, t_factors) -> bool:
    """a has multiplicative order exactly t modulo p."""
    return pow(a, t, p) == 1 and all(pow(a, t // f, p) != 1 for f in t_factors if t % f == 0)


def subgroup(p: int, l: int) -> list:
    """The unique subgroup of order l in (Z/p)^*, sorted (l | p - 1)."""
    for a in range(2, p):
        h = pow(a, (p - 1) // l, p)
        if order_certified(h, l, p, trial_factor(l)):
            out, x = [], 1
            for _ in range(l):
                x = x * h % p
                out.append(x)
            return sorted(out)
    raise ValueError(f"no element of order {l} mod {p}")
