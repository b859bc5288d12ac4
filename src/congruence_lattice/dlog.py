"""Discrete logarithms modulo a prime, for `geometry.discrete_log` and `exponent_offsets`.

`_logs` is Pohlig-Hellman.  Each digit mod a prime q of ord(base) goes by the route with the lower
predicted cost in baby steps (x86_64, Python 3.11): baby-step giant-step, sqrt(2 q e targets), or,
for q ∥ p - 1, index calculus (Adleman; Menezes-van Oorschot-Vanstone, Handbook of Applied
Cryptography §3.6.5), `_ic_cost`: _IC_STEP_COST (a walk step) * rho(u)^-2 (steps per relation;
measured 0.83-1.64x that at 24 to 50 bits) * (|fb| + _IC_SLACK + targets + 1) + |fb|^3 / 3.
Index calculus is open only where the relation walk's predicted (|fb| + _IC_SLACK) rho(u)^-2 steps
fit its isqrt(q) // _IC_STEP_COST; a system that gives up anyway, a descent run out of steps or a
digit that fails its check costs one more baby-step giant-step at most.  _IC_SYSTEMS systems (p, q)
are kept.  _RHO holds Dickman's rho(j / _RHO_STEPS): 1 - ln u up to 2, then u rho(u) = its
integral over [u - 1, u] (as rho'(u) = -rho(u - 1) / u) by trapezoids.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import islice
from math import isqrt, log, prod

from .geometry import _generator
from .primes import _TRIAL_PRIMES

_IC_STEP_COST = 16
_IC_SLACK = 8
_IC_WALK = 16
_IC_SYSTEMS = 32
_RHO_STEPS = 64
_RHO = [1.0] * _RHO_STEPS + [1 - log(j / _RHO_STEPS) for j in range(_RHO_STEPS, 2 * _RHO_STEPS + 1)]


def _logs(p: int, base: int, n: int, factors: dict, targets) -> dict:
    """{t: least k >= 1 with base^k = t (mod p)} for targets in <base>, where n = ord(base) is the
    product of q^e over factors = {q: e}.  The residues mod the coprime q^e sum to k mod n; k = 0
    (t = 1) becomes n."""
    ks, (fb, per) = dict.fromkeys(targets, 0), _ic_model(p)
    for q, e in factors.items():
        c = n // q**e
        unit = c * pow(c, -1, q**e)  # 1 mod q^e and 0 mod n / q^e
        fits = (fb + _IC_SLACK) * per <= isqrt(q) // _IC_STEP_COST  # the relation walk, in walk steps
        # q ∥ p - 1, which also makes e = 1: without it the relations would not fix logs mod q
        by_ic = (p - 1) % (q * q) and fits and _ic_cost(p, len(ks)) < isqrt(2 * q * e * len(ks))
        digits = _index_calculus(p, base, q, c, ks) if by_ic else None
        for t, r in (digits or _baby_giant(p, base, q, e, c, ks)).items():
            ks[t] += r * unit
    return {t: k % n or n for t, k in ks.items()}


def _baby_giant(p: int, base: int, q: int, e: int, c: int, targets) -> dict:
    """{t: k mod q^e} with base^k = t, c = ord(base) / q^e: the e base-q digits are logs to
    h = base^(c q^(e-1)), of order q, by baby-step giant-step from one table {h^j: j} for
    every digit and target, of m = sqrt(q * searches / 2) powers (a search stops halfway, an
    insert costs more than a lookup).  O(e * sqrt(q)) for one target.
    """
    h = pow(base, c * q ** (e - 1), p)
    m = min(q, isqrt(q * e * len(targets) // 2) + 1)
    baby, val = {}, 1
    for baby[val] in range(m):  # the loop target stores j under h^j
        val = val * h % p
    inverse = pow(base, -c, p) if e > 1 else 1  # e = 1: no digits to strip
    giant, out = pow(h, -m, p), {}
    for t in targets:
        y, r = pow(t, c, p), 0  # y = (base^c)^(k mod q^e); r holds the digits below i
        for i in range(e):
            gamma, d = pow(y * pow(inverse, r, p), q ** (e - 1 - i), p), 0  # h^(digit i)
            while gamma not in baby:
                gamma, d = gamma * giant % p, d + m
            r += (d + baby[gamma]) * q**i
        out[t] = r
    return out


def _index_calculus(p: int, base: int, q: int, c: int, targets) -> dict | None:
    """{t: k mod q} with base^k = t, for a prime q ∥ p - 1 and c = ord(base) / q, or None (see the
    module docstring).

    Logs are to π(g) of `_ic_system(p, q)`.  base and each target are descended once: the first
    point t * g^x of a `_walk` from t whose ratio has only solved primes gives log t, and the
    digit of t is log t / log base mod q (log base != 0 as q | ord(base)).  The descents share
    isqrt(q * targets) // _IC_STEP_COST steps; each digit d is checked by (base^c)^d = t^c.
    """
    if (system := _ic_system(p, q)) is None:
        return None
    logs, out = system[-1], {}
    steps = iter(range(isqrt(q * len(targets)) // _IC_STEP_COST))
    unsolved = [i for i in range(len(system[0])) if i not in logs]
    for t in dict.fromkeys((base, *targets)):  # base first, and once
        for x, v in _walk(p, t, system, steps):
            if not any(v[i] for i in unsolved):
                out[t] = (sum(k * logs[i] for i, k in enumerate(v) if k) - x) % q
                break
        else:
            return None
    h, inverse = pow(base, c, p), pow(out[base] or 1, -1, q)  # log base is 0 only if logs are wrong
    digits = {t: out[t] * inverse % q for t in targets}
    return None if any(pow(h, d, p) != pow(t, c, p) for t, d in digits.items()) else digits


@lru_cache(maxsize=_IC_SYSTEMS)
def _ic_system(p: int, q: int) -> tuple | None:
    """(fb, prod(fb), isqrt(p), walk, logs) for the prime q ∥ p - 1, or None when the walk
    gave up: the factor base fb, the _IC_WALK pairs (g^s, s) and {index in fb: log mod q of
    π(that prime) to π(g)}, where g is the least x >= 2 with π(x) = x^((p - 1) / q) != 1, so
    π(g) generates the subgroup of order q and π(-1) = 1.  Each point g^x of the `_walk` from 1
    gives one linear relation mod q among the logs of fb, all solved by Gaussian elimination.
    The walk has isqrt(q) // _IC_STEP_COST steps, one target's fallback.
    """
    g = _generator(p, p - 1, (q,), range(2, p))
    fb = _TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, _factor_bound(p))]
    walk = [(pow(g, s, p), s) for s in (isqrt(l * p) for l in _TRIAL_PRIMES[:_IC_WALK])]
    system, need = (fb, prod(fb), isqrt(p), walk), len(fb) + _IC_SLACK
    relations = _walk(p, 1, system, iter(range(isqrt(q) // _IC_STEP_COST)))
    rows = [[x % q, *v] for x, v in islice(relations, 1, need + 1)]  # 1 itself, ratio 1 / 1, relates nothing
    return (*system, _solve_mod(rows, len(fb), q)) if len(rows) == need else None


def _walk(p: int, z: int, system, steps):
    """(x, exponents over fb) at each point z * g^x, from z on, whose `_ratio` is fb-smooth, for
    system = (fb, prod(fb), isqrt(p), walk, ...).  A step takes an item of the iterator steps, and
    the walk ends with them; it multiplies by the g^s of the pair (g^s, s) in walk that the point
    picks mod _IC_WALK.  s = isqrt(l * p) for the first primes l, near irrational multiples of
    sqrt(p), so two stretches of a walk seldom add up to a third, which on the powers of one g^s
    would often make relations sums of earlier ones."""
    (fb, smooth, root, walk), x = system[:4], 0
    while True:
        if (v := _ratio(p, z, fb, smooth, root)) is not None:
            yield x, v
        if next(steps, None) is None:
            return
        w, s = walk[z % _IC_WALK]
        z, x = z * w % p, x + s


def _ratio(p: int, z: int, fb, smooth: int, root: int) -> list | None:
    """Exponents over fb of a / b, where z = +-a/b (mod p) with a, b <= root = isqrt(p), or None
    if a or b has a prime past fb: a is the first remainder of Euclid on (p, z) below root,
    each of which is +-b * z (mod p) with b <= p / the remainder before it, and b = +-a / z."""
    r0, a = p, z
    while a > root:
        r0, a = a, r0 % a
    if pow(smooth, a.bit_length(), a):  # a has a prime past fb: fb^bits is not 0 mod a
        return None
    b = a * pow(z, -1, p) % p
    b = min(b, p - b)
    if pow(smooth, b.bit_length(), b):
        return None
    v = []
    for l in fb:
        k = 0
        while a % l == 0:
            a, k = a // l, k + 1
        while b % l == 0:
            b, k = b // l, k - 1
        v.append(k)
    return v


def _ic_cost(p: int, targets: int) -> float:
    """Predicted cost of index calculus at p in baby steps (see the module docstring)."""
    fb, per = _ic_model(p)
    return _IC_STEP_COST * (fb + _IC_SLACK + targets + 1) * per + fb**3 / 3


def _ic_model(p: int) -> tuple:
    """(|fb|, rho(u)^-2 walk steps per relation, inf from u = 100 on) at p."""
    i = round(min(log(p) / 2 / log(bound := _factor_bound(p)), 100) * _RHO_STEPS)  # u = ln sqrt(p) / ln B
    while len(_RHO) <= i:
        _RHO.append((_RHO[-_RHO_STEPS] / 2 + sum(_RHO[1 - _RHO_STEPS :])) / (len(_RHO) - 0.5))
    return bisect_right(_TRIAL_PRIMES, bound), 1 / _RHO[i] / _RHO[i]


def _factor_bound(p: int) -> int:
    """B(p), the factor base's bound: 2^((bits of p + 22) / 8), and 2^10 from 58 bits on."""
    return round(2 ** ((min(p.bit_length(), 58) + 22) / 8))


def _solve_mod(rows: list, width: int, q: int) -> dict:
    """{column: value} for each column whose value the linear system fixes mod the prime q; a row
    is its right-hand side, then `width` coefficients.  Gaussian elimination from the last
    column, the rarest prime, which keeps the rows sparse and leaves each pivot row 0 past its
    column, then back substitution, which leaves out a column that stays free or whose row
    holds one."""
    pivots = []
    for col in reversed(range(width)):
        rank = len(pivots)
        at = next((i for i in range(rank, len(rows)) if rows[i][col + 1] % q), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        inv = pow(rows[rank][col + 1], -1, q)
        pivot = rows[rank][: col + 2] = [a * inv % q for a in rows[rank][: col + 2]]
        for row in rows[rank + 1 :]:
            if f := row[col + 1] % q:
                row[: col + 2] = [(a - f * b) % q for a, b in zip(row, pivot)]
        pivots.append(col)
    values = {}
    for col, row in zip(reversed(pivots), reversed(rows[: len(pivots)])):  # the later pivots first
        others = [j for j in range(col) if row[j + 1]]
        if all(j in values for j in others):
            values[col] = (row[0] - sum(row[j + 1] * values[j] for j in others)) % q
    return values
