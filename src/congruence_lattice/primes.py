"""Primality testing, factorization, the two divisibility cores that `lattice`
and `antichain.verify` share, the integer checks on outside input, and `Record`.

`strict_int` is the one check on a scalar integer argument, its range
included, `strict_ints` the one check on a collection of them and
`strict_prime` the one check on a prime: every public entry point of the
library refuses through them, with one wording per failure, and every
refusal shows an outside value by `_shown`.  `json_int` is the one coercer
of integers that arrive as JSON or as command-line text.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import gcd, isqrt

# Miller-Rabin witnesses: the first 13 primes.  psi_k is the least composite
# that is a strong pseudoprime to each of the first k of them, so the first k
# witnesses are exact below psi_k: psi1..psi4 Pomerance, Selfridge & Wagstaff
# 1980; psi5..psi8 Jaeschke 1993; psi9..psi11 Jaeschke's bound, proved least
# by Jiang & Deng 2014; psi12 and psi13 Sorenson & Webster 2015.  psi13
# passes all 13, so a strong Lucas test (Baillie-PSW) runs from it upwards.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)

DEFAULT_TRIAL_BUDGET = 10**6

# Factorization work is counted in units: trial division by the primes up to
# d spends d, up to _TRIAL_LIMIT; Brent's rho splits what is left, and
# one rho step on a b-bit number spends _RHO_STEP_COST + b // _RHO_STEP_BITS
# units.  The charge grows with b because a rho step's products modulo the
# number grow with its length and a trial division's remainder hardly does.
# With it, a refusal at budget B takes 0.5-0.7 times the time of trial
# division up to B for numbers of 15 to 300 digits and B from 3000 to 10^6
# (Python 3.11, x86_64), so no input is slower to refuse than it was.
_TRIAL_LIMIT = 1 << 10
_RHO_STEP_COST = 8
_RHO_STEP_BITS = 24
_RHO_BATCH = 128  # rho steps per gcd


class FactorizationBudgetError(ValueError):
    """Raised when factoring would exceed the configured work budget."""


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first k prime bases below psi_k, the least strong
    pseudoprime to all k: 2047, 1373653, 25326001, 3215031751, 2152302898747,
    3474749660383, 341550071728321 (k = 7, 8), 3825123056546413051 (k = 9-11),
    318665857834031151167461 and psi13 = 3317044064679887385961981 (sources
    at _PSI).  Exact below psi13 (about 3.3e24).  From psi13 on, all 13 bases
    and a strong Lucas test with Selfridge's parameters (Baillie-PSW): True
    then means n passes both, which no known composite does, though none is
    proved not to; False is always a proof.
    """
    if n < 2:
        return False
    # trial division by the witnesses leaves n larger than every witness
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_WITNESSES[: bisect_right(_PSI, n) + 1]:  # bisect_right counts the psi_k <= n
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI[-1] or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _half(x: int, n: int) -> int:
    """x / 2 modulo the odd n."""
    x %= n
    return (x + n) // 2 if x % 2 else x // 2


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D) / 4.  With n + 1 = k * 2^s, k odd, n passes when U_k = 0 or
    V_(k * 2^r) = 0 for some 0 <= r < s (mod n)."""
    if isqrt(n) ** 2 == n:
        return False  # (D/n) is never -1 for a square n
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False  # gcd(D, n) is a proper divisor of n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = k * 2^s, k odd
    k = (n + 1) >> s
    # binary ladder from index 1: double, then add one for each 1 bit
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = _half(u + v, n), _half(d * u + v, n), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _brent(m: int, c: int, steps: int) -> tuple:
    """Brent's cycle search on x -> x^2 + c (mod m) from x = 2, multiplying
    the differences of _RHO_BATCH steps before each gcd, within `steps` steps.
    Returns (g, steps left): g is a divisor > 1 of m (m itself when this c
    fails), or 0 when the steps run out."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        if steps < r:
            return 0, 0
        steps -= r
        for _ in range(r):
            y = (y * y + c) % m
        k = 0
        while k < r and g == 1:
            ys = y
            batch = min(_RHO_BATCH, r - k)
            if steps < batch:
                return 0, 0
            steps -= batch
            for _ in range(batch):
                y = (y * y + c) % m
                q = q * (x - y) % m
            g = gcd(q, m)
            k += batch
        r *= 2
    if g == m:  # the batch overshot: replay it one gcd at a time
        while steps:
            steps -= 1
            ys = (ys * ys + c) % m
            g = gcd(x - ys, m)
            if g > 1:
                return g, steps
        return 0, 0
    return g, steps


def _rho(m: int, left: int) -> tuple:
    """A divisor 1 < g < m of the composite m by Brent's rho with c = 1, 2, ...
    in turn, and the work units left; g is 0 when the units run out."""
    cost = _RHO_STEP_COST + m.bit_length() // _RHO_STEP_BITS
    steps = left // cost
    c = 1
    while steps > 0:
        g, rest = _brent(m, c, steps)
        if g == 0:
            break
        left -= (steps - rest) * cost
        if g != m:
            return g, left
        steps, c = rest, c + 1
    return 0, 0


def factorize(n: int, trial_bound: int = DEFAULT_TRIAL_BUDGET) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1, primes ascending, within a
    work budget of `trial_bound` >= 1 units.

    Trial division by the primes up to min(2^10, trial_bound) comes first;
    trial division by the primes up to d spends d units, d odd.  A cofactor
    that is_prime accepts is kept; a composite one is split by Brent's rho,
    and each part is checked and split the same way.  A rho step on a b-bit
    number spends 8 + b // 24 units, which keeps a refusal at budget B no
    slower than trial division up to B.  This is the one route, at every
    budget: a composite that rho does not split within the budget raises
    FactorizationBudgetError.

    Every key is a prime as is_prime decides it: proved below psi13 (about
    3.3e24), a Baillie-PSW probable prime above.
    """
    return _factorize(strict_int(n, "n", 1), strict_int(trial_bound, "trial bound", 1))


def _factorize(n: int, trial_bound: int = DEFAULT_TRIAL_BUDGET) -> dict[int, int]:
    """factorize of arguments the library built itself, which it does not check."""
    out = {}
    bound = min(trial_bound, _TRIAL_LIMIT)
    for p in _TRIAL_PRIMES:
        if p * p > n or p > bound:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n < p * p:  # no prime divisor below p: 1 or a prime
        if n > 1:
            out[n] = 1
        return out
    # trial division stopped at the bound, so it spent the largest odd number up to it (0 for 1)
    left = trial_bound - (bound - 1 + bound % 2 if bound > 1 else 0)
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g, left = _rho(m, left)
        if not g:
            raise FactorizationBudgetError(f"budget exceeded: cannot factor residual {_shown(m)}")
        pending += (g, m // g)
    return dict(sorted(out.items()))


def prime_factors(n: int, trial_bound: int = DEFAULT_TRIAL_BUDGET) -> list[int]:
    """Distinct prime factors of n >= 1, ascending; see factorize."""
    return list(factorize(n, trial_bound))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by sieve of Eratosthenes."""
    if strict_int(bound, "bound") < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, bound + 1, p))
    return [n for n in range(2, bound + 1) if sieve[n]]


def _is_antichain(els) -> bool:
    """True iff no element of the ascending distinct positive ints divides a later one."""
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            if b % a == 0:
                return False
    return True


def _valuations(n: int, primes) -> int:
    """Sum of the valuations of the positive int n at the distinct primes."""
    total = 0
    for p in primes:
        while n % p == 0:
            total += 1
            n //= p
    return total


def _shown(value, _open: tuple = ()) -> str:
    """repr(value), but an int past the interpreter's int-to-string digit limit,
    also as an item of a list, as <int of B bits> (<negative int of B bits>),
    and any other value that holds one by its type, as <tuple too long to print>.
    `_open` holds the ids of the lists being shown, so a list inside itself is [...]."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        if type(value) is not list:
            return f"<{type(value).__name__} too long to print>"
        if id(value) in _open:
            return "[...]"
        return f"[{', '.join(_shown(v, _open + (id(value),)) for v in value)}]"


def strict_int(value, what: str, low=None, high=None) -> int:
    """The one check on scalar integer arguments: value if its type is exactly
    int and, when `low` is given, low <= value (and value < high when `high` is)."""
    if type(value) is int and (low is None or low <= value and (high is None or value < high)):
        return value
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {_shown(value)}")
    if high is None:
        raise ValueError(f"{what} must be >= {low}, got {_shown(value)}")
    raise ValueError(f"{what} {_shown(value)} out of range [{low}, {high})")


def strict_ints(values, what: str, low: int, high=None) -> frozenset:
    """The one check on collections of integer arguments: the values as a frozenset,
    each checked as given, in order, by strict_int's rule (a set built first would
    merge True into an equal 1 unseen); the first refused value is named."""
    values = tuple(values)
    for v in values:
        if type(v) is not int or v < low or high is not None and v >= high:  # no call per valid value
            strict_int(v, what, low, high)
    return frozenset(values)


def _check_coprime(modulus: int, residue: int) -> None:
    if (g := gcd(modulus, residue)) != 1:
        raise ValueError(f"gcd({_shown(modulus)}, {_shown(residue)}) = {_shown(g)} != 1")


# primes repeat (the geom oracle sweeps p <= 31; is_geometric's descriptor re-checks its p): cached
_cached_is_prime = lru_cache(maxsize=256)(is_prime)


def strict_prime(value, what: str) -> int:
    """The one check on prime arguments: value if its type is exactly int and is_prime accepts it."""
    if type(value) is int and _cached_is_prime(value):
        return value
    raise ValueError(f"{what} must be a prime int, got {_shown(value)}")


def json_int(value, what: str) -> int:
    """An int (by `strict_int`'s rule) or a decimal string, ASCII [+-]?[0-9]+ (the
    form JSON integers beyond 2^53-1 travel in); floats, booleans and any other
    text are rejected, never truncated."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] in ("+", "-") else value
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError:  # beyond the interpreter's digit limit
                pass
    raise ValueError(f"{what}: expected an integer, got {_shown(value)}")


class Record:
    """Base of the validating value types: `__init__` sets the `_fields`, held in `__slots__`, by
    `object.__setattr__`; equality (same type), hash, repr and pickle read them; none can change."""

    __slots__ = ()

    def __init_subclass__(cls):
        # fields read inline, as dataclass generates them: a key method or attrgetter is up to 2x slower
        own = "".join(f"self.{name}, " for name in cls._fields)
        eq = f"({own}) == ({own.replace('self.', 'other.')}) if type(other) is type(self) else NotImplemented"
        cls.__eq__ = eval(f"lambda self, other: {eq}")
        if "__hash__" not in vars(cls):  # PeriodicSet hashes by its own rule
            cls.__hash__ = eval(f"lambda self: hash(({own}))")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __reduce__(self):  # rebuilt through __init__: a slot state would be set by the refusing __setattr__
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__


_TRIAL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))  # the 172 primes _factorize divides by
