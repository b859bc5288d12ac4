"""Recursive construction of divisibility antichains from prime residue data.

The builder is driven by two disjoint families of primes:

* chain primes, each carrying a residue chain r_1, r_2, ... (r_n taken
  modulo p^n, consecutive entries congruent).  Element number n of the
  output must track the scheduled residue of every earlier chain prime at
  growing depth, and be divisible by its own chain prime at that prime's
  first nonzero depth.
* divisor primes, whose n-th powers must divide element number n onward,
  forcing the prime-factor count of the output to grow without bound.

Each element is the least solution of its congruence system exceeding its
predecessor, so the construction is a pure function of the input.

When the finite prime supply runs out the "safe" substitution mode keeps
building: unavailable indices are dropped, and element n's missing divisor
prime j is replaced by chain prime n + j at exponent 1 (exponent 1 so the
substitution cannot collide with residue requirements scheduled for that
prime at later steps).  At j = 0 that is element n's own chain prime, which
already divides it, so that substitute is vacuous.  "strict" mode errors
out instead.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .crt import Congruence, ZeroToDepth, _merge, chain_support, validate_chain_table
from .primes import Record, _is_antichain, _shown, _valuations, json_int, strict_int, strict_prime

SUBSTITUTION_MODES = ("strict", "safe")


class AntichainSpec(Record):
    """Prime/residue data driving the construction.

    chains: ordered (prime, residue chain) pairs; every chain must contain
    a nonzero entry so the prime's first nonzero depth is defined.
    divisor_primes: primes disjoint from the chain primes.
    """

    _fields = ("chains", "divisor_primes")
    __slots__ = (*_fields, "_depths")

    def __init__(self, chains: tuple, divisor_primes: tuple = ()):
        chains = tuple((json_int(p, "chain prime"), chain) for p, chain in chains)
        divisors = tuple(strict_prime(json_int(q, "divisor prime"), "divisor prime") for q in divisor_primes)
        if not chains:
            raise ValueError("at least one chain prime is required")
        seen = set()
        for p in [p for p, _ in chains] + list(divisors):
            if p in seen:
                raise ValueError(f"prime {_shown(p)} listed twice")
            seen.add(p)
        # the primes are distinct, so the table keeps every chain
        chains = tuple(validate_chain_table(dict(chains)).items())
        depths = []
        for p, chain in chains:
            support = chain_support(chain)
            if isinstance(support, ZeroToDepth):
                raise ValueError(f"chain for {_shown(p)} is all zero: first nonzero depth undefined")
            depths.append(support.first_nonzero)
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "divisor_primes", divisors)
        object.__setattr__(self, "_depths", tuple(depths))

    @property
    def chain_primes(self) -> tuple:
        return tuple(p for p, _ in self.chains)

    def to_json(self) -> dict:
        return {
            "chains": [{"prime": p, "residues": list(chain)} for p, chain in self.chains],
            "divisors": list(self.divisor_primes),
        }

    @staticmethod
    def from_json(data: dict) -> "AntichainSpec":
        if not isinstance(data, dict) or not isinstance(data.get("chains"), list):
            raise ValueError('antichain spec JSON: needs a "chains" array')
        chains = []
        for i, entry in enumerate(data["chains"]):
            if not isinstance(entry, dict) or "prime" not in entry or "residues" not in entry:
                raise ValueError(f'antichain spec JSON: chain {i} needs "prime" and "residues"')
            chains.append((entry["prime"], entry["residues"]))
        divisors = data.get("divisors", [])
        if not isinstance(divisors, list):
            raise ValueError('antichain spec JSON: field "divisors" must be an array')
        return AntichainSpec(tuple(chains), tuple(divisors))


def first_nonzero_depths(spec: AntichainSpec) -> list:
    """Least depth with a nonzero residue, per chain prime."""
    return list(spec._depths)


def _check_mode(substitution: str):
    if substitution not in SUBSTITUTION_MODES:
        raise ValueError(f"substitution must be one of {SUBSTITUTION_MODES}, got {_shown(substitution)}")


def _schedule(spec: AntichainSpec, n: int, substitution: str):
    """Element n's requirements, in check order, as (kind, prime, exponent, residue).

    Each formable kind asks for the element to be residue mod prime**exponent:
    "track" an earlier chain prime at depth first-nonzero + n, "own" the n-th
    chain prime's first nonzero power, "divisor" the j-th divisor prime to
    the n-th power for j < n, and "substitute" (safe mode) chain prime n + j
    at exponent 1 in place of a missing divisor prime.  "short" marks a chain
    too short for its tracking depth (residue None); "missing" (strict mode)
    a prime the supply lacks, with the list it is missing from in the prime
    slot and its number in that list in the exponent slot.
    """
    chains, divisors, depths = spec.chains, spec.divisor_primes, spec._depths
    for i in range(min(n, len(chains))):
        p, chain = chains[i]
        e = depths[i] + n
        yield ("track", p, e, chain[e - 1]) if e <= len(chain) else ("short", p, e, None)
    if n < len(chains):
        yield "own", chains[n][0], depths[n], 0
    elif substitution == "strict":
        yield "missing", "chain", n, None
    for j in range(n):
        if j < len(divisors):
            yield "divisor", divisors[j], n, 0
        elif substitution == "strict":
            yield "missing", "divisor", j, None
        elif n + j < len(chains):
            yield "substitute", chains[n + j][0], 1, 0


def _requirements(spec: AntichainSpec, n: int, substitution: str) -> list:
    """Element n's (modulus, residue) pairs, or the refusal of one that cannot be formed."""
    out = []
    for kind, p, e, r in _schedule(spec, n, substitution):
        if kind == "short":
            raise ValueError(f"chain for prime {_shown(p)} too short: element {n} needs depth {e}")
        if kind == "missing":
            raise ValueError(f"{p} prime number {e} unavailable and substitution disabled")
        out.append((p**e, r))
    return out


def step_congruences(spec: AntichainSpec, index: int, substitution: str = "safe") -> list:
    """The congruence system pinning element number `index` (index >= 1)."""
    _check_mode(substitution)
    return [Congruence(m, r) for m, r in _requirements(spec, strict_int(index, "index", 1), substitution)]


def build(spec: AntichainSpec, last: int, substitution: str = "safe") -> list:
    """Elements 0..last of the antichain, strictly increasing.

    Element 0 is the first nonzero power of the first chain prime; element
    n (n >= 1) is the least solution of step_congruences(spec, n) that
    exceeds element n-1.
    """
    _check_mode(substitution)
    strict_int(last, "last", 0)
    values = [spec.chains[0][0] ** spec._depths[0]]
    for index in range(1, last + 1):
        # prime powers, residue 0 on both where a prime repeats: no merge fails
        m, r = 1, 0
        for mi, ri in _requirements(spec, index, substitution):
            m, r = _merge(m, r, mi, ri)
        values.append(r + ((values[-1] - r) // m + 1) * m)
    return values


class VerificationReport(NamedTuple):
    monotone: bool
    antichain: bool
    chain_tracking: bool
    own_prime_divides: bool
    divisor_powers: bool
    factor_count_growth: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**self._asdict(), "ok": self.ok, "failures": list(self.failures)}


# report flag and failure text of each schedule kind that verify can find unmet
_FAILURES = {
    "track": ("chain_tracking", "element {n} misses residue {r} mod {p}^{e}"),
    "short": ("chain_tracking", "chain for {p} too short to check element {n}"),
    "own": ("own_prime_divides", "element {n} not divisible by {p}^{e}"),
    "divisor": ("divisor_powers", "element {n} not divisible by {p}^{e}"),
    "substitute": ("divisor_powers", "element {n} not divisible by substitute prime {p}"),
}


def verify(values: Sequence, spec: AntichainSpec, substitution: str = "safe") -> VerificationReport:
    """Check a prefix against the spec; never raises, failures are reported.

    Checks: strict monotonicity; pairwise non-divisibility; residue
    tracking of every earlier chain prime at its scheduled depth; each
    element divisible by its own chain prime's first nonzero power;
    divisor-prime powers (plus, in safe mode, the exponent-1 substitutes);
    and a prime-factor-count lower bound computed from the divisor primes
    alone (factoring the elements themselves is not attempted).
    """
    _check_mode(substitution)
    failures = []
    vals = list(values)
    positive = all(type(v) is int and v >= 1 for v in vals)
    monotone = positive and all(a < b for a, b in zip(vals, vals[1:]))
    if not monotone:
        failures.append("values are not strictly increasing positive integers")

    antichain_ok = positive and len(set(vals)) == len(vals) and _is_antichain(sorted(vals))
    if not antichain_ok:
        failures.append("values are not a divisibility antichain")

    flags = {flag: True for flag, _ in _FAILURES.values()}
    growth_ok = True
    divisors = spec.divisor_primes
    if positive:
        for n, a in enumerate(vals):
            for kind, p, e, r in _schedule(spec, n, substitution):
                if kind == "missing" or (kind != "short" and a % p**e == r):
                    continue
                flag, text = _FAILURES[kind]
                flags[flag] = False
                failures.append(text.format(n=n, p=_shown(p), e=e, r=_shown(r)))
            need = n * min(n, len(divisors))
            if divisors and _valuations(a, divisors) < need:
                growth_ok = False
                failures.append(f"element {n} has fewer than {need} factors over the divisor primes")

    return VerificationReport(
        monotone=monotone,
        antichain=antichain_ok,
        **flags,
        factor_count_growth=growth_ok,
        failures=tuple(failures),
    )
