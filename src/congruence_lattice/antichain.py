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

from collections import namedtuple
from collections.abc import Sequence
from itertools import repeat
from math import gcd, prod

from .crt import Congruence, _checked_chain, _merge, chain_support
from .primes import Record, _is_antichain, _shown, _valuations, json_array, json_int, json_object, strict_int
from .primes import strict_prime

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
        chains = tuple((p, _checked_chain(strict_prime(p, "chain prime"), chain)) for p, chain in chains)
        for p, chain in chains:
            if not any(chain):
                raise ValueError(f"chain for {_shown(p)} is all zero: first nonzero depth undefined")
        self._set(chains, divisors, tuple(chain_support(chain).first_nonzero for _, chain in chains))

    @property
    def chain_primes(self) -> tuple:
        return tuple(p for p, _ in self.chains)

    def to_json(self) -> dict:
        return {
            "chains": [{"prime": p, "residues": list(chain)} for p, chain in self.chains],
            "divisors": list(self.divisor_primes),
        }

    @staticmethod
    def from_json(data) -> "AntichainSpec":
        """The spec of `to_json`'s object; "divisors" may be left out, and an int may be a decimal string."""
        what = "antichain spec JSON"
        entries = json_array(json_object(data, what, "chains")["chains"], f'{what} field "chains"')
        chains = [json_object(e, f"{what} chain {i}", "prime", "residues") for i, e in enumerate(entries)]
        divisors = json_array(data.get("divisors", ()), f'{what} field "divisors"')
        return AntichainSpec(tuple((e["prime"], e["residues"]) for e in chains), tuple(divisors))


def first_nonzero_depths(spec: AntichainSpec) -> list:
    """Least depth with a nonzero residue, per chain prime."""
    AntichainSpec._check((spec,), "spec")
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
    the first prime a list lacks, with the list in the prime slot and the
    prime's number in that list in the exponent slot.
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
    for j in range(min(n, max(len(divisors) + 1, len(chains) - n))):  # substitutes end at len(chains) - n
        if j < len(divisors):
            yield "divisor", divisors[j], n, 0
        elif substitution == "strict":
            yield "missing", "divisor", j, None
        elif n + j < len(chains):
            yield "substitute", chains[n + j][0], 1, 0


def _requirements(spec: AntichainSpec, n: int, substitution: str) -> list:
    """Element n's (prime, exponent, residue) triples, or the refusal of one that cannot be formed."""
    out = []
    for kind, p, e, r in _schedule(spec, n, substitution):
        if kind == "short":
            raise ValueError(f"chain for prime {_shown(p)} too short: element {n} needs depth {e}")
        if kind == "missing":
            raise ValueError(f"{p} prime number {e} unavailable and substitution disabled")
        out.append((p, e, r))
    return out


def step_congruences(spec: AntichainSpec, index: int, substitution: str = "safe") -> list:
    """The congruence system pinning element number `index` (index >= 1)."""
    AntichainSpec._check((spec,), "spec")
    _check_mode(substitution)
    index = strict_int(index, "index", 1)
    return [Congruence(p**e, r) for p, e, r in _requirements(spec, index, substitution)]


def build(spec: AntichainSpec, last: int, substitution: str = "safe") -> list:
    """Build elements 0..last, each the least solution above the one before; `verify` checks the antichain.

    Element 0 is the first nonzero power of the first chain prime; element n (n >= 1) is the least
    solution of step_congruences(spec, n) above element n-1.  In safe mode with one chain these
    need not be an antichain: build(AntichainSpec(((2, (0, 2, 6, 6)),), (11,)), 2) is [4, 22, 726], 22 | 726.
    Steps 1..len(chains) fold CRT from (1, 0); each later system refines the one before (chains a p-adic
    digit deeper, divisor powers up by one, no "own" or "substitute" entry).  So each prime p of the
    class (m, r) keeps p^e exactly dividing m and k = (m / p^e) mod p, and gives the digit
    t_p = ((c - r) mod p^(e+1)) / p^e * k^-1 mod p; CRT joins the digits into t mod P, P the product of
    the primes, and r += m*t, m *= P.  The new m / p^(e+1) is the old m / p^e times P/p, so k is
    multiplied by P/p mod p.  A divisor prime first required later is merged; its power multiplies each k.
    """
    AntichainSpec._check((spec,), "spec")
    _check_mode(substitution)
    strict_int(last, "last", 0)
    chains, divisors = spec.chains, spec.divisor_primes
    values = [chains[0][0] ** spec._depths[0]]
    for index in range(1, min(last, len(chains)) + 1):
        m, r, triples = 1, 0, _requirements(spec, index, substitution)
        for p, e, c in triples:
            m, r = _merge(m, r, p**e, c)
        values.append(r + ((values[-1] - r) // m + 1) * m)
    if last <= len(chains):
        return values
    if last > (end := min(len(chain) - depth for (_, chain), depth in zip(chains, spec._depths))):
        _requirements(spec, end + 1, substitution)  # refuses the first chain too short for step end + 1
    tracked = dict(chains)  # per prime: p, p^e, k and its residues from depth e + 1 on (a divisor's are 0)
    state = [[p, p**e, m // p**e % p, iter(tracked.get(p, ())[e:] or repeat(0))] for p, e, _ in triples]
    P = prod(p for p, _, _ in triples)
    for index in range(len(chains) + 1, last + 1):
        t = 0
        for s in state:
            p, pe, k, residues = s
            s[1], s[2] = pe * p, k * (P // p) % p  # the new k: P/p times its inverse is k^-1 mod p, 0 mod P/p
            t += (next(residues) - r) % s[1] // pe * (P // p) * pow(s[2], -1, p)
        r, m = r + m * (t % P), m * P
        if index <= len(divisors):  # divisor prime index - 1, first required now
            qe = (q := divisors[index - 1]) ** index
            state = [[p, pe, k * qe % p, res] for p, pe, k, res in state] + [[q, qe, m % q, repeat(0)]]
            m, r, P = *_merge(m, r, qe, 0), P * q
        values.append(r + ((values[-1] - r) // m + 1) * m)
    return values


_REPORTED = "monotone antichain chain_tracking own_prime_divides divisor_powers factor_count_growth failures"


class VerificationReport(namedtuple("VerificationReport", _REPORTED)):
    __slots__ = ()

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
    """Check a prefix against the spec and report its failures.  An unknown substitution mode
    raises `build`'s ValueError, and a prefix that is not iterable TypeError.

    Checks: strict monotonicity; pairwise non-divisibility; residue
    tracking of every earlier chain prime at its scheduled depth; each
    element divisible by its own chain prime's first nonzero power;
    divisor-prime powers (plus, in safe mode, the exponent-1 substitutes);
    and a prime-factor-count lower bound computed from the divisor primes
    alone (factoring the elements themselves is not attempted), counted only
    for an element missing a divisor power: q_j^n | a for every j < min(n,
    len(divisors)) already gives the n * min(n, len(divisors)) factors.
    """
    AntichainSpec._check((spec,), "spec")
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
            unmet = False  # a divisor power this element misses
            for kind, p, e, r in _schedule(spec, n, substitution):
                if kind == "missing" or (kind != "short" and a % p**e == r):
                    continue
                unmet |= kind == "divisor"
                flag, text = _FAILURES[kind]
                flags[flag] = False
                failures.append(text.format(n=n, p=_shown(p), e=e, r=_shown(r)))
            if unmet:  # else q_j^n | a for every j < min(n, len(divisors)) gives all n * min(n, len(divisors))
                need = left = n * min(n, len(divisors))
                for q in divisors:  # each valuation capped at what is still missing: one gcd a prime
                    left -= _valuations(gcd(a, q**left), (q,))
                if left:
                    growth_ok = False
                    failures.append(f"element {n} has fewer than {need} factors over the divisor primes")

    return VerificationReport(
        monotone=monotone,
        antichain=antichain_ok,
        **flags,
        factor_count_growth=growth_ok,
        failures=tuple(failures),
    )
