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
building: unavailable indices are dropped and missing divisor primes are
replaced by later chain primes at exponent 1 (exponent 1 so the
substitution cannot collide with residue requirements scheduled for those
primes at later steps).  "strict" mode errors out instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .crt import Congruence, solve_system, validate_chain_table
from .lattice import is_antichain, omega_lower_bound
from .primes import is_prime, json_int

SUBSTITUTION_MODES = ("strict", "safe")


@dataclass(frozen=True)
class AntichainSpec:
    """Prime/residue data driving the construction.

    chains: ordered (prime, residue chain) pairs; every chain must contain
    a nonzero entry so the prime's first nonzero depth is defined.
    divisor_primes: primes disjoint from the chain primes.
    """

    chains: tuple
    divisor_primes: tuple = ()

    def __post_init__(self):
        chains = tuple((json_int(p, "chain prime"), chain) for p, chain in self.chains)
        divisors = tuple(json_int(q, "divisor prime") for q in self.divisor_primes)
        if not chains:
            raise ValueError("at least one chain prime is required")
        seen = set()
        for p in [p for p, _ in chains] + list(divisors):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in seen:
                raise ValueError(f"prime {p} listed twice")
            seen.add(p)
        # the primes are distinct, so the table keeps every chain
        chains = tuple(validate_chain_table(dict(chains)).items())
        for p, chain in chains:
            if all(r == 0 for r in chain):
                raise ValueError(f"chain for {p} is all zero: first nonzero depth undefined")
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "divisor_primes", divisors)

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
    out = []
    for _, chain in spec.chains:
        out.append(next(i for i, r in enumerate(chain, start=1) if r != 0))
    return out


def _check_mode(substitution: str):
    if substitution not in SUBSTITUTION_MODES:
        raise ValueError(f"substitution must be one of {SUBSTITUTION_MODES}, got {substitution!r}")


def step_congruences(spec: AntichainSpec, index: int, substitution: str = "safe") -> list:
    """The congruence system pinning element number `index` (index >= 1)."""
    _check_mode(substitution)
    if index < 1:
        raise ValueError("index must be >= 1")
    depths = first_nonzero_depths(spec)
    chains = spec.chains
    divisors = spec.divisor_primes
    out = []
    for i in range(min(index, len(chains))):
        p, chain = chains[i]
        depth = depths[i] + index
        if depth > len(chain):
            raise ValueError(
                f"chain for prime {p} too short: element {index} needs depth {depth}"
            )
        out.append(Congruence(p**depth, chain[depth - 1]))
    if index < len(chains):
        p, _ = chains[index]
        out.append(Congruence(p ** depths[index], 0))
    elif substitution == "strict":
        raise ValueError(f"chain prime number {index} unavailable and substitution disabled")
    for j in range(index):
        if j < len(divisors):
            out.append(Congruence(divisors[j] ** index, 0))
        elif substitution == "strict":
            raise ValueError(f"divisor prime number {j} unavailable and substitution disabled")
        else:
            k = index + j
            if k < len(chains):
                out.append(Congruence(chains[k][0], 0))
    return out


def build(spec: AntichainSpec, last: int, substitution: str = "safe") -> list:
    """Elements 0..last of the antichain, strictly increasing.

    Element 0 is the first nonzero power of the first chain prime; element
    n (n >= 1) is the least solution of step_congruences(spec, n) that
    exceeds element n-1.
    """
    _check_mode(substitution)
    if last < 0:
        raise ValueError("last must be non-negative")
    depths = first_nonzero_depths(spec)
    values = [spec.chain_primes[0] ** depths[0]]
    for index in range(1, last + 1):
        system = step_congruences(spec, index, substitution)
        sol = solve_system(system)
        if sol is None:
            raise RuntimeError("system over distinct primes cannot be infeasible")
        prev = values[-1]
        k = (prev - sol.residue) // sol.modulus + 1
        values.append(sol.residue + k * sol.modulus)
    return values


@dataclass(frozen=True)
class VerificationReport:
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
        return {
            "ok": self.ok,
            "monotone": self.monotone,
            "antichain": self.antichain,
            "chain_tracking": self.chain_tracking,
            "own_prime_divides": self.own_prime_divides,
            "divisor_powers": self.divisor_powers,
            "factor_count_growth": self.factor_count_growth,
            "failures": list(self.failures),
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
    positive = all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in vals)
    monotone = positive and all(a < b for a, b in zip(vals, vals[1:]))
    if not monotone:
        failures.append("values are not strictly increasing positive integers")

    antichain_ok = False
    if positive and len(set(vals)) == len(vals):
        antichain_ok = is_antichain(vals)
    if not antichain_ok and vals:
        failures.append("values are not a divisibility antichain")
    if not vals:
        antichain_ok = True

    chains = spec.chains
    divisors = spec.divisor_primes
    depths = first_nonzero_depths(spec)

    chain_tracking = True
    own_prime = True
    divisor_ok = True
    growth_ok = True
    if positive:
        for n, a in enumerate(vals):
            for i in range(min(n, len(chains))):
                p, chain = chains[i]
                depth = depths[i] + n
                if depth > len(chain):
                    chain_tracking = False
                    failures.append(f"chain for {p} too short to check element {n}")
                    continue
                mod = p**depth
                if a % mod != chain[depth - 1]:
                    chain_tracking = False
                    failures.append(
                        f"element {n} misses residue {chain[depth - 1]} mod {p}^{depth}"
                    )
            if n < len(chains):
                p, _ = chains[n]
                if a % p ** depths[n] != 0:
                    own_prime = False
                    failures.append(f"element {n} not divisible by {p}^{depths[n]}")
            for j in range(n):
                if j < len(divisors):
                    if a % divisors[j] ** n != 0:
                        divisor_ok = False
                        failures.append(f"element {n} not divisible by {divisors[j]}^{n}")
                elif substitution == "safe":
                    k = n + j
                    if k < len(chains) and a % chains[k][0] != 0:
                        divisor_ok = False
                        failures.append(
                            f"element {n} not divisible by substitute prime {chains[k][0]}"
                        )
            need = n * min(n, len(divisors))
            if divisors and omega_lower_bound(a, divisors) < need:
                growth_ok = False
                failures.append(f"element {n} has fewer than {need} factors over the divisor primes")

    return VerificationReport(
        monotone=monotone,
        antichain=antichain_ok,
        chain_tracking=chain_tracking,
        own_prime_divides=own_prime,
        divisor_powers=divisor_ok,
        factor_count_growth=growth_ok,
        failures=tuple(failures),
    )
