"""Antichain construction: depths, building, verification."""

import random
from math import lcm

import pytest

from congruence_lattice import antichain as ac, crt, filter_lab as fl, lattice
from congruence_lattice.oracles import _random_chain, random_antichain_spec

# chain residues beyond the ones that matter for the early elements are held
# constant, which keeps each chain consistent at every depth
WORKED_SPEC = ac.AntichainSpec(
    chains=(
        (3, (1, 4, 13, 40, 40)),
        (5, (2, 7, 57, 57, 57)),
        (7, (3, 3, 3, 3, 3)),
    ),
    divisor_primes=(2,),
)


# -- spec validation -----------------------------------------------------------


def test_first_nonzero_depths():
    assert ac.first_nonzero_depths(WORKED_SPEC) == [1, 1, 1]
    spec = ac.AntichainSpec(chains=((3, (1, 4)), (5, (0, 5))))
    assert ac.first_nonzero_depths(spec) == [1, 2]


def test_all_zero_chain_rejected():
    with pytest.raises(ValueError):
        ac.AntichainSpec(chains=((7, (0, 0, 0)),))


def test_inconsistent_chain_rejected():
    with pytest.raises(ValueError):
        ac.AntichainSpec(chains=((3, (1, 5)),))  # 5 != 1 (mod 3)
    with pytest.raises(ValueError):
        ac.AntichainSpec(chains=((3, (3,)),))  # out of range


def test_duplicate_primes_rejected():
    # one check covers chain and divisor primes alike and names the first repeat
    for chains, divisors, prime in (
        (((3, (1,)), (5, (2,)), (3, (2,))), (2,), 3),
        (((3, (1,)), (5, (2,))), (2, 5, 3), 5),
        (((3, (1,)),), (2, 7, 2, 7), 2),
        (((4, (1,)), (4, (1,))), (), 4),  # before the chain primes are checked for primality
    ):
        with pytest.raises(ValueError, match=f"^prime {prime} listed twice$"):
            ac.AntichainSpec(chains, divisors)


def test_spec_rejects_non_integer_primes_and_residues():
    # int() used to truncate a prime of 3.5 to 3
    with pytest.raises(ValueError, match="expected an integer"):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3.5, "residues": [1, 4]}]})
    with pytest.raises(ValueError, match="expected an integer"):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3, "residues": [1, 4.0]}]})
    with pytest.raises(ValueError, match="expected an integer"):
        ac.AntichainSpec(chains=((3, (1,)),), divisor_primes=(True,))
    with pytest.raises(ValueError, match="^residue chain for 3: expected an array, got '14'$"):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3, "residues": "14"}]})
    with pytest.raises(ValueError, match='^antichain spec JSON field "chains": expected an array, got 5$'):
        ac.AntichainSpec.from_json({"chains": 5})
    with pytest.raises(ValueError, match="""^antichain spec JSON field "divisors": expected an array, got '23'$"""):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3, "residues": [1]}], "divisors": "23"})
    spec = ac.AntichainSpec.from_json({"chains": [{"prime": "3", "residues": ["1", "4"]}]})
    assert spec == ac.AntichainSpec(chains=((3, (1, 4)),))


def test_spec_json_names_a_chain_without_residues():
    with pytest.raises(ValueError, match='^antichain spec JSON chain 0: missing field "residues"$'):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3}]})


def test_spec_json_round_trip():
    data = WORKED_SPEC.to_json()
    assert ac.AntichainSpec.from_json(data) == WORKED_SPEC


# -- building ------------------------------------------------------------------


def test_first_element_is_first_nonzero_power():
    assert ac.build(WORKED_SPEC, 0) == [3]


def test_second_element_derived_by_scan():
    # element 1 solves x = 4 (mod 9), x = 0 (mod 5), x = 0 (mod 2)
    want = next(x for x in range(4, 200) if x % 9 == 4 and x % 5 == 0 and x % 2 == 0)
    assert want == 40
    assert ac.build(WORKED_SPEC, 1) == [3, 40]


def test_third_element_derived_by_scan():
    values = ac.build(WORKED_SPEC, 2)
    period = lcm(27, 125, 7, 4)
    assert period == 94500
    want = next(
        x
        for x in range(41, 41 + period)
        if x % 27 == 13 and x % 125 == 57 and x % 7 == 0 and x % 4 == 0
    )
    assert values == [3, 40, want]


def test_build_deterministic():
    assert ac.build(WORKED_SPEC, 4) == ac.build(WORKED_SPEC, 4)


def test_build_monotone_and_verified():
    values = ac.build(WORKED_SPEC, 4)
    assert values[:2] == [3, 40]
    assert all(a < b for a, b in zip(values, values[1:]))
    report = ac.verify(values, WORKED_SPEC)
    assert report.ok, report.failures


def test_one_chain_in_safe_mode_builds_least_solutions_that_verify_refuses():
    # build promises least solutions, not an antichain: element 1 divides element 2 here
    spec = ac.AntichainSpec(((2, (0, 2, 6, 6)),), (11,))
    values = ac.build(spec, 2)
    assert values == [4, 22, 726] and 726 % 22 == 0
    report = ac.verify(values, spec)
    assert not report.antichain and report.failures == ("values are not a divisibility antichain",)


def test_strict_mode_requires_enough_primes():
    spec = ac.AntichainSpec(chains=((3, (1, 4)),), divisor_primes=(2,))
    with pytest.raises(ValueError):
        ac.build(spec, 1, substitution="strict")
    # safe mode substitutes and drops as needed
    values = ac.build(spec, 1, substitution="safe")
    assert len(values) == 2
    assert ac.verify(values, spec).ok


def test_strict_mode_requires_enough_divisor_primes():
    spec = ac.AntichainSpec(
        chains=((3, (1, 4, 13)), (5, (2, 7, 57)), (7, (3, 3, 3))),
        divisor_primes=(),
    )
    with pytest.raises(ValueError):
        ac.build(spec, 1, substitution="strict")


def test_build_rejects_short_chains():
    spec = ac.AntichainSpec(chains=((3, (1, 4)), (5, (2, 7))), divisor_primes=(2,))
    with pytest.raises(ValueError):
        ac.build(spec, 2)


def reference_build(spec, last, substitution="safe"):
    """The fold build's lift must match: every element from (1, 0) over its own step system."""
    values = [spec.chains[0][0] ** ac.first_nonzero_depths(spec)[0]]
    for index in range(1, last + 1):
        c = crt.solve_system(ac.step_congruences(spec, index, substitution))
        values.append(c.residue + ((values[-1] - c.residue) // c.modulus + 1) * c.modulus)
    return values


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("refused", str(exc))


def random_lift_spec(rng, last):
    """1-5 chains and 0-4 divisors, so some divisor primes first appear after the
    last chain's step; one chain in five may be too short for the run."""
    chains = []
    primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37), rng.randint(1, 5) + rng.randint(0, 4))
    chain_count = rng.randint(1, min(5, len(primes)))
    for p in primes[:chain_count]:
        first = rng.randint(1, 2)
        depth = first + last if rng.random() < 0.8 else rng.randint(first, first + last)
        chains.append((p, _random_chain(rng, p, depth, first)))
    return ac.AntichainSpec(tuple(chains), tuple(primes[chain_count:]))


def test_lifted_build_equals_the_fold_from_scratch():
    rng = random.Random(314159)
    seen = {"lifted": 0, "late divisor": 0, "short": 0, "strict refusal": 0}
    for _ in range(300):
        last = rng.randint(0, 80)
        spec = random_lift_spec(rng, last)
        k, d = len(spec.chains), len(spec.divisor_primes)
        for mode in ("safe", "strict"):
            want = outcome(reference_build, spec, last, mode)
            assert outcome(ac.build, spec, last, mode) == want, (spec, last, mode)
            refused = isinstance(want, tuple)
            seen["lifted"] += not refused and last > k
            seen["late divisor"] += not refused and last > k < d
            seen["short"] += refused and "too short" in want[1]
            seen["strict refusal"] += refused and mode == "strict"
    assert min(seen.values()) >= 10, seen


def reference_verify(values, spec, substitution="safe"):
    """verify's report with the factor count taken one division at a time."""
    failures, flags, growth = [], {flag: True for flag, _ in ac._FAILURES.values()}, True
    monotone = all(a < b for a, b in zip(values, values[1:]))
    if not monotone:
        failures.append("values are not strictly increasing positive integers")
    antichain = not any(b % a == 0 for i, a in enumerate(values) for b in values[i + 1 :])
    if not antichain:
        failures.append("values are not a divisibility antichain")
    divisors = spec.divisor_primes
    for n, a in enumerate(values):
        for kind, p, e, r in ac._schedule(spec, n, substitution):
            if kind == "missing" or (kind != "short" and a % p**e == r):
                continue
            flag, text = ac._FAILURES[kind]
            flags[flag] = False
            failures.append(text.format(n=n, p=p, e=e, r=r))
        need, total = n * min(n, len(divisors)), 0
        for q in divisors:
            while a % q == 0:
                a //= q
                total += 1
        if total < need:
            growth = False
            failures.append(f"element {n} has fewer than {need} factors over the divisor primes")
    return ac.VerificationReport(monotone, antichain, **flags, factor_count_growth=growth, failures=tuple(failures))


def test_verify_counts_factors_as_division_does():
    # an element divided or multiplied by a divisor prime moves the factor count by one
    rng = random.Random(271828)
    flagged = 0
    for _ in range(150):
        last = rng.randint(1, 40)
        spec = random_lift_spec(rng, last)
        for mode in ("safe", "strict"):
            values = outcome(ac.build, spec, last, mode)
            if isinstance(values, tuple):
                continue
            assert ac.verify(values, spec, mode) == reference_verify(values, spec, mode)
            for _ in range(3):
                tampered, i = list(values), rng.randrange(len(values))
                q = rng.choice(spec.divisor_primes or spec.chain_primes)
                tampered[i] = tampered[i] // q if tampered[i] % q == 0 and rng.random() < 0.7 else tampered[i] * q
                report = ac.verify(tampered, spec, mode)
                assert report == reference_verify(tampered, spec, mode), (spec, tampered, mode)
                flagged += not report.factor_count_growth
    assert flagged >= 20


def test_only_the_first_steps_and_new_divisor_primes_are_merged(monkeypatch):
    # steps after the last chain's advance per-prime state: a fold from (1, 0) on
    # every step would merge about 200 * 8 times here, and they ask _requirements nothing
    merges, steps = [], []

    def counting_merge(*args):
        merges.append(args)
        return crt._merge(*args)

    def counting_requirements(spec, index, substitution):
        steps.append(index)
        return requirements(spec, index, substitution)

    rng = random.Random(1618)
    spec = ac.AntichainSpec(
        tuple((p, _random_chain(rng, p, 202, 2)) for p in (3, 5, 7)), divisor_primes=(2, 11, 13, 17, 19)
    )
    first_steps = sum(len(ac.step_congruences(spec, n)) for n in range(1, 4))
    requirements = ac._requirements
    monkeypatch.setattr(ac, "_merge", counting_merge)
    monkeypatch.setattr(ac, "_requirements", counting_requirements)
    values = ac.build(spec, 200)
    assert len(merges) == first_steps + 2  # 17 and 19 first appear at steps 4 and 5
    assert steps == [1, 2, 3]
    monkeypatch.undo()
    assert values == reference_build(spec, 200)


def test_verify_counts_factors_only_where_a_divisor_power_is_missing(monkeypatch):
    # n * min(n, len(divisors)) factors follow from the divisor powers q_j^n | a
    # themselves; verify used to count them on every element
    calls = []

    def counting_valuations(n, primes):
        calls.append(n)
        return valuations(n, primes)

    valuations = ac._valuations
    monkeypatch.setattr(ac, "_valuations", counting_valuations)
    rng = random.Random(4669)
    tampered_counts = 0
    for _ in range(60):
        last = rng.randint(1, 30)
        spec = random_lift_spec(rng, last)
        values = outcome(ac.build, spec, last)
        if isinstance(values, tuple):
            continue
        calls.clear()
        assert ac.verify(values, spec) == reference_verify(values, spec)
        assert calls == []  # a built prefix meets every divisor power
        divisors = spec.divisor_primes
        for _ in range(3):
            tampered, i = list(values), rng.randrange(len(values))
            q = rng.choice(divisors or spec.chain_primes)
            tampered[i] = tampered[i] // q if tampered[i] % q == 0 and rng.random() < 0.7 else tampered[i] * q
            unmet = [n for n, a in enumerate(tampered) if any(a % d**n for d in divisors[: min(n, len(divisors))])]
            calls.clear()
            assert ac.verify(tampered, spec) == reference_verify(tampered, spec)
            assert len(calls) == len(divisors) * len(unmet)  # one capped count per divisor prime
            tampered_counts += bool(unmet)
    assert tampered_counts >= 20


def test_bad_substitution_mode():
    with pytest.raises(ValueError):
        ac.build(WORKED_SPEC, 1, substitution="loose")


def test_verify_refuses_what_it_cannot_check_as_its_docstring_says():
    with pytest.raises(ValueError) as built:
        ac.build(WORKED_SPEC, 1, substitution="loose")
    with pytest.raises(ValueError, match="substitution must be one of") as verified:
        ac.verify([1, 2], WORKED_SPEC, substitution="loose")
    assert str(verified.value) == str(built.value)
    with pytest.raises(TypeError):
        ac.verify(7, WORKED_SPEC)


# -- verification ---------------------------------------------------------------


def test_verify_detects_divisible_pair():
    report = ac.verify([3, 39], WORKED_SPEC)
    assert not report.antichain  # 3 | 39
    assert not report.ok


def test_verify_empty_prefix_vacuous():
    report = ac.verify([], WORKED_SPEC)
    assert report.ok


def test_verify_detects_wrong_residue():
    # swap element 1 for another multiple of 10 that misses 4 mod 9
    report = ac.verify([3, 50], WORKED_SPEC)
    assert not report.chain_tracking
    assert not report.ok


def test_verify_detects_nonmonotone():
    report = ac.verify([40, 3], WORKED_SPEC)
    assert not report.monotone
    assert not report.ok


def test_verify_reports_divisor_power_failure():
    values = ac.build(WORKED_SPEC, 2)
    tampered = values[:2] + [values[2] + lcm(27, 125, 7)]  # keeps residues mod odd part
    report = ac.verify(tampered, WORKED_SPEC)
    assert not report.ok


def test_random_specs_build_and_verify():
    rng = random.Random(8675309)
    for _ in range(40):
        last = rng.randint(1, 4)
        spec = random_antichain_spec(rng, last)
        values = ac.build(spec, last)
        report = ac.verify(values, spec)
        assert report.ok, (spec, values, report.failures)


def test_least_solution_property_by_scan():
    rng = random.Random(5551212)
    for _ in range(15):
        last = rng.randint(1, 3)
        spec = random_antichain_spec(rng, last)
        values = ac.build(spec, last)
        for index in range(1, last + 1):
            system = ac.step_congruences(spec, index)
            if lcm(*(c.modulus for c in system)) > 10**6:
                continue
            for x in range(values[index - 1] + 1, values[index]):
                assert not all(c.satisfied_by(x) for c in system)


def test_verify_and_step_congruences_share_the_schedule():
    # element n >= 1 of a perturbed prefix fails a tracking, own-prime or
    # divisor check in verify exactly when it misses a congruence of
    # step_congruences(spec, n); chains are long enough for every element
    rng = random.Random(20240517)
    checks = ("misses residue", "not divisible by")
    for _ in range(300):
        last = rng.randint(1, 5)
        spec = random_antichain_spec(rng, last)
        values = ac.build(spec, last)
        for i in range(len(values)):
            if rng.random() < 0.4:
                values[i] = max(1, values[i] + rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 7, 10**3]))
        failures = ac.verify(values, spec).failures
        for n in range(1, last + 1):
            flagged = any(f.startswith(f"element {n} ") and any(c in f for c in checks) for f in failures)
            missed = any(not c.satisfied_by(values[n]) for c in ac.step_congruences(spec, n))
            assert flagged == missed, (spec, values, n, failures)


def test_values_the_library_built_are_not_checked_again(monkeypatch):
    # build folds CRT on ints, verify reads primes' private cores, and
    # nmax_witness merges two classes without building a Congruence
    def refuse(*args):
        raise AssertionError("a value the library built was checked again")

    monkeypatch.setattr(crt.Congruence, "__init__", refuse)
    for module in (ac, lattice):
        monkeypatch.setattr(module, "strict_prime", refuse)
        monkeypatch.setattr(module, "json_int", refuse)
    values = ac.build(WORKED_SPEC, 4)
    assert values == [3, 40, 40432, 851944432, 76699534432]
    assert ac.verify(values, WORKED_SPEC).ok
    assert ac.verify(values[:2], WORKED_SPEC).ok
    assert fl.nmax_witness(4, 1, [3], [5, 7]) == 5
