"""Antichain construction: depths, building, verification."""

import random
from math import lcm

import pytest

from congruence_lattice import antichain as ac, crt, filter_lab as fl, lattice
from congruence_lattice.oracles import random_antichain_spec

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
    with pytest.raises(ValueError):
        ac.AntichainSpec(chains=((3, (1,)), (3, (2,))))
    with pytest.raises(ValueError):
        ac.AntichainSpec(chains=((3, (1,)),), divisor_primes=(3,))


def test_spec_rejects_non_integer_primes_and_residues():
    # int() used to truncate a prime of 3.5 to 3
    with pytest.raises(ValueError, match="expected an integer"):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3.5, "residues": [1, 4]}]})
    with pytest.raises(ValueError, match="expected an integer"):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3, "residues": [1, 4.0]}]})
    with pytest.raises(ValueError, match="expected an integer"):
        ac.AntichainSpec(chains=((3, (1,)),), divisor_primes=(True,))
    with pytest.raises(ValueError, match="must be a list"):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3, "residues": "14"}]})
    with pytest.raises(ValueError, match='needs a "chains" array'):
        ac.AntichainSpec.from_json({"chains": 5})
    with pytest.raises(ValueError, match="must be an array"):
        ac.AntichainSpec.from_json({"chains": [{"prime": 3, "residues": [1]}], "divisors": "23"})
    spec = ac.AntichainSpec.from_json({"chains": [{"prime": "3", "residues": ["1", "4"]}]})
    assert spec == ac.AntichainSpec(chains=((3, (1, 4)),))


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


def test_bad_substitution_mode():
    with pytest.raises(ValueError):
        ac.build(WORKED_SPEC, 1, substitution="loose")


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
