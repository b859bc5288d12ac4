"""Oracle suite runner: budget, case count and per-suite verdicts."""

from math import gcd, lcm

import pytest

from congruence_lattice import antichain, crt, filter_lab, geometry, lattice, oracles, periodic_sets, primes


@pytest.mark.parametrize("suite", sorted(oracles.SUITES))
def test_zero_budget_runs_no_case(suite):
    report = oracles.run_suite(suite, budget_s=0, cases=5)
    assert report["budget_exceeded"] is True
    assert report["cases_run"] == 0
    assert report["mismatches"] == 0


@pytest.mark.parametrize("cases", [2.7, True, "two", -1])
def test_case_count_must_be_a_non_negative_integer(cases):
    # int() used to truncate 2.7 to 2 and read True as 1
    with pytest.raises(ValueError):
        oracles.run_suite("crt", cases=cases)


@pytest.mark.parametrize("budget", [True, "1", float("nan"), float("inf"), -1, -0.5])
def test_budget_must_be_finite_non_negative_seconds(budget):
    # float() read "1" as 1.0, and NaN or a negative budget passed unchecked
    with pytest.raises(ValueError, match="budget_s"):
        oracles.run_suite("crt", budget_s=budget, cases=1)


def test_case_count_accepts_a_decimal_string():
    assert oracles.run_suite("crt", cases="3")["cases_run"] == 3


@pytest.mark.parametrize("suite", sorted(oracles.SUITES))
def test_small_runs_report_no_mismatch(suite):
    report = oracles.run_suite(suite, seed=7, cases=4)
    assert report["mismatches"] == 0, report["mismatch_examples"]
    assert report["budget_exceeded"] is False
    assert report["cases"] == 4
    if suite not in ("geom", "primes"):  # these add fixed checks to the random cases
        assert report["cases_run"] == 4


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        oracles.run_suite("bogus")


def test_crt_suite_catches_a_merge_to_the_product_of_the_moduli(monkeypatch):
    # the class is right, but modulo m1 * m2 rather than their lcm when they share a factor
    merge = crt._merge
    monkeypatch.setattr(crt, "_merge", lambda m1, r1, m2, r2: (m := merge(m1, r1, m2, r2)) and (m1 * m2, m[1]))
    report = oracles.run_suite("crt", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "solver" in text and "vs scan" in text, text


def test_geom_suite_catches_the_largest_generator_as_the_ratio(monkeypatch):
    # every generator of H_l recognizes its cosets, so only the descriptor shows the fault
    least = geometry._least_generator

    def planted(p, l):
        r = least(p, l)
        return max(pow(r, k, p) for k in range(1, l + 1) if gcd(k, l) == 1)

    monkeypatch.setattr(geometry, "_least_generator", planted)
    report = oracles.run_suite("geom", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "descriptor mismatch" in text, text


def test_geom_suite_catches_a_coset_accepted_with_one_element_missing(monkeypatch):
    is_geometric = geometry.is_geometric

    def planted(p, residues):
        s = frozenset(residues)
        if (d := is_geometric(p, s)) is not None or 0 in s:
            return d
        return next(filter(None, (is_geometric(p, s | {x}) for x in range(1, p) if x not in s)), None)

    monkeypatch.setattr(geometry, "is_geometric", planted)
    report = oracles.run_suite("geom", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "recognizer vs enumeration" in text, text


def test_antichain_suite_catches_an_element_one_period_too_high(monkeypatch):
    # the suite's brute-force check of the lifted steps: element len(chains) + 1,
    # the first one build lifts, moved to the next solution of its system
    build = antichain.build

    def planted(spec, last, substitution="safe"):
        values, n = build(spec, last, substitution), len(spec.chains) + 1
        if n <= last:
            values[n] += lcm(*(c.modulus for c in antichain.step_congruences(spec, n, substitution)))
        return values

    monkeypatch.setattr(antichain, "build", planted)
    report = oracles.run_suite("antichain", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "element" in text, text


def test_dlog_suite_catches_one_log_off_by_one_in_each_case(monkeypatch):
    # the first answer for each (p, base) pair, and each case draws one, is one too high;
    # 20 cases run _dlog_prime's draws past its fixed primes, both by scan and by pow
    discrete_log, seen = geometry.discrete_log, set()

    def planted(p, base, x):
        k = discrete_log(p, base, x)
        if k is None or (p, base) in seen:
            return k
        seen.add((p, base))
        return k + 1

    monkeypatch.setattr(geometry, "discrete_log", planted)
    report = oracles.run_suite("dlog", cases=20)
    assert report["cases_run"] == 20 and report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "discrete_log" in text, text


def test_periodic_suite_catches_a_residue_sum_off_by_one(monkeypatch):
    # the hash sums a set's residues by CRT; the suite sums the listing itself
    view_sum = periodic_sets._view_sum
    monkeypatch.setattr(periodic_sets, "_view_sum", lambda view: view_sum(view) + 1)
    report = oracles.run_suite("periodic", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "hash differs" in text, text


def test_upward_suite_catches_a_verdict_negated_on_even_moduli(monkeypatch):
    is_upward_closed = lattice.is_upward_closed
    monkeypatch.setattr(lattice, "is_upward_closed", lambda s: is_upward_closed(s) != (s.modulus % 2 == 0))
    report = oracles.run_suite("upward", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "criterion" in text, text


def test_fip_suite_catches_a_verdict_negated_for_three_or_more_members(monkeypatch):
    has_fip = filter_lab.has_fip
    monkeypatch.setattr(filter_lab, "has_fip", lambda members: has_fip(members) != (len(members) >= 3))
    report = oracles.run_suite("fip", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "has_fip" in text, text


# rho's composites past trial division are odd, so 2 is always a wrong split
_RHO_FAULTS = {"wrong split": lambda m, left: (2, left), "gives up": lambda m, left: (0, 0)}


@pytest.mark.parametrize("fault", sorted(_RHO_FAULTS))
def test_primes_suite_catches_rho_splitting_wrongly_or_giving_up(monkeypatch, fault):
    monkeypatch.setattr(primes, "_rho", _RHO_FAULTS[fault])
    report = oracles.run_suite("primes", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "factorize(" in text, text


@pytest.mark.parametrize("fault", sorted(_RHO_FAULTS))
def test_divisors_suite_catches_rho_splitting_wrongly_or_giving_up(monkeypatch, fault):
    # about half the cases leave a product of two primes above 2^10 to rho; a refusal is
    # reported as a mismatch, not raised out of run_suite
    monkeypatch.setattr(primes, "_rho", _RHO_FAULTS[fault])
    report = oracles.run_suite("divisors", cases=20)
    assert report["mismatches"] >= 1
    text = "\n".join(report["mismatch_examples"])
    assert "down_closure(" in text and "vs scan" in text, text
    if fault == "gives up":
        assert "): None vs scan" in text, text
