"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import math
import random
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import certs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Query  # noqa: E402


# -- tail percentile rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, want",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, want):
    assert stats.tail_percentile(n) == want
    if want is not None:
        assert n - stats.rank(want, n) >= 10
        higher = [q for q in stats.PERCENTILES if q > want]
        assert all(n - stats.rank(q, n) < 10 for q in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert stats.percentile(values, 50) == 500
    assert stats.percentile(values, 90) == 900
    assert stats.percentile(values, 99.9) == 999
    assert stats.rank(99.9, 1000) == 999  # no float drift at q = 99.9


# -- failure counting ----------------------------------------------------------------


def test_tally_counts_known_and_unexpected_failures():
    t = stats.Tally()
    t.record("k", "a", None, False)
    t.record("k", "b", "FactorizationBudgetError: x", True)
    t.record("k", "b", "FactorizationBudgetError: x", True)
    t.record("k", "c", "wrong answer: y", False)
    assert (t.attempted, t.failed, t.unexpected) == (4, 3, 1)
    assert not t.correct
    assert t.to_json()["causes"] == [
        ["k", "b", "FactorizationBudgetError: x", True, 2],
        ["k", "c", "wrong answer: y", False, 1],
    ]


def test_known_defects_alone_keep_a_run_correct():
    t = stats.Tally()
    t.record("k", "psi12", "wrong answer: composite", True)
    assert t.failed == 1 and t.correct


@pytest.fixture
def fake_kinds(monkeypatch):
    checked = Counter()

    def run(api, args):
        if args == "raise-value":
            raise ValueError("refused")
        if args == "raise-key":
            raise KeyError("crash")
        return args

    def check(args, cert, answer):
        checked[args] += 1
        return None if answer.startswith("ok") else ("primes", "wrong")

    monkeypatch.setitem(workloads.KINDS, "fake", (run, check))
    return checked


def test_run_cycles_classifies_every_failure(fake_kinds):
    import worker

    queries = [
        Query("fake", "ok", None, "ok", None),
        Query("fake", "raise-value", None, "refusal", ("raises", "ValueError")),
        Query("fake", "raise-key", None, "crash", ("raises", "ValueError")),
        Query("fake", "bad", None, "known wrong", ("wrong", None)),
        Query("fake", "bad2", None, "unexpected wrong", None),
    ]
    spec = SimpleNamespace(memo_checks=False)
    _, scaled, per_cycle, kernel_s, tally, check_failures = worker.run_cycles(
        queries, [(None, None)], spec, lambda cycles, elapsed: cycles == 2
    )
    assert len(scaled) == 10 and all(t > 0 for t in scaled) and len(per_cycle) == 2 and kernel_s
    assert (tally.attempted, tally.failed, tally.unexpected) == (10, 8, 4)
    causes = {(label, known): n for _, label, _, known, n in tally.to_json()["causes"]}
    assert causes == {("refusal", True): 2, ("crash", False): 2, ("known wrong", True): 2, ("unexpected wrong", False): 2}
    assert check_failures == Counter()  # layer attribution only in traced cycles


def test_memo_checks_recertify_only_changed_answers(fake_kinds):
    import worker

    spec = SimpleNamespace(memo_checks=True)
    queries = [Query("fake", "ok-1", None, "ok", None)]
    worker.run_cycles(queries, [(None, None)], spec, lambda cycles, elapsed: cycles == 5)
    assert fake_kinds["ok-1"] == 1


# -- scaling to the reference speed and percentiles over runs ------------------------------


def test_scaler_divides_by_the_median_kernel_time_around_each_block():
    import speed

    ref = speed.REFERENCE_S
    kernel_times = iter([ref, 2 * ref, 2 * ref])
    out = []
    scaler = speed.Scaler(lambda key, t: out.append((key, t)), gap_s=1.0, half_window=1, timer=lambda: next(kernel_times))
    scaler.add("a", 0.5)
    scaler.add("b", 0.5)  # the first block is a and b, with one kernel run after them
    assert out == []  # held until a kernel run has followed the one after it
    scaler.add("c", 1.0)
    assert out == [("a", 0.5 / 1.5), ("b", 0.5 / 1.5)]
    scaler.add("d", 1.0)
    scaler.flush()
    assert out[2:] == [("c", 0.5), ("d", 0.5)]
    assert scaler.kernel_s == [ref, 2 * ref, 2 * ref]


def test_repeated_percentile_counts_each_value_that_many_times():
    import stats

    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.repeated_percentile(values, 20, 50) == 3.0
    assert stats.repeated_percentile(values, 20, 90) == 5.0  # runs 91..100 of 100 are beyond it
    assert stats.repeated_percentile(values, 1, 90) == stats.percentile(values, 90)


# -- spans and self time -------------------------------------------------------------


def test_self_time_subtracts_children():
    assert tracing.self_time(0.0, 10.0, []) == 10.0
    assert tracing.self_time(0.0, 10.0, [(1.0, 3.0), (3.0, 5.0), (7.0, 8.0)]) == 5.0
    assert tracing.self_time(0.0, 10.0, [(0.0, 10.0)]) == 0.0


def test_recorder_parents_and_layer_metrics():
    rec = tracing.Recorder()
    q = rec.open("query")
    a = rec.open("primes.is_prime")
    rec.close(a)
    b = rec.open("crt.solve_system")
    rec.close(b, failed=True)
    rec.close(q, failed=True)
    assert rec.parents == [-1, q, q]
    rec.starts, rec.ends = [0.0, 1.0, 4.0], [10.0, 3.0, 5.0]
    assert rec.self_times() == [7.0, 2.0, 1.0]
    m = tracing.layer_metrics(rec, ("primes", "crt"), Counter(primes=1))
    assert m["primes"] == {"calls": 1, "busy_s": 2.0, "fail": 1}
    assert m["crt"] == {"calls": 1, "busy_s": 1.0, "fail": 1}
    assert m["query"] == {"calls": 1, "self_s": 7.0}


def test_traced_api_records_calls_and_failures():
    rec = tracing.Recorder()
    seen = []

    def boom():
        raise ValueError("x")

    api = tracing.traced_api({"primes": {"ok": lambda: 7, "boom": boom}}, rec, lambda label, out: seen.append((label, out)))
    assert api.primes.ok() == 7
    with pytest.raises(ValueError):
        api.primes.boom()
    assert rec.names == ["primes.ok", "primes.boom"] and rec.failed == [False, True]
    assert seen == [("primes.ok", 7)]


def test_parse_importtime_counts_the_package_and_later_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |      36000 | site",
        "import time:       100 |        100 |   encodings.aliases",
        "import time:       700 |      40000 | congruence_lattice",
        "import time:        50 |        300 |   json",
        "import time:      1400 |       2500 | argparse",
    ])
    assert tracing.parse_importtime(text, "congruence_lattice") == 42.5


# -- certificates reject wrong answers -----------------------------------------------


def test_certified_primes_verify_and_factor_p_minus_1():
    rng = random.Random(3)
    found, fact = {}, {}
    for lo in (10**5, 10**9, 10**20):
        p = certs.certified_prime(rng, lo, 2 * lo, found, fact)
        assert lo <= p < 2 * lo and certs.verify_prime(p, found)
        assert math.prod(q**e for q, e in fact[p].items()) == p - 1
    assert not certs.verify_prime(certs.PSI12[0], found)
    assert certs.composite_witness(*certs.PSI12)


def test_geometric_criterion_matches_brute_force():
    for p in (2, 3, 5, 7, 11, 13):
        family = {}
        for seed in range(p):
            for ratio in range(1, p):
                family.setdefault(frozenset(workloads.orbit(p, seed, ratio)), (seed, ratio))
        rng = random.Random(p)
        candidates = list(family) + [frozenset(rng.sample(range(p), rng.randint(1, p))) for _ in range(50)]
        for s in candidates:
            assert workloads.expected_descriptor(p, s) == family.get(s)


def test_checks_reject_tampered_answers():
    args = ((7, 11, 13), 77)
    good = {r for r in range(77) if r % 7 and r % 11}
    assert workloads.check_fip_primes(args, None, (True, good)) is None
    assert workloads.check_fip_primes(args, None, (True, good | {0}))[0] == "filter_lab"
    cs = ((12, 5), (30, 11))
    assert workloads.check_crt_cert(cs, None, (60, 41)) is None
    assert workloads.check_crt_cert(cs, None, (60, 42)) is not None
    assert workloads.check_crt_cert(((4, 1), (6, 2)), None, None) is None
    assert workloads._cli_crt({"M": 60, "x0": 41}, cs) is None
    assert workloads._cli_crt({"M": 60, "x0": 42}, cs) is not None
    assert workloads._cli_crt({"infeasible": True}, cs) is not None


def test_small_mixed_follows_the_oracle_traffic_mix():
    import inputs

    queries, _ = inputs.gen_small_mixed(random.Random(1), random.Random("shape"))
    counts = Counter(q.kind for q in queries)
    assert counts == {k: round(n / inputs.TRAFFIC_SCALE) for k, n in inputs.ORACLE_TRAFFIC.items()}


@pytest.mark.parametrize("name", ["small_mixed", "lcm_algebra"])
def test_cost_setting_sizes_do_not_depend_on_the_seed(name):
    import inputs

    def sizes(seed):
        queries, _ = inputs.WORKLOADS[name].generate(random.Random(seed), random.Random("shape"))
        # primitive_root's cost is set by p, feasible_residues' by m
        return [(q.kind, q.args if q.kind in ("root_small", "fip_primes") else None) for q in queries]

    assert sizes(1) == sizes(2)


def test_antichain_certificate_accepts_the_construction_only():
    sys.path.insert(0, str(workloads.SRC))
    from congruence_lattice import antichain

    chains, divisors = workloads.random_chains(random.Random(5), 6, (3, 5, 7, 11, 13), (2, 17), 3, 2)
    values = antichain.build(antichain.AntichainSpec(chains, divisors), 6)
    assert workloads.antichain_failure(chains, divisors, 6, values) is None
    assert workloads.antichain_failure(chains, divisors, 6, values[:4] + [values[4] + 1] + values[5:]) is not None
    assert workloads.antichain_failure(chains, divisors, 6, values[:-1]) is not None
