"""Discrete logarithms: baby-step giant-step and index calculus in `dlog`, reached through
`geometry.discrete_log` and `exponent_offsets`."""

import random
import tracemalloc
from math import inf

import pytest

from congruence_lattice import dlog
from congruence_lattice import geometry as geo
from congruence_lattice.primes import factorize, is_prime


# -- index calculus for a prime of the order where its predicted cost is the lower ---------

# a safe prime, p = 2q + 1, where index calculus is predicted cheaper at q: a base of order q takes its
# one digit by index calculus; a primitive root takes its digit mod q so and its digit mod 2 by
# baby-step giant-step
SAFE_P, SAFE_Q = 8589935363, 4294967681
BIG_P = 52274027579  # a safe prime near the benchmark's largest
NEAR_1E9 = 1012511999  # a safe prime in the benchmark's band near 10^9, q near 2^29


@pytest.fixture(autouse=True)
def no_cached_systems():
    # a factor-base system cached by one test would hide another's planted solver or spy
    dlog._ic_system.cache_clear()
    yield
    dlog._ic_system.cache_clear()


def certified_log(p, base, x, order, k):
    # base has the given order, so its log of x is unique in [1, order] and so least
    return 1 <= k <= order and pow(base, k, p) == x


def no_baby_giant(*args):
    raise AssertionError("baby-step giant-step was called")


def spy_routes(monkeypatch):
    """Record ("ic", q) for each call of `_index_calculus` and ("bsgs", q, e) for `_baby_giant`."""
    routes, index_calculus, baby_giant = [], dlog._index_calculus, dlog._baby_giant

    def ic(p, base, q, *args):
        routes.append(("ic", q))
        return index_calculus(p, base, q, *args)

    def bsgs(p, base, q, e, *args):
        routes.append(("bsgs", q, e))
        return baby_giant(p, base, q, e, *args)

    monkeypatch.setattr(dlog, "_index_calculus", ic)
    monkeypatch.setattr(dlog, "_baby_giant", bsgs)
    return routes


def only_at_2(monkeypatch):
    """Patch `_baby_giant` to fail for any q but 2, so each digit mod q comes from index calculus."""
    baby_giant = dlog._baby_giant

    def at_2(p, base, q, *args):
        assert q == 2, q
        return baby_giant(p, base, q, *args)

    monkeypatch.setattr(dlog, "_baby_giant", at_2)


@pytest.mark.parametrize("k", [
    1, 1447, 1448, 1449, 46339, 46340, 46341, 46342, 47783, 47784, 47785, 240367, SAFE_Q - 1,
])
def test_digits_by_index_calculus_at_a_safe_prime(monkeypatch, k):
    routes = spy_routes(monkeypatch)
    monkeypatch.setattr(dlog, "_baby_giant", no_baby_giant)
    x = pow(4, k, SAFE_P)
    got = geo.discrete_log(SAFE_P, 4, x)
    assert got == k and certified_log(SAFE_P, 4, x, SAFE_Q, got)
    assert routes == [("ic", SAFE_Q)]


def test_the_identity_and_a_non_member_at_a_safe_prime():
    assert SAFE_P == 2 * SAFE_Q + 1 and geo.multiplicative_order(SAFE_P, 4) == SAFE_Q
    assert geo.discrete_log(SAFE_P, 4, 1) == SAFE_Q  # digit 0: the least k >= 1 is the order
    assert SAFE_P % 8 == 3  # so 2 is not a square, and <4> is the squares
    assert geo.discrete_log(SAFE_P, 4, 2) is None


def test_offsets_of_30_targets_by_index_calculus_are_certified(monkeypatch):
    only_at_2(monkeypatch)
    p = BIG_P
    g = geo.primitive_root(p)
    s = set(random.Random(30).sample(range(1, p), 30))
    off = geo.exponent_offsets(p, s)
    ks = [off.base_exponent, *(off.base_exponent + k for k in off.offsets)]
    assert len(ks) == 30 and 1 <= ks[0] and ks[-1] <= p - 1  # g has order p - 1: each log is least
    assert {pow(g, k, p) for k in ks} == s


@pytest.mark.parametrize("fault", ["wrong log", "no log solved"])
def test_index_calculus_falls_back_to_baby_step_giant_step(monkeypatch, fault):
    # a wrong log fails the pow check of the digit; with none solved, no target's walk ends
    # before the budget runs out; either way the digit comes from baby-step giant-step
    solve, calls = dlog._solve_mod, []

    def planted(rows, width, q):
        calls.append(q)
        if fault == "no log solved":
            return {}
        return {col: (log + 1) % q for col, log in solve(rows, width, q).items()}

    baby_giant = dlog._baby_giant

    def counted(p, base, q, *args):
        calls.append(-q)
        return baby_giant(p, base, q, *args)

    monkeypatch.setattr(dlog, "_solve_mod", planted)
    monkeypatch.setattr(dlog, "_baby_giant", counted)
    rng = random.Random(7)
    for _ in range(3):
        k = rng.randrange(1, SAFE_Q + 1)
        x = pow(4, k, SAFE_P)
        got = geo.discrete_log(SAFE_P, 4, x)
        assert got == k and certified_log(SAFE_P, 4, x, SAFE_Q, got)
    assert calls == [SAFE_Q, -SAFE_Q, -SAFE_Q, -SAFE_Q]  # one solve for (p, q), then each call's fallback


@pytest.mark.parametrize("p", [NEAR_1E9, SAFE_P, BIG_P])
def test_bases_other_than_the_reference_share_one_system(monkeypatch, p):
    # near 10^9 too: q is near 2^29, where one log is predicted cheaper by index calculus
    only_at_2(monkeypatch)
    q, rng = (p - 1) // 2, random.Random(p)
    calls = []
    for i in range(20):  # a square but 1 has order q, a non-square but -1 order p - 1
        order = q if i % 2 == 0 else p - 1
        base = rng.randrange(2, p - 1)
        while (pow(base, q, p) == 1) != (order == q):
            base = rng.randrange(2, p - 1)
        assert geo.multiplicative_order(p, base) == order
        calls += [(base, order, pow(base, rng.randrange(1, order + 1), p)) for _ in range(3)]

    def run(calls):
        return {(base, x): geo.discrete_log(p, base, x) for base, _, x in calls}

    forward = run(calls)
    assert dlog._ic_system.cache_info().misses == 1
    assert all(certified_log(p, base, x, order, forward[base, x]) for base, order, x in calls)
    dlog._ic_system.cache_clear()
    assert run(reversed(calls)) == forward and dlog._ic_system.cache_info().misses == 1


def test_a_system_that_gave_up_sends_later_calls_straight_to_baby_step_giant_step(monkeypatch):
    # index calculus is predicted cheaper at SAFE_Q, but a planted walk finds no smooth ratio, runs
    # out of steps and gives up; the give-up is kept for (p, q)
    routes = spy_routes(monkeypatch)
    monkeypatch.setattr(dlog, "_ratio", lambda *args: None)
    x = pow(4, 123456789, SAFE_P)
    assert certified_log(SAFE_P, 4, x, SAFE_Q, geo.discrete_log(SAFE_P, 4, x))
    assert routes == [("ic", SAFE_Q), ("bsgs", SAFE_Q, 1)] and dlog._ic_system.cache_info().currsize == 1

    def no_walk_or_solve(*args):
        raise AssertionError("a walk step or a solve ran")

    for name in ("_ratio", "_solve_mod"):
        monkeypatch.setattr(dlog, name, no_walk_or_solve)
    g = geo.primitive_root(SAFE_P)
    y = pow(g, 98765432, SAFE_P)
    assert certified_log(SAFE_P, g, y, SAFE_P - 1, geo.discrete_log(SAFE_P, g, y))
    info = dlog._ic_system.cache_info()
    assert (info.hits, info.misses) == (1, 1) and dlog._ic_system(SAFE_P, SAFE_Q) is None


def test_a_prime_of_the_order_predicted_cheaper_by_baby_step_giant_step_starts_no_walk(monkeypatch):
    # q just above 2^31 in a p - 1 of 44 bits: the relations would cost more than a baby-step table,
    # so the first log goes by baby-step giant-step without a walk step
    q = 2147484679
    p = 4144 * q + 1
    assert p.bit_length() == 44 and factorize(p - 1) == {2: 4, 7: 1, 37: 1, q: 1}
    g = geo.primitive_root(p)

    def no_walk(*args):
        raise AssertionError("a walk step ran")

    routes = spy_routes(monkeypatch)
    monkeypatch.setattr(dlog, "_ratio", no_walk)
    x = pow(g, 123456789012, p)
    assert certified_log(p, g, x, p - 1, geo.discrete_log(p, g, x))
    assert ("bsgs", q, 1) in routes and ("ic", q) not in routes
    assert dlog._ic_system.cache_info().currsize == 0


@pytest.mark.parametrize("p", [12583007, 805307963, 51539607599, 13194139536659])
def test_predicted_steps_per_relation_are_within_2x_of_a_walk(monkeypatch, p):
    # safe primes of 24, 30, 36 and 44 bits; the 24-bit walk gives up, and its steps count as well
    q, ratio, counts = (p - 1) // 2, dlog._ratio, []

    def counted(*args):
        v = ratio(*args)
        counts.append(v is not None)
        return v

    monkeypatch.setattr(dlog, "_ratio", counted)
    dlog._ic_system(p, q)
    # one more target adds one descent, _IC_STEP_COST for each of the rho(u)^-2 steps a relation takes
    predicted = (dlog._ic_cost(p, 2) - dlog._ic_cost(p, 1)) / dlog._IC_STEP_COST
    measured = len(counts) / sum(counts)
    assert sum(counts) >= 10 and predicted / 2 < measured < 2 * predicted, (measured, predicted)


def test_the_predicted_cost_is_inf_where_rho_is_below_the_least_float():
    # p = 3 * 2^3168 + 1 puts u near 158, where Dickman's rho underflows: the cost still compares
    assert dlog._ic_cost(3 * 2**3168 + 1, 1) == inf > dlog._ic_cost(2**199, 1)


def test_a_cached_system_at_big_p_retains_under_16_kib():
    assert dlog._ic_system.cache_info().maxsize <= 64  # so the whole cache stays under a mebibyte
    q = (BIG_P - 1) // 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert dlog._ic_system(BIG_P, q) is not None
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 2**10, retained


def test_a_squared_prime_takes_baby_step_giant_step_whatever_its_predicted_cost(monkeypatch):
    # q^2 | p - 1, so the relations would not fix logs mod q: both digits by baby-step giant-step,
    # even where index calculus is predicted to cost nothing
    def no_index_calculus(*args):
        raise AssertionError("index calculus was called")

    routes = spy_routes(monkeypatch)
    monkeypatch.setattr(dlog, "_index_calculus", no_index_calculus)
    monkeypatch.setattr(dlog, "_ic_cost", lambda p, targets: 0.0)
    q = 2147483659
    p = 36 * q**2 + 1
    assert factorize(p - 1) == {2: 2, 3: 2, q: 2}
    base = pow(geo.primitive_root(p), 36, p)  # of order q^2
    assert geo.multiplicative_order(p, base) == q**2
    for k in (1, q - 1, q, q + 1, 12345 * q + 678, q**2 - 1):
        x = pow(base, k, p)
        assert certified_log(p, base, x, q**2, geo.discrete_log(p, base, x))
    assert set(routes) == {("bsgs", q, 2)}


@pytest.mark.parametrize("p, q, cofactor", [
    (100810807, 4099, 6),  # q^2 | p - 1: baby-step giant-step for both digits
    (14401464037211, 1200061, 10),  # and one table for both digits of 30 targets
])
def test_two_digits_of_a_squared_prime_are_certified(p, q, cofactor):
    assert p == cofactor * q**2 + 1
    primes = sorted({*factorize(cofactor), q})
    rng = random.Random(p)

    def order(a):  # certified from the primes of p - 1
        t = geo.multiplicative_order(p, a)
        assert (p - 1) % t == 0 and pow(a, t, p) == 1
        assert all(pow(a, t // r, p) != 1 for r in primes if t % r == 0)
        return t

    for _ in range(40):
        base = rng.randrange(2, p - 1)
        t = order(base)
        x = pow(base, rng.randrange(1, t + 1), p)
        assert certified_log(p, base, x, t, geo.discrete_log(p, base, x)), (base, x)
    g = geo.primitive_root(p)
    assert order(g) == p - 1
    s = {rng.randrange(1, p) for _ in range(30)}
    off = geo.exponent_offsets(p, s)
    ks = [off.base_exponent, *(off.base_exponent + k for k in off.offsets)]
    assert len(ks) == len(s) and 1 <= ks[0] and ks[-1] <= p - 1
    assert {pow(g, k, p) for k in ks} == s


def test_a_one_target_log_by_index_calculus_peaks_below_a_mebibyte():
    # baby-step giant-step would hold about 114,000 powers here, an exact map of about 6.7 MB
    k = 31415926535
    x = pow(2, k, BIG_P)
    got, peak = peak_bytes(lambda: geo.discrete_log(BIG_P, 2, x))
    assert got == k and certified_log(BIG_P, 2, x, BIG_P - 1, got)
    assert peak < 2**20, peak


def test_many_targets_keep_the_exact_map_within_its_memory():
    # 2000 targets at the least safe prime above 10^6, where baby-step giant-step is predicted
    # cheaper: one exact map, about 3.4 MiB
    p = 1000667
    assert geo.multiplicative_order(p, 4) == (p - 1) // 2
    s = random.Random(3).sample(range(1, p), 2000)
    off, peak = peak_bytes(lambda: geo.exponent_offsets(p, s))
    assert len(off.offsets) == 1999
    assert peak <= 3.5 * 2**20, peak / 2**20


def peak_bytes(build):
    """(result, tracemalloc peak) of build()."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- the route rule ----------------------------------------------------------------------


def safe_primes(lo, count):
    """The first `count` safe primes 2q + 1 above lo."""
    out, p = [], lo | 1
    while len(out) < count:
        if is_prime(p) and is_prime(p // 2):
            out.append(p)
        p += 2
    return out


@pytest.mark.parametrize("lo, by_ic", [(10**5, False), (10**7, False), (10**9, True), (5 * 10**10, True)])
def test_one_target_routes_in_the_benchmark_bands(monkeypatch, lo, by_ic):
    # the benchmark draws a safe prime from [lo, 1.05 lo); its digit mod 2 goes by baby-step giant-step
    # and its digit mod q by the route predicted cheaper: index calculus near 10^9 and 5 * 10^10
    routes = spy_routes(monkeypatch)
    for p in (*safe_primes(lo, 1), *safe_primes(lo + lo // 25, 1)):
        q, g = p // 2, geo.primitive_root(p)
        x = pow(g, 1 + 31415926535 % (p - 2), p)
        routes.clear()
        assert certified_log(p, g, x, p - 1, geo.discrete_log(p, g, x))
        assert routes == [("bsgs", 2, 1), ("ic", q) if by_ic else ("bsgs", q, 1)], p


@pytest.mark.parametrize("lo", [10**7, 3 * 10**7, 10**8])
def test_many_targets_start_no_relation_walk_that_gives_up(monkeypatch, lo):
    # the relation walk's isqrt(q) // _IC_STEP_COST steps are predicted about 0.5, 0.6 and 0.85 of
    # what its relations take at these safe primes; weighed by cost alone, 20 or 100 targets sent
    # the digit mod q to index calculus, whose system then gave up at 7, 8 and 8 of the 8 primes
    systems, ic_system = [], dlog._ic_system
    monkeypatch.setattr(dlog, "_ic_system", lambda p, q: systems.append(ic_system(p, q)) or systems[-1])
    rng = random.Random(lo)
    for p in safe_primes(lo, 8):
        g = geo.primitive_root(p)
        for size in (20, 100):
            ic_system.cache_clear()
            s = set(rng.sample(range(1, p), size))
            off = geo.exponent_offsets(p, s)
            ks = [off.base_exponent, *(off.base_exponent + k for k in off.offsets)]
            assert len(ks) == size and 1 <= ks[0] and ks[-1] <= p - 1  # g has order p - 1: each log is least
            assert {pow(g, k, p) for k in ks} == s
    assert None not in systems
