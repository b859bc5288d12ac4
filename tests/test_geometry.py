"""Geometric residue sets: expansion, recognition, exponent structure."""

import random
from math import gcd

import pytest

from congruence_lattice import dlog
from congruence_lattice import geometry as geo
from congruence_lattice import oracles
from congruence_lattice.geometry import GeometricDescriptor
from congruence_lattice.primes import FactorizationBudgetError, factorize, primes_up_to

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


# -- expansion -------------------------------------------------------------------


def test_expand_derived_by_iteration():
    # 1*2^k mod 5 walks 2, 4, 3, 1
    assert sorted(geo.expand(GeometricDescriptor(5, 1, 2))) == [1, 2, 3, 4]


def test_expand_zero_seed_gives_zero():
    assert geo.expand(GeometricDescriptor(5, 0, 3)) == {0}


def test_expand_ratio_one_gives_singleton():
    assert geo.expand(GeometricDescriptor(7, 2, 1)) == {2}


def test_expand_contains_seed_for_nonzero_seed():
    for p in SMALL_PRIMES:
        for s in range(1, p):
            for r in range(1, p):
                orbit = geo.expand(GeometricDescriptor(p, s, r))
                assert s in orbit
                # k >= 1 equals k >= 0 when the seed is nonzero
                assert orbit == orbit | {s}


def test_residue_sets_must_hold_ints():
    # int() used to truncate 1.9 to 1 and read True as 1, giving the descriptor of {1, 4};
    # a set built before the check merged True into an equal 1 unseen
    for bad in ([1.9, 4], [True, 4], ["1", 4], [1, True, 4], (4, 1, True), iter([1, True])):
        with pytest.raises(ValueError, match="^residue must be an integer, got "):
            geo.is_geometric(5, bad)
    assert geo.is_geometric(5, [1, 4]) == GeometricDescriptor(5, 1, 4)
    # so must p, seed, ratio and the order and log arguments: p = 7.0 used to
    # give a descriptor with p=7.0, ratio 2.0 an orbit of floats, a = True order 1
    for call in (
        lambda: geo.is_geometric(7.0, [1]),
        lambda: geo.is_geometric(True, [0]),
        lambda: geo.expand(GeometricDescriptor(7, 2.0, 3)),
        lambda: GeometricDescriptor(7, 2, 3.0),
        lambda: geo.multiplicative_order(7, True),
        lambda: geo.multiplicative_order(7.0, 2),
        lambda: geo.discrete_log(7, 3.0, 6),
        lambda: geo.discrete_log(7, 3, True),
        lambda: geo.primitive_root(7.0),
        lambda: geo.enumerate_geometric(7.0),
        lambda: geo.prime_in_progression(True, 0),
        lambda: geo.prime_in_progression(10, 3.0),
        lambda: geo.witness_class_set(7, 1, 2, 2.5),
    ):
        with pytest.raises(ValueError):
            call()


def test_descriptor_validation():
    # the constructor runs every check, also for the descriptors the recognizer returns
    with pytest.raises(ValueError, match="^p must be a prime int, got 6$"):
        GeometricDescriptor(6, 1, 2)
    with pytest.raises(ValueError):
        GeometricDescriptor(5, 5, 2)
    with pytest.raises(ValueError, match=r"^ratio 0 out of range \[1, 5\)$"):
        GeometricDescriptor(5, 1, 0)


def test_refusing_an_int_too_long_to_print_keeps_the_message(digit_limit):
    # past the interpreter's int-string digit limit the value is shown by its bits,
    # where formatting it would raise "Exceeds the limit ..." instead of the refusal
    huge = 10**5000
    with pytest.raises(ValueError, match=r"^seed <int of 16610 bits> out of range \[0, 7\)$"):
        GeometricDescriptor(7, huge, 2)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got <int of 16610 bits>$"):
        GeometricDescriptor(7, type("Big", (int,), {})(huge), 2)
    with pytest.raises(ValueError, match=r"^modulus must be >= 1, got <negative int of 16610 bits>$"):
        geo.prime_in_progression(-huge, 1)


def test_recognized_descriptors_equal_checked_ones():
    for p in SMALL_PRIMES:
        for s in geo.enumerate_geometric(p):
            d = geo.is_geometric(p, s)
            checked = GeometricDescriptor(d.p, d.seed, d.ratio)
            assert d == checked and hash(d) == hash(checked) and repr(d) == repr(checked)


# -- recognition -------------------------------------------------------------------


def test_is_geometric_examples():
    d = geo.is_geometric(5, {1, 4})
    assert (d.seed, d.ratio) == (1, 4)
    assert geo.is_geometric(5, {1, 2}) is None
    d = geo.is_geometric(11, {6})
    assert (d.seed, d.ratio) == (6, 1)
    d = geo.is_geometric(7, {0})
    assert (d.seed, d.ratio) == (0, 1)
    assert geo.is_geometric(7, {0, 3}) is None


def test_recognizer_round_trip_all_descriptors():
    for p in SMALL_PRIMES:
        for s in range(p):
            for r in range(1, p):
                orbit = geo.expand(GeometricDescriptor(p, s, r))
                d = geo.is_geometric(p, orbit)
                assert d is not None
                assert geo.expand(d) == orbit


def test_recognizer_agrees_with_exhaustive_oracle():
    rng = random.Random(64)
    for p in SMALL_PRIMES:
        # each orbit with the least (seed, ratio) pair that generates it
        family = oracles.orbit_family(p)
        for s, (seed, ratio) in family.items():
            assert geo.is_geometric(p, s) == GeometricDescriptor(p, seed, ratio)
        subsets = [frozenset(rng.sample(range(p), rng.randint(1, p))) for _ in range(300)]
        if p <= 13:  # and every nonempty subset
            subsets += [frozenset(x for x in range(p) if mask >> x & 1) for mask in range(1, 2**p)]
        for s in subsets:
            d = geo.is_geometric(p, s)
            assert (d is not None) == (s in family)
            if d is not None:
                assert (d.seed, d.ratio) == family[s]


def test_recognizes_a_large_coset_without_logs():
    # p = 119 * 2^23 + 1; a discrete log per residue took seconds on this coset
    p = 998244353
    h = pow(geo.primitive_root(p), (p - 1) // 512, p)
    coset = [7 * pow(h, k, p) % p for k in range(512)]
    d = geo.is_geometric(p, coset)
    assert (d.seed, geo.multiplicative_order(p, d.ratio)) == (7, 512)
    assert geo.expand(d) == frozenset(coset)
    subgroup = [pow(h, k, p) for k in range(512)]
    assert d.ratio == min(r for r in subgroup if geo.multiplicative_order(p, r) == 512)
    perturbed = coset[:-1] + [(coset[-1] + 1) % p]
    assert geo.is_geometric(p, perturbed) is None


def test_least_generator_matches_an_order_scan():
    for p in primes_up_to(300):
        divisors = [d for d in range(1, p) if (p - 1) % d == 0]
        least = {}  # order -> least residue of that order
        for r in range(1, p):
            least.setdefault(min(d for d in divisors if pow(r, d, p) == 1), r)
        for l in divisors:
            assert geo._least_generator(p, l) == least[l], (p, l)


def test_the_whole_group_has_the_primitive_root_as_ratio():
    # H_(p - 1) is all of Z_p*, so its least generator is the least primitive root
    for p in primes_up_to(2000):
        assert geo.is_geometric(p, range(1, p)) == GeometricDescriptor(p, 1, geo.primitive_root(p)), p


def test_recognition_factors_the_set_size_and_not_p_minus_1(monkeypatch):
    # p - 1 = 1920 * a * b with a, b primes near 10^15, which the default budget cannot
    # split; p is prime by Pocklington's criterion with the factor a * b > sqrt(p)
    a, b = 10**15 + 37, 10**15 + 91
    p = 1920 * a * b + 1
    with pytest.raises(FactorizationBudgetError):
        factorize(p - 1)
    factored = []
    monkeypatch.setattr(geo, "_factorize", lambda n: factored.append(n) or factorize(n))
    for l, qs in ((2, (2,)), (12, (2, 3)), (30, (2, 3, 5)), (1920, (2, 3, 5))):
        hs = (pow(x, (p - 1) // l, p) for x in range(2, 100))
        h = next(h for h in hs if all(pow(h, l // q, p) != 1 for q in qs))  # of order l
        coset = {123456789 * pow(h, k, p) % p for k in range(l)}
        d = geo.is_geometric(p, coset)
        assert d.seed == min(coset) and geo.expand(d) == coset
        assert pow(d.ratio, l, p) == 1 and all(pow(d.ratio, l // q, p) != 1 for q in qs)
        perturbed = coset - {max(coset)} | {max(coset) + 1}
        assert geo.is_geometric(p, perturbed) is None
    assert factored and all(1920 % n == 0 for n in factored)


def test_enumeration_matches_the_orbit_walk():
    for p in primes_up_to(103):
        family = geo.enumerate_geometric(p)
        assert family == oracles.orbit_family(p).keys(), p
        assert len(family) == 1 + sum(d for d in range(1, p) if (p - 1) % d == 0), p


def test_enumerate_small_primes():
    assert geo.enumerate_geometric(2) == {frozenset({0}), frozenset({1})}
    assert geo.enumerate_geometric(3) == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }
    fam5 = geo.enumerate_geometric(5)
    assert frozenset({1, 4}) in fam5
    assert frozenset({2, 3}) in fam5
    assert frozenset({1, 2}) not in fam5


# -- primitive roots, orders, logs -----------------------------------------------------


def test_primitive_root_derived_by_order_scan():
    orders = {g: next(k for k in range(1, 7) if pow(g, k, 7) == 1) for g in range(2, 7)}
    assert orders == {2: 3, 3: 6, 4: 3, 5: 6, 6: 2}
    assert geo.primitive_root(7) == 3


def test_multiplicative_order_examples():
    assert geo.multiplicative_order(7, 2) == 3
    assert geo.multiplicative_order(7, 3) == 6
    assert geo.multiplicative_order(2, 1) == 1


def test_discrete_log_examples():
    assert pow(3, 3, 7) == 6
    assert geo.discrete_log(7, 3, 6) == 3
    assert geo.discrete_log(7, 3, 1) == 6  # least k >= 1 for the identity is the order
    assert geo.discrete_log(7, 2, 3) is None  # 3 is not a power of 2 mod 7


def test_discrete_log_is_least_positive():
    rng = random.Random(11)
    for p in (101, 997):
        for _ in range(50):
            base = rng.randint(1, p - 1)
            x = rng.randint(1, p - 1)
            k = geo.discrete_log(p, base, x)
            if k is None:
                assert all(pow(base, e, p) != x for e in range(1, geo.multiplicative_order(p, base) + 1))
            else:
                assert pow(base, k, p) == x
                assert all(pow(base, e, p) != x for e in range(1, k))


def test_discrete_log_matches_brute_force_small_primes():
    # Pohlig-Hellman is the only route, small primes included, for one
    # target (discrete_log) and for many at once (exponent_offsets)
    rng = random.Random(17)
    for p in primes_up_to(60):
        for base in range(1, p):
            least = {}
            for k in range(p - 1, 0, -1):
                least[pow(base, k, p)] = k
            for x in range(1, p):
                assert geo.discrete_log(p, base, x) == least.get(x), (p, base, x)
            if base == geo.primitive_root(p):  # the base of exponent_offsets
                for _ in range(10):
                    s = rng.sample(range(1, p), rng.randint(1, p - 1))
                    ks = sorted(least[x] for x in s)
                    off = geo.exponent_offsets(p, s)
                    assert (off.base_exponent, off.offsets) == (ks[0], tuple(k - ks[0] for k in ks[1:])), (p, s)


def test_discrete_log_of_a_non_member_is_none():
    # <4> is the squares mod p; p = 3 (mod 8) makes 2 a non-square
    p = 1000003
    assert geo.multiplicative_order(p, 4) == (p - 1) // 2
    assert geo.discrete_log(p, 4, 2) is None
    assert geo.discrete_log(p, 4, p - 1) is None  # -1 is a non-square for p = 3 (mod 4)
    assert geo.discrete_log(p, 4, pow(4, 123457, p)) == 123457


def test_order_and_root_when_p_minus_1_has_two_factors_above_a_million():
    # p - 1 = 2 * 1000003 * 1000121: trial division to 10^6 used to refuse
    p = 2000248000727
    factors = (2, 1000003, 1000121)
    assert 2 * 1000003 * 1000121 == p - 1
    g = geo.primitive_root(p)
    assert all(pow(g, (p - 1) // f, p) != 1 for f in factors)
    assert all(any(pow(h, (p - 1) // f, p) == 1 for f in factors) for h in range(2, g))
    assert geo.multiplicative_order(p, 4) == (p - 1) // 2
    assert geo.multiplicative_order(p, pow(5, 2 * 1000003, p)) == 1000121


def test_bsgs_path_recovers_exponents():
    # a primitive root has distinct powers for k = 1..p-1, so the least
    # exponent is the one we raised to
    p = 10007
    q = geo.primitive_root(p)
    rng = random.Random(13)
    for _ in range(30):
        k = rng.randint(1, p - 1)
        x = pow(q, k, p)
        got = geo.discrete_log(p, q, x)
        assert got == k
        assert pow(q, got, p) == x


def test_fermat_and_order_small_primes():
    for p in primes_up_to(1000):
        q = geo.primitive_root(p)
        assert pow(q, p - 1, p) == 1
        assert geo.multiplicative_order(p, q) == p - 1


# -- Pohlig-Hellman: one base-q digit at a time, one table per prime q ------------------


def test_discrete_log_at_a_prime_with_37_smooth_p_minus_1():
    # p - 1 = 2^3 * 3 * 5 * ... * 37; the one table over the whole order took 7.8 s
    p = 29682952539241
    k = geo.discrete_log(p, 53, 123456789)
    assert k == 25049600759901
    assert pow(53, k, p) == 123456789
    assert 1 <= k <= geo.multiplicative_order(p, 53)


@pytest.mark.parametrize("base, order", [(3, 2**16), (pow(3, 64, 65537), 2**10)])
def test_sixteen_digits_of_one_prime_match_a_scan(base, order):
    # p - 1 = 2^16: a base of order 2^16 or 2^10 has 16 or 10 base-2 digits
    p = 65537
    logs = oracles.power_logs(p, base)
    assert geo.multiplicative_order(p, base) == len(logs) == order
    for x in random.Random(5).sample(range(1, p), 400):
        assert geo.discrete_log(p, base, x) == logs.get(x), x


def test_exponent_offsets_of_hundreds_of_targets_match_a_scan():
    # p - 1 = 2^2 * 3^2 * 5 * 7 * 11 * 13: one table per prime serves all targets
    p = 180181
    logs = oracles.power_logs(p, geo.primitive_root(p))
    assert len(logs) == p - 1
    rng = random.Random(9)
    for size in (200, 300, 500):
        s = rng.sample(range(1, p), size)
        ks = sorted(logs[x] for x in s)
        off = geo.exponent_offsets(p, s)
        assert (off.base_exponent, off.offsets) == (ks[0], tuple(k - ks[0] for k in ks[1:]))


def test_a_prime_whose_p_minus_1_holds_a_prime_square_past_rho():
    # p - 1 = 72 * q^2: rho does not split q^2 within the default budget, its square root does
    q = 68719476767
    p = 72 * q**2 + 1
    g = geo.primitive_root(p)
    assert g == 13 and all(pow(g, (p - 1) // r, p) != 1 for r in (2, 3, q))
    assert geo.multiplicative_order(p, pow(g, 72 * q, p)) == q
    x = pow(g, 123456789012345, p)
    assert geo.discrete_log(p, g, x) == 123456789012345


def test_discrete_log_edge_cases():
    for p, base in ((2, 1), (7, 3), (7, 2), (65537, 3), (29682952539241, 53)):
        assert geo.discrete_log(p, base, 1) == geo.multiplicative_order(p, base)  # the identity
    assert geo.discrete_log(101, 1, 1) == 1
    assert geo.discrete_log(101, 1, 5) is None
    assert (geo.primitive_root(2), geo.multiplicative_order(2, 1), geo.discrete_log(2, 1, 1)) == (1, 1, 1)
    assert geo.exponent_offsets(2, [1]) == geo.ExponentOffsets(1, ())


def test_a_non_member_is_answered_before_any_table_is_built(monkeypatch):
    def no_table(*args):
        raise AssertionError("_logs was called")

    monkeypatch.setattr(dlog, "_logs", no_table)
    p = 29682952539241
    square = pow(53, 2, p)
    assert geo.discrete_log(p, square, 53) is None  # 53 generates more than the squares
    assert geo.discrete_log(1000003, 4, 2) is None


# -- exponent offsets and structure -----------------------------------------------------


def test_exponent_offsets_derived_by_dlog():
    # base 3 logs mod 7: 3 -> 1, 6 -> 3, 5 -> 5
    assert [geo.discrete_log(7, 3, v) for v in (3, 6, 5)] == [1, 3, 5]
    off = geo.exponent_offsets(7, {3, 5, 6})
    assert off.base_exponent == 1
    assert off.offsets == (2, 4)


def test_exponent_offsets_singleton():
    assert geo.exponent_offsets(11, {7}).offsets == ()


def test_exponent_offsets_full_group():
    off = geo.exponent_offsets(5, {1, 2, 3, 4})
    assert off.base_exponent == 1
    assert off.offsets == (1, 2, 3)


def test_exponent_offsets_rejects_zero():
    with pytest.raises(ValueError):
        geo.exponent_offsets(7, {0, 3})


def test_an_empty_residue_set_is_refused():
    for refuse in (geo.is_geometric, geo.exponent_offsets):
        with pytest.raises(ValueError, match="^residue set must be nonempty$"):
            refuse(7, [])


def test_structure_check_examples():
    rep = geo.structure_check(7, {3, 5, 6})
    assert rep.gcd_closed and rep.multiples_closed and rep.arithmetic_progression
    assert geo.structure_check(13, {5}).all_hold
    rep = geo.structure_check(13, geo.expand(GeometricDescriptor(13, 1, 3)))
    assert rep.all_hold


def test_structure_holds_for_all_geometric_sets():
    for p in SMALL_PRIMES:
        for s in geo.enumerate_geometric(p):
            if 0 in s:
                continue
            off = geo.exponent_offsets(p, s)
            if off.offsets:
                r1 = off.offsets[0]
                assert off.offsets == tuple(i * r1 for i in range(1, len(s)))
            assert geo.structure_check(p, s).all_hold


def test_non_geometric_sets_break_structure_or_recognition():
    # zero-free non-geometric sets of size >= 2: some structure property
    # fails, or at worst the recognizer still rejects by expansion
    rng = random.Random(613)
    families = {p: geo.enumerate_geometric(p) for p in (11, 13, 17, 19, 23, 29, 31)}
    checked = 0
    while checked < 1000:
        p = rng.choice(list(families))
        s = frozenset(rng.sample(range(1, p), rng.randint(2, p - 1)))
        if s in families[p]:
            continue
        checked += 1
        rep = geo.structure_check(p, s)
        assert not rep.all_hold or geo.is_geometric(p, s) is None


def _structure_by_full_scan(p, s):
    # the original formula: every multiple t * r1 for t = 1..p-1
    off = geo.exponent_offsets(p, s).offsets
    if not off:
        return geo.StructureReport(True, True, True)
    rset, r1 = set(off), off[0]
    return geo.StructureReport(
        all(gcd(a, b) in rset for a in off for b in off),
        all((t * r1) % (p - 1) in rset | {0} for t in range(1, p)),
        list(off) == [i * r1 for i in range(1, len(off) + 1)],
    )


def test_structure_check_matches_full_multiples_scan():
    # the zero-free families of the tests above, for every prime up to 61:
    # the worked examples, every geometric set and random subsets
    rng = random.Random(613)
    checked = 0
    for p in primes_up_to(61):
        families = [s for s in geo.enumerate_geometric(p) if 0 not in s]
        families += [frozenset(rng.sample(range(1, p), rng.randint(1, p - 1))) for _ in range(60)]
        families += {7: [{3, 5, 6}], 13: [{5}]}.get(p, [])
        for s in families:
            assert geo.structure_check(p, s) == _structure_by_full_scan(p, s), (p, sorted(s))
            checked += 1
    assert checked > 1000


# -- Dirichlet search and witness numbers ------------------------------------------------


def test_prime_in_progression_examples():
    assert geo.prime_in_progression(4, 3) == 3
    scan = [x for x in range(1, 18, 8)]
    assert scan == [1, 9, 17]
    assert geo.prime_in_progression(8, 1) == 17
    with pytest.raises(ValueError):
        geo.prime_in_progression(6, 3)


def test_prime_in_progression_random_validity():
    rng = random.Random(21)
    for _ in range(100):
        m = rng.randint(1, 60)
        candidates = [r for r in range(m) if gcd(m, r) == 1]
        r = rng.choice(candidates)
        p = geo.prime_in_progression(m, r)
        assert p % m == r % m and p >= 2


def test_witness_class_set_examples():
    assert geo.prime_in_progression(5, 1) == 11
    assert geo.prime_in_progression(5, 2) == 2
    assert geo.witness_class_set(5, 1, 2, 3) == [11, 22, 44]
    assert geo.witness_class_set(5, 1, 1, 2) == [11, 121]
    assert geo.witness_class_set(7, 3, 2, 1) == [geo.prime_in_progression(7, 3)]


def test_witness_residues_stay_in_extended_orbit():
    rng = random.Random(23)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES[1:])
        s0 = rng.randint(1, p - 1)
        r = rng.randint(1, p - 1)
        values = geo.witness_class_set(p, s0, r, 6)
        orbit = geo.expand(GeometricDescriptor(p, s0, r)) | {s0}
        assert all(v % p in orbit for v in values)
