"""Congruence solving: pair merge, batch fold, streaming, prime classification."""

import math
import random
from decimal import Decimal

import pytest

from congruence_lattice import crt
from congruence_lattice.crt import Congruence, FeasibilityStream, NonZero, ZeroToDepth
from congruence_lattice.oracles import scan_system
from congruence_lattice.primes import primes_up_to


# -- solve_pair ------------------------------------------------------------------


def test_solve_pair_derived_by_scan():
    want = [x for x in range(15) if x % 3 == 2 and x % 5 == 3]
    assert want == [8]
    got = crt.solve_pair(Congruence(3, 2), Congruence(5, 3))
    assert (got.modulus, got.residue) == (15, 8)


def test_solve_pair_parity_contradiction():
    assert crt.solve_pair(Congruence(2, 1), Congruence(4, 2)) is None


def test_solve_pair_modulus_one_identity():
    got = crt.solve_pair(Congruence(1, 0), Congruence(7, 4))
    assert (got.modulus, got.residue) == (7, 4)


def test_congruence_normalizes_residue():
    c = Congruence(5, -3)
    assert c.residue == 2
    with pytest.raises(ValueError):
        Congruence(0, 1)


# -- solve_system ------------------------------------------------------------------


def test_solve_system_derived_by_scan():
    cs = [Congruence(6, 2), Congruence(10, 2)]
    want = [x for x in range(30) if x % 6 == 2 and x % 10 == 2]
    assert want == [2]
    got = crt.solve_system(cs)
    assert (got.modulus, got.residue) == (30, 2)


def test_solve_system_empty_is_everything():
    got = crt.solve_system([])
    assert (got.modulus, got.residue) == (1, 0)


def test_substitution_property():
    rng = random.Random(12)
    for _ in range(500):
        cs = [Congruence(rng.randint(1, 40), rng.randint(-80, 80)) for _ in range(rng.randint(1, 4))]
        sol = crt.solve_system(cs)
        if sol is None:
            continue
        for x in (sol.residue, sol.residue + sol.modulus):
            assert all(c.satisfied_by(x) for c in cs)


def test_satisfied_by_tests_the_int_a_value_equals():
    # a float past 2^53 is tested as the int it equals, not by a float remainder that rounds the modulus
    cases = (
        (Congruence(2**53 + 1, 0), float(2**53), False),
        (Congruence(2**53 + 1, 0), float(2**54), False),
        (Congruence(2**53 + 1, 2**53 - 1), float(2**54), True),
        (Congruence(2**53 + 1, 0), Decimal(2**53 + 1), True),
        (Congruence(5, 3), "3", False),
        (Congruence(5, 3), None, False),
        (Congruence(5, 3), 2.5, False),
        (Congruence(1, 0), 2.5, False),
        (Congruence(5, 3), Decimal("NaN"), False),
        (Congruence(5, 3), float("nan"), False),
        (Congruence(5, 3), float("inf"), False),
        (Congruence(5, 3), 3.0, True),
        (Congruence(5, 3), -2.0, True),
        (Congruence(5, 3), -7, True),
        (Congruence(5, 1), True, True),
        (Congruence(5, 0), False, True),
        (Congruence(5, 3), 4, False),
    )
    for c, x, want in cases:
        assert c.satisfied_by(x) is want, (c, x)


def test_oracle_equivalence_small_systems():
    rng = random.Random(34)
    for _ in range(1500):
        cs = [Congruence(rng.randint(1, 30), rng.randint(-60, 60)) for _ in range(rng.randint(1, 3))]
        sol = crt.solve_system(cs)
        want = scan_system(cs)
        if sol is None:
            assert want is None
        else:
            assert want == (sol.modulus, sol.residue)


def test_system_feasible_iff_every_pair_feasible():
    rng = random.Random(56)
    for _ in range(1000):
        cs = [Congruence(rng.randint(1, 24), rng.randint(0, 48)) for _ in range(rng.randint(1, 4))]
        whole = crt.solve_system(cs) is not None
        pairs = all(
            crt.solve_pair(cs[i], cs[j]) is not None
            for i in range(len(cs))
            for j in range(i + 1, len(cs))
        )
        assert whole == pairs


# -- streaming -----------------------------------------------------------------------


def test_stream_matches_batch():
    stream = FeasibilityStream()
    stream.push(Congruence(3, 2))
    state = stream.push(Congruence(5, 3))
    assert (state.modulus, state.residue) == (15, 8)
    assert stream.is_feasible


def test_stream_infeasibility_sticky():
    stream = FeasibilityStream()
    stream.push(Congruence(2, 0))
    assert stream.push(Congruence(4, 1)) is None
    assert stream.push(Congruence(3, 0)) is None
    assert not stream.is_feasible


def test_stream_fifty_prime_moduli_exercises_big_integers():
    primes = primes_up_to(230)[:50]
    assert len(primes) == 50
    stream = FeasibilityStream()
    for p in primes:
        state = stream.push(Congruence(p, 0))
    assert state.residue == 0
    assert state.modulus == math.prod(primes)
    assert state.modulus > 10**85  # far beyond fixed-width integers


def test_stream_any_order_same_state():
    rng = random.Random(78)
    for _ in range(300):
        cs = [Congruence(rng.randint(1, 30), rng.randint(0, 60)) for _ in range(rng.randint(1, 4))]
        batch = crt.solve_system(cs)
        shuffled = list(cs)
        rng.shuffle(shuffled)
        stream = FeasibilityStream()
        for c in shuffled:
            stream.push(c)
        assert stream.state == batch


# -- integer-level congruence invariants ----------------------------------------------


def test_sum_and_product_respect_congruence():
    rng = random.Random(90)
    for _ in range(1000):
        m = rng.randint(1, 50)
        a1 = rng.randrange(10**12)
        b1 = rng.randrange(10**12)
        a2 = a1 + m * rng.randint(-1000, 1000)
        b2 = b1 + m * rng.randint(-1000, 1000)
        assert (a1 + b1) % m == (a2 + b2) % m
        assert (a1 * b1) % m == (a2 * b2) % m


def test_residue_map_is_a_homomorphism():
    rng = random.Random(123)
    for _ in range(1000):
        m = rng.randint(1, 50)
        x = rng.randrange(10**30)
        y = rng.randrange(10**30)
        assert (x + y) % m == ((x % m) + (y % m)) % m
        assert (x * y) % m == ((x % m) * (y % m)) % m


# -- residue chain tables ----------------------------------------------------------------


def test_classify_examples():
    got = crt.classify_prime_support({2: [0, 0, 0], 3: [1, 4, 13]})
    assert got == {2: ZeroToDepth(3), 3: NonZero(1)}
    assert crt.classify_prime_support({5: [0, 5, 5]}) == {5: NonZero(2)}
    assert crt.classify_prime_support({7: [0]}) == {7: ZeroToDepth(1)}


def test_classify_rejects_inconsistent_chain():
    with pytest.raises(ValueError):
        crt.classify_prime_support({3: [1, 5]})  # 5 != 1 (mod 3)
    with pytest.raises(ValueError):
        crt.classify_prime_support({3: [3]})  # residue out of range
    with pytest.raises(ValueError):
        crt.classify_prime_support({4: [1]})  # not prime
    with pytest.raises(ValueError):
        crt.classify_prime_support({3: []})  # empty chain


def test_classify_rejects_non_integer_residues():
    # chains are JSON integers: no truncation of 4.5, no iterating over a string
    with pytest.raises(ValueError, match="expected an integer"):
        crt.classify_prime_support({3: [1, 4.5]})
    with pytest.raises(ValueError, match="^residue chain for 3: expected an array, got '14'$"):
        crt.classify_prime_support({3: "14"})
    with pytest.raises(ValueError, match="expected an integer"):
        crt.classify_prime_support({3.0: [1]})


def test_a_table_that_is_not_a_mapping_is_refused():
    for table in ([3], [(3, [1])], "3"):
        for check in (crt.classify_prime_support, crt.validate_chain_table):
            with pytest.raises(ValueError, match="^residue-chain table: expected an object, got "):
                check(table)


def test_a_solved_system_is_a_congruence():
    assert crt.solve_system([Congruence(3, 2), Congruence(5, 3)]) == Congruence(15, 8)
    with pytest.raises(ValueError, match="residue must be an integer"):
        Congruence(15, 8.5)


def test_chain_consistency_accepts_string_keys():
    got = crt.classify_prime_support({"5": [0, 5, 5]})
    assert got == {5: NonZero(2)}
    # "3" and "03" are the same prime: one chain must not silently replace the other
    with pytest.raises(ValueError, match="listed twice"):
        crt.classify_prime_support({"3": [1], "03": [0]})
