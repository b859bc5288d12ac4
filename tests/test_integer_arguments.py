"""Every integer argument from outside the library passes the one check of
its kind in `primes`: `strict_int` for a scalar, `strict_ints` for a
collection, `strict_prime` for a prime.  A bool or a float is a ValueError,
never an answer and never a TypeError from deeper down; a value outside the
argument's range is refused with one of two wordings, a non-prime with one;
a collection names its first refused value; and an int past the digit limit
is shown by its bits, keeping the refusal's type and wording."""

import re
from enum import IntEnum

import pytest

from congruence_lattice import antichain as ac
from congruence_lattice import crt, geometry, lattice, oracles, primes
from congruence_lattice import filter_lab as fl
from congruence_lattice import periodic_sets as ps
from congruence_lattice.geometry import GeometricDescriptor

SPEC = ac.AntichainSpec(((3, (1, 4, 13)), (5, (2, 7, 57))), (2,))
EVENS = ps.progression(2, 0)

# entry point -> a call that passes the bad value in one integer argument
ENTRY_POINTS = {
    "Congruence modulus": lambda v: crt.Congruence(v, 0),
    "Congruence residue": lambda v: crt.Congruence(5, v),
    "make modulus": lambda v: ps.make(v, ()),
    "make residue": lambda v: ps.make(5, (v,)),
    "make added": lambda v: ps.make(5, (), (v,)),
    "make removed": lambda v: ps.make(5, (1,), (), (v,)),
    "progression modulus": lambda v: ps.progression(v, 0),
    "progression residue": lambda v: ps.progression(5, v),
    "non_divisibility": ps.non_divisibility,
    "divisibility_union": lambda v: ps.divisibility_union([v]),
    "enumerate_up_to": EVENS.enumerate_up_to,
    "feasible_residues": lambda v: fl.feasible_residues([EVENS], v),
    "nmax_witness modulus": lambda v: fl.nmax_witness(v, 1, [], [2]),
    "nmax_witness residue": lambda v: fl.nmax_witness(5, v, [], [2]),
    "omega": lattice.omega,
    "omega_lower_bound": lambda v: lattice.omega_lower_bound(v, [2]),
    "level_members level": lambda v: lattice.level_members(v, 10),
    "level_members bound": lambda v: lattice.level_members(1, v),
    "build": lambda v: ac.build(SPEC, v),
    "step_congruences": lambda v: ac.step_congruences(SPEC, v),
    "factorize": primes.factorize,
    "factorize trial_bound": lambda v: primes.factorize(12, v),
    "primes_up_to": primes.primes_up_to,
    "GeometricDescriptor seed": lambda v: GeometricDescriptor(7, v, 3),
    "GeometricDescriptor ratio": lambda v: GeometricDescriptor(7, 2, v),
    "is_geometric residue": lambda v: geometry.is_geometric(7, [v]),
    "multiplicative_order": lambda v: geometry.multiplicative_order(7, v),
    "discrete_log base": lambda v: geometry.discrete_log(7, v, 6),
    "discrete_log x": lambda v: geometry.discrete_log(7, 3, v),
    "prime_in_progression modulus": lambda v: geometry.prime_in_progression(v, 1),
    "prime_in_progression residue": lambda v: geometry.prime_in_progression(10, v),
    "witness_class_set seed": lambda v: geometry.witness_class_set(7, v, 3, 2),
    "witness_class_set ratio": lambda v: geometry.witness_class_set(7, 2, v, 2),
    "witness_class_set count": lambda v: geometry.witness_class_set(7, 2, 3, v),
}

# bounded entry point -> (a call that passes the value in the bounded argument,
# the name it is refused under, its range [low, high), high None when unbounded)
BOUNDED = {
    "Congruence modulus": (lambda v: crt.Congruence(v, 0), "modulus", 1, None),
    "make modulus": (lambda v: ps.make(v, ()), "modulus", 1, None),
    "make residue": (lambda v: ps.make(5, (v,)), "residue", 0, 5),
    "make added": (lambda v: ps.make(5, (), (v,)), "added element", 0, None),
    "make removed": (lambda v: ps.make(5, (1,), (), (v,)), "removed element", 0, None),
    "progression modulus": (lambda v: ps.progression(v, 0), "modulus", 1, None),
    "progression residue": (lambda v: ps.progression(5, v), "residue", 0, 5),
    "enumerate_up_to": (EVENS.enumerate_up_to, "bound", 0, None),
    "divisibility_union": (lambda v: ps.divisibility_union([v, 3]), "divisor", 1, None),
    "non_divisibility": (ps.non_divisibility, "n", 2, None),
    "factorize": (primes.factorize, "n", 1, None),
    "factorize trial_bound": (lambda v: primes.factorize(12, v), "trial bound", 1, None),
    "lattice element": (lambda v: lattice.up_closure([4, v]), "element", 1, None),
    "omega_lower_bound": (lambda v: lattice.omega_lower_bound(v, [2]), "n", 1, None),
    "level_members level": (lambda v: lattice.level_members(v, 10), "level", 0, None),
    "level_members bound": (lambda v: lattice.level_members(1, v), "bound", 1, None),
    "step_congruences": (lambda v: ac.step_congruences(SPEC, v), "index", 1, None),
    "build": (lambda v: ac.build(SPEC, v), "last", 0, None),
    "feasible_residues": (lambda v: fl.feasible_residues([EVENS], v), "modulus", 2, None),
    "nmax_witness modulus": (lambda v: fl.nmax_witness(v, 1, [], [2]), "modulus", 2, None),
    "nmax_witness residue": (lambda v: fl.nmax_witness(5, v, [], [2]), "residue", 1, 5),
    "nmax_witness forbidden": (lambda v: fl.nmax_witness(5, 1, [7, v], [2]), "forbidden divisor", 2, None),
    "nmax_witness pool": (lambda v: fl.nmax_witness(5, 1, [], [3, v]), "pool element", 2, None),
    "GeometricDescriptor seed": (lambda v: GeometricDescriptor(7, v, 3), "seed", 0, 7),
    "GeometricDescriptor ratio": (lambda v: GeometricDescriptor(7, 2, v), "ratio", 1, 7),
    "is_geometric residue": (lambda v: geometry.is_geometric(7, [1, v]), "residue", 0, 7),
    "multiplicative_order": (lambda v: geometry.multiplicative_order(7, v), "a", 1, 7),
    "discrete_log base": (lambda v: geometry.discrete_log(7, v, 6), "base", 1, 7),
    "discrete_log x": (lambda v: geometry.discrete_log(7, 3, v), "x", 1, 7),
    "prime_in_progression modulus": (lambda v: geometry.prime_in_progression(v, 0), "modulus", 1, None),
    "prime_in_progression residue": (lambda v: geometry.prime_in_progression(10, v), "residue", 0, 10),
    "witness_class_set seed": (lambda v: geometry.witness_class_set(7, v, 3, 2), "seed residue", 1, 7),
    "witness_class_set ratio": (lambda v: geometry.witness_class_set(7, 2, v, 2), "ratio residue", 1, 7),
    "witness_class_set count": (lambda v: geometry.witness_class_set(7, 2, 3, v), "count", 1, None),
    "run_suite cases": (lambda v: oracles.run_suite("crt", cases=v), "cases", 0, None),
}


# calls that used to answer or end in a TypeError traceback
HOLES = {
    "omega(True)": lambda: lattice.omega(True),
    "factorize(12.0)": lambda: primes.factorize(12.0),
    "build(spec, True)": lambda: ac.build(SPEC, True),
    "level_members(True, 10)": lambda: lattice.level_members(True, 10),
    "nmax_witness(5, 2.5, [], [2])": lambda: fl.nmax_witness(5, 2.5, [], [2]),
    "level_members(1, 10.5)": lambda: lattice.level_members(1, 10.5),
    "build(spec, 2.5)": lambda: ac.build(SPEC, 2.5),
    "enumerate_up_to(2.5)": lambda: EVENS.enumerate_up_to(2.5),
    "primes_up_to(10.5)": lambda: primes.primes_up_to(10.5),
    'primes_up_to("10")': lambda: primes.primes_up_to("10"),
}


@pytest.mark.parametrize("bad", [True, 2.5], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_non_integers(entry, bad):
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(repr(bad))}$"):
        ENTRY_POINTS[entry](bad)


def _refusals():
    for entry, (call, what, low, high) in BOUNDED.items():
        if high is None:
            yield pytest.param(call, low - 1, f"{what} must be >= {low}, got {low - 1}", id=f"{entry} low")
            continue
        for bad in (low - 1, high):
            yield pytest.param(call, bad, f"{what} {bad} out of range [{low}, {high})", id=f"{entry} {bad}")


@pytest.mark.parametrize("call, bad, message", _refusals())
def test_bounded_entry_points_refuse_the_value_just_outside_with_one_wording(call, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_strict_int_keeps_the_ends_of_its_range():
    assert primes.strict_int(0, "x", 0) == 0
    assert primes.strict_int(1, "x", 1, 5) == 1
    assert primes.strict_int(4, "x", 1, 5) == 4
    # the type rule comes first, whatever the range
    with pytest.raises(ValueError, match=r"^x must be an integer, got True$"):
        primes.strict_int(True, "x", 2)


@pytest.mark.parametrize("call", HOLES)
def test_former_holes_are_refused(call):
    with pytest.raises(ValueError, match="must be an integer"):
        HOLES[call]()


def test_strict_int_keeps_ints_and_refuses_the_rest():
    assert primes.strict_int(7, "x") == 7
    assert primes.strict_int(-(10**30), "x") == -(10**30)
    for bad in (True, False, 2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match=f"^x must be an integer, got {re.escape(repr(bad))}$"):
            primes.strict_int(bad, "x")


def test_json_int_takes_only_ascii_decimal_strings():
    assert [primes.json_int(t, "x") for t in ("7", "+7", "-7", "007", "9" * 30)] == [7, 7, -7, 7, int("9" * 30)]
    # int() reads all of these: underscores, blanks, other scripts' digits
    for bad in ("1_0", " 7 ", "7\n", "\u0663", "\uff17", "", "+", "-", "+-7", "0x10", "1e3", "7.0"):
        with pytest.raises(ValueError, match=f"^x: expected an integer, got {re.escape(repr(bad))}$"):
            primes.json_int(bad, "x")


class E(IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: ps.make(5, [E.ONE]),
        lambda: ps.progression(5, E.ONE),
        lambda: geometry.is_geometric(5, [E.ONE, 4]),
        lambda: primes.strict_int(E.ONE, "x"),
        lambda: primes.json_int(E.ONE, "x"),
    ],
    ids=["make", "progression", "is_geometric", "strict_int", "json_int"],
)
def test_int_subclasses_are_refused_by_one_rule(call):
    # the rule is type(v) is int everywhere: an IntEnum member is no residue
    with pytest.raises(ValueError):
        call()


# entry point -> (a call that passes the value as a prime, the name it is refused under)
PRIME_ARGUMENTS = {
    "GeometricDescriptor": (lambda v: GeometricDescriptor(v, 1, 1), "p"),
    "primitive_root": (geometry.primitive_root, "p"),
    "multiplicative_order": (lambda v: geometry.multiplicative_order(v, 1), "p"),
    "discrete_log": (lambda v: geometry.discrete_log(v, 1, 1), "p"),
    "exponent_offsets": (lambda v: geometry.exponent_offsets(v, [1]), "p"),
    "structure_check": (lambda v: geometry.structure_check(v, [1]), "p"),
    "is_geometric": (lambda v: geometry.is_geometric(v, [1]), "p"),
    "enumerate_geometric": (geometry.enumerate_geometric, "p"),
    "witness_class_set": (lambda v: geometry.witness_class_set(v, 1, 1, 1), "p"),
    "omega_lower_bound": (lambda v: lattice.omega_lower_bound(12, [2, v]), "prime"),
    "classify_prime_support": (lambda v: crt.classify_prime_support({3: [1], v: [1]}), "chain prime"),
    "AntichainSpec chain": (lambda v: ac.AntichainSpec(((3, (1,)), (v, (1,)))), "chain prime"),
    "AntichainSpec divisor": (lambda v: ac.AntichainSpec(((3, (1,)),), (2, v)), "divisor prime"),
}


@pytest.mark.parametrize("entry", PRIME_ARGUMENTS)
def test_prime_arguments_refuse_a_composite_with_one_wording(entry):
    call, what = PRIME_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{what} must be a prime int, got 4$"):
        call(4)


def test_primes_given_as_decimal_text_are_still_accepted():
    assert lattice.omega_lower_bound(72, ["2", "+3"]) == 5
    assert crt.classify_prime_support({"7": [0, 14]}) == {7: crt.NonZero(2)}
    spec = ac.AntichainSpec((("3", (1,)),), ("7",))
    assert (spec.chain_primes, spec.divisor_primes) == ((3,), (7,))
    # geometry takes ints only, as before
    with pytest.raises(ValueError, match="^p must be a prime int, got '7'$"):
        geometry.primitive_root("7")


# collection entry point -> (a call whose list holds two refused values, the first
# of them not the least, and the refusal of the first in input order)
COLLECTIONS = {
    "make residues": (lambda: ps.make(5, [1, 7, 5]), "residue 7 out of range [0, 5)"),
    "make added": (lambda: ps.make(5, [], [3, -1, -2]), "added element must be >= 0, got -1"),
    "make removed": (lambda: ps.make(5, [1], [], [3, -1, -2]), "removed element must be >= 0, got -1"),
    "divisibility_union": (lambda: ps.divisibility_union([3, 0, -1]), "divisor must be >= 1, got 0"),
    "lattice elements": (lambda: lattice.up_closure([4, 0, -1]), "element must be >= 1, got 0"),
    "omega_lower_bound": (
        lambda: lattice.omega_lower_bound(12, [2, 9, 4]),
        "prime must be a prime int, got 9",
    ),
    "nmax_witness forbidden": (
        lambda: fl.nmax_witness(5, 1, [7, 1, 0], [2]),
        "forbidden divisor must be >= 2, got 1",
    ),
    "nmax_witness pool": (
        lambda: fl.nmax_witness(5, 1, [], [3, 1, 0]),
        "pool element must be >= 2, got 1",
    ),
    "is_geometric": (lambda: geometry.is_geometric(7, [1, 8, 7]), "residue 8 out of range [0, 7)"),
    "AntichainSpec divisors": (
        lambda: ac.AntichainSpec(((3, (1,)),), (2, 9, 4)),
        "divisor prime must be a prime int, got 9",
    ),
}


@pytest.mark.parametrize("entry", COLLECTIONS)
def test_collections_name_their_first_refused_value(entry):
    call, message = COLLECTIONS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# a collection argument that is no iterable is Python's own TypeError, as the README states
NOT_ITERABLE = {
    "make residues": lambda: ps.make(1, 0),
    "make residues None": lambda: ps.make(1, None),
    "up_closure": lambda: lattice.up_closure(0),
    "down_closure": lambda: lattice.down_closure(0),
    "divisibility_union": lambda: ps.divisibility_union(0),
    "omega_lower_bound": lambda: lattice.omega_lower_bound(1, 0),
    "FilterBase": lambda: fl.FilterBase(0),
}


@pytest.mark.parametrize("entry", NOT_ITERABLE)
def test_a_collection_argument_that_is_not_iterable_is_a_type_error(entry):
    with pytest.raises(TypeError, match="^'(int|NoneType)' object is not iterable$"):
        NOT_ITERABLE[entry]()


HUGE = 10**5000  # 16610 bits, past the 4300-digit limit

# a call that refuses an int past the digit limit -> (its exception type, its message)
PAST_THE_DIGIT_LIMIT = {
    "factorize": (
        lambda: primes.factorize(2 * 10**4400, 1),  # no perfect power, so refused whole
        primes.FactorizationBudgetError,
        "budget exceeded: cannot factor residual <int of 14618 bits>",
    ),
    "primitive_root": (
        lambda: geometry.primitive_root(HUGE),
        ValueError,
        "p must be a prime int, got <int of 16610 bits>",
    ),
    "omega_lower_bound": (
        lambda: lattice.omega_lower_bound(12, [HUGE]),
        ValueError,
        "prime must be a prime int, got <int of 16610 bits>",
    ),
    "make": (
        lambda: ps.make(5, [1], [HUGE], [HUGE]),
        ValueError,
        "ambiguous edits: [<int of 16610 bits>] both added and removed",
    ),
    "prime_in_progression": (
        lambda: geometry.prime_in_progression(HUGE, 2),
        ValueError,
        "gcd(<int of 16610 bits>, 2) = 2 != 1",
    ),
    "is_upward_closed": (
        lambda: ps.is_upward_closed(ps.make(5, [0], [], [HUGE])),
        ValueError,
        "upward-closedness undecidable under edits at [<int of 16610 bits>]; "
        "only purely periodic sets are supported",
    ),
    "nmax_witness": (
        lambda: fl.nmax_witness(HUGE, 1, [], [2]),
        fl.NoWitnessSourceError,
        "no pool element is coprime to <int of 16610 bits> and to all of []",
    ),
    "classify_prime_support": (
        lambda: crt.classify_prime_support({3: [HUGE]}),
        ValueError,
        "residue <int of 16610 bits> at depth 1 out of range for 3^1",
    ),
    "a chain that is no list": (
        lambda: crt.classify_prime_support({3: {1: HUGE}}),
        ValueError,
        "residue chain for 3: expected an array, got <dict too long to print>",
    ),
    "strict_int of a tuple": (
        lambda: primes.strict_int((HUGE,), "x"),
        ValueError,
        "x must be an integer, got <tuple too long to print>",
    ),
}


@pytest.mark.parametrize("entry", PAST_THE_DIGIT_LIMIT)
def test_refusals_of_an_int_past_the_digit_limit_keep_their_type_and_wording(entry, digit_limit):
    call, error, message = PAST_THE_DIGIT_LIMIT[entry]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_a_list_that_holds_itself_is_shown_as_repr_shows_it(digit_limit):
    looped = [1]
    looped.append(looped)
    with pytest.raises(ValueError, match=re.escape("x must be an integer, got [1, [...]]")):
        primes.strict_int(looped, "x")
    with pytest.raises(ValueError, match=re.escape("element: expected an integer, got [1, [...]]")):
        lattice.up_closure([looped])
    with pytest.raises(ValueError, match=re.escape("got [1, [...]]")):
        ac.verify([3], ac.AntichainSpec(((3, (1,)),)), looped)
    # one past the digit limit is shown by its bits, the loop as repr shows it
    looped[0] = HUGE
    with pytest.raises(ValueError, match=re.escape("got [<int of 16610 bits>, [...]]") + "$"):
        primes.strict_int(looped, "x")
