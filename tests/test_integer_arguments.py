"""Every scalar integer argument from outside the library passes one check,
`primes.strict_int`: a bool or a float is a ValueError, never an answer and
never a TypeError from deeper down."""

import re
from enum import IntEnum

import pytest

from congruence_lattice import antichain as ac
from congruence_lattice import crt, geometry, lattice, primes
from congruence_lattice import filter_lab as fl
from congruence_lattice import periodic_sets as ps

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
