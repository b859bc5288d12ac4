"""Value semantics of the library's records: equality by type and fields, a hash that
agrees with it, immutability, the dataclass-style repr, and pickle and copy round trips.
Every validating type stores its slots through its one generated setter, and an argument
of another type where one is expected is refused by the one `Record._check` TypeError.

The validating types (`primes.Record` subclasses) are no tuples; the result records
are `collections.namedtuple`s, so they compare as tuples do."""

import copy
import pickle
import re
from pathlib import Path

import pytest

import congruence_lattice
from congruence_lattice import antichain, crt, geometry, lattice
from congruence_lattice import filter_lab as fl
from congruence_lattice.antichain import AntichainSpec, VerificationReport
from congruence_lattice.crt import Congruence
from congruence_lattice.filter_lab import DividesReport, DividesStatus, FilterBase
from congruence_lattice.geometry import ExponentOffsets, GeometricDescriptor, StructureReport
from congruence_lattice.periodic_sets import PeriodicSet, is_upward_closed, make, progression
from congruence_lattice.primes import Record

E = frozenset()
VIEW = progression(2, 0) & progression(3, 1)  # residues in CRT-product form

# (a record, an equal one built another way, one that differs in a field, its repr)
CASES = {
    "Congruence": (Congruence(7, 10), Congruence(7, 3), Congruence(7, 4), "Congruence(modulus=7, residue=3)"),
    "GeometricDescriptor": (
        GeometricDescriptor(7, 1, 3),
        GeometricDescriptor(p=7, seed=1, ratio=3),
        GeometricDescriptor(7, 1, 2),
        "GeometricDescriptor(p=7, seed=1, ratio=3)",
    ),
    "AntichainSpec": (
        AntichainSpec([(3, [1, 4, 13])], [2]),
        AntichainSpec((("3", (1, 4, 13)),), ("2",)),
        AntichainSpec([(3, [1, 4, 13])], [7]),
        "AntichainSpec(chains=((3, (1, 4, 13)),), divisor_primes=(2,))",
    ),
    "FilterBase": (
        FilterBase([progression(2, 0)]),
        FilterBase((make(2, [0]),)),
        FilterBase([progression(3, 0)]),
        "FilterBase(members=(PeriodicSet(mod=2, residues=[0], add=[], remove=[]),))",
    ),
    "PeriodicSet": (
        make(6, [1, 5]),
        PeriodicSet(modulus=6, residues=make(6, [5, 1]).residues, added=E, removed=E),
        make(6, [1, 5], [0]),
        "PeriodicSet(mod=6, residues=[1, 5], add=[], remove=[])",
    ),
    "PeriodicSet of a view": (
        VIEW,
        progression(3, 1) & progression(2, 0),
        progression(2, 0) & progression(3, 2),
        "PeriodicSet(mod=6, residues=[4], add=[], remove=[])",
    ),
    "ExponentOffsets": (
        ExponentOffsets(1, ()),
        ExponentOffsets(base_exponent=1, offsets=()),
        ExponentOffsets(1, (2,)),
        "ExponentOffsets(base_exponent=1, offsets=())",
    ),
    "StructureReport": (
        StructureReport(True, False, True),
        StructureReport(gcd_closed=True, multiples_closed=False, arithmetic_progression=True),
        StructureReport(True, True, True),
        "StructureReport(gcd_closed=True, multiples_closed=False, arithmetic_progression=True)",
    ),
    "VerificationReport": (
        VerificationReport(True, True, True, True, True, True, ()),
        VerificationReport(*[True] * 6, failures=()),
        VerificationReport(True, True, False, True, True, True, ("element 1 misses residue 1 mod 3^1",)),
        "VerificationReport(monotone=True, antichain=True, chain_tracking=True, own_prime_divides=True, "
        "divisor_powers=True, factor_count_growth=True, failures=())",
    ),
    "DividesReport": (
        DividesReport(DividesStatus.PASSES),
        DividesReport(DividesStatus.PASSES, None),
        DividesReport(DividesStatus.VACUOUS),
        "DividesReport(status=<DividesStatus.PASSES: 'passes'>, witness=None)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_exactly_for_the_same_fields_with_equal_hashes(name):
    record, twin, other, _ = CASES[name]
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert record != other and not record == other
    for another, *_ in CASES.values():
        if type(another) is not type(record):
            assert record != another


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_set_or_deleted(name):
    record = CASES[name][0]
    field = type(record)._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", CASES)
def test_repr_names_every_field(name):
    record, _, _, shown = CASES[name]
    assert repr(record) == shown


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_round_trip(name):
    record = CASES[name][0]
    for back in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(back) is type(record) and back == record and hash(back) == hash(record)
        assert repr(back) == repr(record)


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if isinstance(case[0], Record)])
def test_a_validating_type_is_no_tuple(name):
    # a PeriodicSet of len 4 or a Congruence equal to a pair would be traps
    record = CASES[name][0]
    fields = tuple(getattr(record, field) for field in record._fields)
    assert not isinstance(record, tuple) and record != fields
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if not isinstance(case[0], Record)])
def test_a_result_record_is_a_tuple_that_takes_no_new_attribute(name):
    record = CASES[name][0]
    assert isinstance(record, tuple) and record == tuple(getattr(record, field) for field in record._fields)
    assert record._asdict() == {field: getattr(record, field) for field in record._fields}
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_a_round_trip_rebuilds_what_is_not_a_field():
    # pickle and copy call the constructor, which checks a base's members again and derives the depths again
    base = CASES["FilterBase"][0]
    assert base.__reduce__() == (FilterBase, (base.members,))
    assert copy.copy(CASES["AntichainSpec"][0])._depths == (1,)


def test_no_module_sets_a_slot_by_name():
    # every record stores its slots through its type's generated setter, never by name
    package = Path(congruence_lattice.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "object.__setattr__" not in path.read_text(encoding="utf-8"), path.name


def test_every_record_type_is_covered_and_sets_every_slot():
    covered = {type(case[0]) for case in CASES.values()}
    assert set(Record.__subclasses__()) <= covered
    for name, (record, twin, other, _) in CASES.items():
        if isinstance(record, Record):
            slots = type(record).__slots__
            assert set(record._fields) <= set(slots), name
            for built in (record, twin, other, pickle.loads(pickle.dumps(record))):
                assert all(hasattr(built, slot) for slot in slots), (name, slots)
    # the slots that are no fields are derived by the constructor
    assert FilterBase.__slots__ == FilterBase._fields == ("members",)  # a base stores no meet
    assert CASES["AntichainSpec"][0]._depths == (1,)


def test_a_periodic_set_takes_its_fields_by_position_and_by_keyword():
    r = progression(6, 1).residues
    by_position, by_keyword = PeriodicSet(6, r, E, E), PeriodicSet(removed=E, added=E, residues=r, modulus=6)
    assert by_position == by_keyword == progression(6, 1) and by_keyword.residues is r
    for args, kwargs in (((6, r, E), {}), ((6, r, E, E, E), {}), ((), {}), ((6, r, E), {"removal": E})):
        with pytest.raises(TypeError, match="^PeriodicSet._set"):
            PeriodicSet(*args, **kwargs)


def _infeasible_stream():
    stream = crt.FeasibilityStream()
    for c in (Congruence(2, 0), Congruence(2, 1)):
        stream.push(c)
    return stream


EVENS, SPEC = progression(2, 0), AntichainSpec([(3, [1, 4, 13])], [2])
# entry point -> (a call that passes a value of another type where a record is expected, the refusal)
WRONG_TYPES = {
    "solve_system": (lambda: crt.solve_system([Congruence(3, 1), 5]), "congruence must be Congruence, got int"),
    "solve_pair first": (lambda: crt.solve_pair((5, 2), Congruence(3, 1)), "congruence must be Congruence, got tuple"),
    "solve_pair second": (lambda: crt.solve_pair(Congruence(3, 1), (5, 2)), "congruence must be Congruence, got tuple"),
    "push": (lambda: crt.FeasibilityStream().push((5, 2)), "congruence must be Congruence, got tuple"),
    "push when infeasible": (lambda: _infeasible_stream().push((5, 2)), "congruence must be Congruence, got tuple"),
    "expand": (lambda: geometry.expand((7, 1, 3)), "descriptor must be GeometricDescriptor, got tuple"),
    "divides_check left": (
        lambda: fl.divides_check([EVENS], FilterBase([EVENS])),
        "divides_check bases must be FilterBase, got list",
    ),
    "divides_check right": (
        lambda: fl.divides_check(FilterBase([EVENS]), [EVENS]),
        "divides_check bases must be FilterBase, got list",
    ),
    "extend": (lambda: fl.extend([EVENS], EVENS), "base must be FilterBase, got list"),
    "FilterBase": (lambda: FilterBase([EVENS, (2, 0)]), "filter base members must be PeriodicSet, got tuple"),
    "has_fip": (lambda: fl.has_fip([EVENS, 2]), "filter base members must be PeriodicSet, got int"),
    "feasible_residues": (
        lambda: fl.feasible_residues([None], 5),
        "filter base members must be PeriodicSet, got NoneType",
    ),
    "build": (lambda: antichain.build({"chains": [(3, [1])]}, 2), "spec must be AntichainSpec, got dict"),
    "verify": (lambda: antichain.verify([1, 2], None), "spec must be AntichainSpec, got NoneType"),
    "first_nonzero_depths": (
        lambda: antichain.first_nonzero_depths(None),
        "spec must be AntichainSpec, got NoneType",
    ),
    "step_congruences": (lambda: antichain.step_congruences((3, 1), 1), "spec must be AntichainSpec, got tuple"),
    "is_upward_closed": (lambda: is_upward_closed(3), "is_upward_closed operand must be PeriodicSet, got int"),
    "lattice.is_upward_closed": (
        lambda: lattice.is_upward_closed(frozenset({2})),
        "is_upward_closed operand must be PeriodicSet, got frozenset",
    ),
    "meets_infinitely": (
        lambda: EVENS.meets_infinitely(EVENS, 3),
        "periodic set operands must be PeriodicSet, got int",
    ),
}


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_an_argument_that_is_no_record_is_refused_with_one_type_error(name):
    # not an AttributeError on a missing field deeper down
    call, message = WRONG_TYPES[name]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()
