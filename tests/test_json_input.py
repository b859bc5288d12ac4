"""JSON from outside: every reader refuses an object, a missing field and an array through
`primes.json_object` and `primes.json_array`, one wording per kind with the value shown, and
every reader takes any mapping as an object and a list or a tuple as an array."""

from types import MappingProxyType

import pytest

from congruence_lattice import antichain as ac
from congruence_lattice import cli, crt
from congruence_lattice import periodic_sets as ps

SPEC = '{"chains":[{"prime":3,"residues":[1,4]}]}'


# entry point -> (not an object, a missing field, not an array), each a (call, message) or None;
# a call is a function of the library or the argv of a `conlat` run
REFUSALS = {
    "PeriodicSet.from_json": (
        (lambda: ps.PeriodicSet.from_json([3]), "periodic set JSON: expected an object, got [3]"),
        (lambda: ps.PeriodicSet.from_json({"residues": [0]}), 'periodic set JSON: missing field "modulus"'),
        (
            lambda: ps.PeriodicSet.from_json({"modulus": 3, "add": {1: 2}}),
            'periodic set JSON field "add": expected an array, got {1: 2}',
        ),
    ),
    "AntichainSpec.from_json": (
        (lambda: ac.AntichainSpec.from_json("spec"), "antichain spec JSON: expected an object, got 'spec'"),
        (lambda: ac.AntichainSpec.from_json({}), 'antichain spec JSON: missing field "chains"'),
        (
            lambda: ac.AntichainSpec.from_json({"chains": {"prime": 3}}),
            "antichain spec JSON field \"chains\": expected an array, got {'prime': 3}",
        ),
    ),
    "a chain entry": (
        (
            lambda: ac.AntichainSpec.from_json({"chains": [[3, [1]]]}),
            "antichain spec JSON chain 0: expected an object, got [3, [1]]",
        ),
        (
            lambda: ac.AntichainSpec.from_json({"chains": [{"residues": [1]}]}),
            'antichain spec JSON chain 0: missing field "prime"',
        ),
        (
            lambda: ac.AntichainSpec.from_json({"chains": [{"prime": 3, "residues": 1}]}),
            "residue chain for 3: expected an array, got 1",
        ),
    ),
    "Congruence.from_json": (
        (lambda: crt.Congruence.from_json((3, 1)), "congruence JSON: expected an object, got (3, 1)"),
        (lambda: crt.Congruence.from_json({"m": 3}), 'congruence JSON: missing field "a"'),
        None,
    ),
    "validate_chain_table": (
        (lambda: crt.validate_chain_table([(3, [1])]), "residue-chain table: expected an object, got [(3, [1])]"),
        None,
        (lambda: crt.validate_chain_table({3: 1}), "residue chain for 3: expected an array, got 1"),
    ),
    "a chain": (
        None,
        None,
        (lambda: ac.AntichainSpec(((3, "14"),)), "residue chain for 3: expected an array, got '14'"),
    ),
    "conlat system": (
        (["crt", "solve", "[5]"], "system[0]: congruence JSON: expected an object, got 5"),
        (["crt", "stream", '[{"a":1}]'], 'system[0]: congruence JSON: missing field "m"'),
        (["crt", "solve", '{"m":3,"a":1}'], "system: expected an array, got {'m': 3, 'a': 1}"),
    ),
    "conlat --base": (
        (["filter", "fip", "--base", "[2]"], "--base[0]: periodic set JSON: expected an object, got 2"),
        (
            ["filter", "fip", "--base", '[{"residues":[0]}]'],
            '--base[0]: periodic set JSON: missing field "modulus"',
        ),
        (["filter", "fip", "--base", '{"modulus":2}'], "--base: expected an array, got {'modulus': 2}"),
    ),
    "conlat --left, --right": (
        (
            ["filter", "divides", "--left", "[1]", "--right", "[]"],
            "--left[0]: periodic set JSON: expected an object, got 1",
        ),
        None,
        (["filter", "divides", "--left", "[]", "--right", "{}"], "--right: expected an array, got {}"),
    ),
    "conlat --spec, --prefix": (
        (
            ["antichain", "verify", "--spec", '{"chains":3}', "--prefix", "[3]"],
            "--spec: antichain spec JSON field \"chains\": expected an array, got 3",
        ),
        (
            ["antichain", "verify", "--spec", "{}", "--prefix", "[3]"],
            '--spec: antichain spec JSON: missing field "chains"',
        ),
        (
            ["antichain", "verify", "--spec", SPEC, "--prefix", '{"a":1}'],
            "--prefix: expected an array, got {'a': 1}",
        ),
    ),
}
CASES = [
    pytest.param(*case, id=f"{entry}: {kind}")
    for entry, cases in REFUSALS.items()
    for kind, case in zip(("not an object", "a missing field", "not an array"), cases)
    if case is not None
]


def refusal(call, capsys):
    """The message that a library call raises, or the one stderr line of a `conlat` run that
    exits 2 and prints nothing."""
    if callable(call):
        with pytest.raises(ValueError) as exc:
            call()
        return str(exc.value)
    code = cli.main(call)
    out = capsys.readouterr()
    assert (code, out.out) == (2, "") and out.err.startswith("error: ") and out.err.count("\n") == 1
    return out.err[len("error: ") : -1]


@pytest.mark.parametrize("call, message", CASES)
def test_json_from_outside_is_refused_in_one_wording_per_kind(call, message, capsys):
    assert refusal(call, capsys) == message


def test_a_refused_modulus_names_its_field():
    with pytest.raises(ValueError, match='^congruence JSON field "m" must be >= 1, got 0$'):
        crt.Congruence.from_json({"m": 0, "a": 1})
    with pytest.raises(ValueError, match='^congruence JSON field "a": expected an integer, got 4.5$'):
        crt.Congruence.from_json({"m": 3, "a": 4.5})


def test_every_reader_takes_any_mapping_and_a_tuple():
    chains = MappingProxyType({"chains": (MappingProxyType({"prime": 3, "residues": (1, "4")}),), "divisors": ()})
    assert ac.AntichainSpec.from_json(chains) == ac.AntichainSpec(((3, (1, 4)),))
    periodic = MappingProxyType({"modulus": "6", "residues": (1,), "add": (0,)})
    assert ps.PeriodicSet.from_json(periodic) == ps.make(6, [1], [0])
    assert crt.Congruence.from_json(MappingProxyType({"m": 5, "a": "-1"})) == crt.Congruence(5, 4)
    assert crt.validate_chain_table(MappingProxyType({"3": (1, 4)})) == {3: (1, 4)}
