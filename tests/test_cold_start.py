"""What one `conlat` start loads and builds: the lazy package, the modules a
command imports (and no `dataclasses`, `inspect` or `typing` of the standard
library, nor argparse for a plain command line), and, for help or a refusal, a
parser with subcommands for the named group only.

The module sets are read from `python -S -X importtime` in a fresh interpreter,
so they count imports and take no timings.  `-S` skips `site`, which may import
`typing` itself and so would hide an import of it by the package."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import congruence_lattice
from congruence_lattice import antichain, cli, oracles

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "congruence_lattice"
SPEC = '{"chains":[{"prime":3,"residues":[1,4,13]},{"prime":5,"residues":[2,7,57]}],"divisors":[2,13]}'


# dataclasses imports inspect, which imports dis, ast, tokenize and linecache: about 12 ms a start;
# typing, 4-6 ms
SLOW_STDLIB = {"dataclasses", "inspect", "typing"}
# argparse and what it imports itself, which only help and refusals need
ARGPARSE = {"argparse", "gettext", "locale"}


def imported(*args, code=0):
    """Names of every module, the standard library's too, that `python -S -X importtime *args` imports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def ours(names):
    return {name for name in names if name == PACKAGE or name.startswith(PACKAGE + ".")}


def loaded(*args):
    """Names of the package's modules that `python -S -X importtime *args` imports."""
    return ours(imported(*args))


def modules(*short):
    return {PACKAGE, *(f"{PACKAGE}.{name}" for name in short)}


# cli_cold's five command groups; under -m the cli module itself runs as __main__
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["crt", "solve", '[{"m":3,"a":2},{"m":5,"a":3}]'], modules("primes", "crt")),
        # recognition and enumeration take no logarithms: no dlog
        (["geom", "check", "-p", "7", "--set", "1,2,4"], modules("primes", "geometry")),
        (["geom", "enum", "-p", "7"], modules("primes", "geometry")),
        # Pohlig-Hellman combines its residues itself: no crt
        (
            ["geom", "dlog", "-p", "29682952539241", "--base", "53", "-x", "123456789"],
            modules("primes", "geometry", "dlog"),
        ),
        (["geom", "offsets", "-p", "7", "--set", "3,5,6"], modules("primes", "geometry", "dlog")),
        (["lattice", "up", "4,6"], modules("primes", "periodic_sets", "lattice")),
        # verify's divisibility cores live in primes: no periodic_sets, no lattice
        (["antichain", "build", "--spec", SPEC, "-n", "1"], modules("primes", "crt", "antichain")),
        (
            ["filter", "fip", "--base", '[{"modulus":2,"residues":[0]}]'],
            modules("primes", "periodic_sets", "filter_lab"),
        ),
        # divides_check decides upward closure, which periodic_sets owns: no lattice; only nmax reads crt
        (
            ["filter", "divides", "--left", '[{"modulus":2,"residues":[0]}]', "--right", '[{"modulus":4,"residues":[0]}]'],
            modules("primes", "periodic_sets", "filter_lab"),
        ),
    ],
    ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else "",
)
def test_a_command_loads_only_its_modules(argv, expected):
    names = imported("-m", "congruence_lattice.cli", *argv)
    assert ours(names) == expected
    assert not names & SLOW_STDLIB


def test_console_script_entry_loads_cli_and_the_command_module():
    entry = "import sys; from congruence_lattice.cli import main; sys.exit(main())"
    names = imported("-c", entry, "crt", "solve", '[{"m":3,"a":2}]')
    assert ours(names) == modules("cli", "primes", "crt")
    assert not names & SLOW_STDLIB


# the benchmark's cli_cold queries, one a group
COLD = [
    ["crt", "solve", '[{"m":3,"a":2},{"m":5,"a":3}]'],
    ["geom", "check", "-p", "7", "--set", "1,2,4"],
    ["lattice", "up", "4,6"],
    ["antichain", "build", "--spec", SPEC, "-n", "1"],
    ["filter", "fip", "--base", '[{"modulus":2,"residues":[0]}]'],
]


@pytest.mark.parametrize("argv", COLD, ids=lambda v: " ".join(v[:2]))
def test_a_plain_command_line_imports_no_argparse(argv):
    assert not imported("-m", "congruence_lattice.cli", *argv) & ARGPARSE


def test_the_console_script_entry_imports_no_argparse():
    entry = "import sys; from congruence_lattice.cli import main; sys.exit(main())"
    assert not imported("-c", entry, "--output", "pretty", *COLD[0]) & ARGPARSE


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["geom", "check", "--help"], 0),
        (["crt", "solve"], 2),
        (["geom", "check", "-p", "x"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_help_and_refusals_still_import_argparse(argv, code):
    assert ARGPARSE <= imported("-m", "congruence_lattice.cli", *argv, code=code)


def test_oracle_command_loads_oracles():
    assert f"{PACKAGE}.oracles" in loaded("-m", "congruence_lattice.cli", "oracle", "run", "crt", "--cases", "1")


def test_importing_the_package_loads_no_submodule():
    assert loaded("-c", "import congruence_lattice") == modules()


@pytest.mark.parametrize("name", sorted(p.stem for p in (SRC / PACKAGE).glob("*.py") if p.stem != "__init__"))
def test_no_submodule_imports_a_slow_standard_library_module(name):
    names = imported("-c", f"import {PACKAGE}.{name}")
    assert f"{PACKAGE}.{name}" in names and not names & SLOW_STDLIB


# -- the lazy package -----------------------------------------------------------


@pytest.mark.parametrize("name", congruence_lattice.__all__)
def test_every_exported_name_is_its_home_object(name):
    value = getattr(congruence_lattice, name)
    if isinstance(value, ModuleType):
        assert value is import_module(f"{PACKAGE}.{name}")
    else:
        assert value.__module__.startswith(PACKAGE + ".")
        assert getattr(import_module(value.__module__), name) is value


def test_star_import_binds_all_names():
    namespace = {}
    exec(f"from {PACKAGE} import *", namespace)
    assert set(congruence_lattice.__all__) <= set(namespace)
    assert namespace["PeriodicSet"] is congruence_lattice.periodic_sets.PeriodicSet


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        congruence_lattice.nosuch  # noqa: B018


# -- one group's parser -------------------------------------------------------------


def exits(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_top_help_lists_every_group(capsys):
    code, out, _ = exits(capsys, "--help")
    assert code == 0
    assert all(group in out for group in cli.GROUPS)


@pytest.mark.parametrize("group", sorted(cli.GROUPS))
def test_group_help_lists_exactly_its_commands(capsys, group):
    code, out, _ = exits(capsys, group, "--help")
    assert code == 0
    offered = re.search(r"\{([^}]*)\}", out).group(1).split(",")
    assert offered == [c.name for c in cli.COMMANDS if c.group == group]


@pytest.mark.parametrize("group", sorted(cli.GROUPS))
def test_group_help_describes_every_command(capsys, group):
    code, out, _ = exits(capsys, group, "-h")
    assert code == 0
    # argparse lists a command only with a help text: on its own line, or indented deeper on the next
    for command in (c for c in cli.COMMANDS if c.group == group):
        assert re.search(rf"^    {re.escape(command.name)}(?: +|\n {{5,}})\S", out, re.M), command.name


def test_unknown_group_exits_2_naming_every_group(capsys):
    code, _, err = exits(capsys, "nosuch")
    assert code == 2
    assert "invalid choice: 'nosuch'" in err
    assert all(f"'{group}'" in err for group in cli.GROUPS)


def test_choices_come_from_their_modules(capsys):
    _, out, _ = exits(capsys, "antichain", "build", "--help")
    assert "{strict,safe}" in out and tuple(antichain.SUBSTITUTION_MODES) == ("strict", "safe")
    _, out, _ = exits(capsys, "oracle", "run", "--help")
    assert "{" + ",".join(sorted(oracles.SUITES)) + "}" in out
    code, _, err = exits(capsys, "antichain", "build", "--spec", SPEC, "-n", "1", "--substitution", "loose")
    assert code == 2 and "invalid choice: 'loose'" in err

