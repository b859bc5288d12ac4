"""The command-line reader against argparse: `cli._read` either defers (None) or
returns exactly the namespace that argparse's `parse_args` builds, and it never
answers a command line that argparse explains (help) or refuses."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from congruence_lattice import cli

CORPUS = Path(__file__).parent / "golden" / "conlat.json"
GOLDEN = [case["argv"] for case in json.loads(CORPUS.read_text(encoding="utf-8"))]
FLAGS = sorted({flag for c in cli.COMMANDS for flags, _ in c.args for flag in flags if flag[0] == "-"})
# tokens argparse reads in its own ways: negative numbers (Unicode digits too), "-" and "--",
# abbreviations, a value joined to its flag, help; and values that fail a conversion
ODD = ["-", "--", "-5", "-.5", "-٣", "٣", "", "-h", "--help", "--fail", "--out", "-p7", "--set=1",
       "--output", "pretty", "1_0", "+3", " 3", "1,,2", "x", "inf", "1e3", ".5", "crt", "solve", "loose"]


def parsed(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    parser = cli._build_parser(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def read(argv):
    """Whether the reader answers argv, after checking that it answers as argparse does."""
    namespace = cli._read(list(argv))
    assert namespace is None or vars(namespace) == parsed(argv), argv
    return namespace is not None


def plain(argv):
    """Whether argparse reads argv to a command whose dashed tokens are a leading --output and the
    command's flags, each spelled in full and given once: such a command line the reader answers."""
    command = (parsed(argv) or {}).get("entry")
    if command is None:
        return False
    owner = {flag: flags for flags, _ in command.args for flag in flags}
    dashed = [token for token in argv[2 if argv[0] == "--output" else 0:] if token[:1] == "-"]
    return all(token in owner for token in dashed) and len({owner[t] for t in dashed}) == len(dashed)


@pytest.mark.parametrize("argv", GOLDEN, ids=lambda argv: " ".join(argv)[:60])
def test_the_reader_answers_a_plain_golden_command_line_as_argparse_does(argv):
    assert read(argv) == plain(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["geom", "root", "-p", "x", "-p", "7"],  # argparse converts every value given, the last one wins
        ["geom", "root", "-p", "7", "-p", "11"],
        ["--output", "pretty", "--output", "json", "geom", "root", "-p", "7"],
        ["lattice", "up"],  # a positional missing, or one too many
        ["lattice", "up", "4", "6"],
        ["geom", "root", "-p", "-7"],  # a negative number is a value to argparse
        ["geom", "root", "-p7"],
        ["geom", "root", "-p=7"],
        ["geom", "root", "--p", "7"],
        ["crt", "solve", "[]", "--fail"],
        ["crt", "solve", "--", "[]"],
        ["geom", "root", "-p", "7", "--output", "pretty"],
        ["geom", "root", "-p"],
        ["geom", "root", "-p", "7", "-h"],
    ],
    ids=" ".join,
)
def test_the_reader_defers_on_a_command_line_that_is_not_plain(argv):
    assert not read(argv)


def values(options):
    """Texts that convert for an argument, by its type or choices."""
    if "choices" in options:
        return st.sampled_from(list(options["choices"]()))
    convert = options.get("type")
    if convert is cli._int:
        return st.integers(-(10**20), 10**20).map(str)
    if convert is cli._int_list:
        return st.lists(st.integers(0, 99), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    if convert is cli._seconds:
        return st.sampled_from(["0", "5", "0.5", "12.25"])
    return st.sampled_from(['[{"m":3,"a":2}]', "[]", "{}", "x"])


@st.composite
def command_lines(draw):
    """A command line of one command, mostly well formed (a required argument is left out now and then),
    then edited: a token inserted (an odd one, a flag, a flag with "=value", a prefix of a flag), a token
    deleted, or a flag given again with a value of its own."""
    command = draw(st.sampled_from(cli.COMMANDS))

    def chunk(flags, options):
        value = draw(st.sampled_from(ODD) if draw(st.integers(0, 4)) == 0 else values(options))
        flag = [draw(st.sampled_from(flags))] if flags[0][0] == "-" else []
        return flag if options.get("action") else flag + [value]

    required = [arg for arg in command.args if arg[0][0][0] != "-" or arg[1].get("required")]
    chunks = [chunk(*arg) for arg in command.args if draw(st.integers(0, 6 if arg in required else 1))]
    tokens = [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["odd", "flag", "joined", "prefix", "delete", "repeat"]))
        flag = draw(st.sampled_from(FLAGS))
        if edit == "delete" and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif edit == "repeat" and any(flags[0][0] == "-" for flags, _ in command.args):
            tokens[at:at] = chunk(*draw(st.sampled_from([a for a in command.args if a[0][0][0] == "-"])))
        elif edit in ("odd", "flag", "joined", "prefix"):
            token = {"odd": draw(st.sampled_from(ODD)), "flag": flag, "joined": flag + "=7"}.get(edit)
            tokens.insert(at, token or flag[: draw(st.integers(1, len(flag) - 1))])
    head = draw(st.sampled_from([[], [], ["--output", "json"], ["--output", "pretty"], ["--output", "x"]]))
    names = [[command.group, command.name]] * 4 + [[command.group], ["nosuch", command.name]]
    name = draw(st.sampled_from(names))
    return head + name + tokens


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_the_reader_defers_or_answers_as_argparse_does(argv):
    read(argv)
