"""Command-line surface: JSON shapes, exit codes, determinism, dispatch coverage."""

import json
import sys

import pytest

from congruence_lattice import cli

DISPATCH = {(c.group, c.name): c.op for c in cli.COMMANDS}  # each subcommand's operation


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- crt ---------------------------------------------------------------------------


def test_crt_solve(capsys):
    code, out, _ = run(capsys, "crt", "solve", '[{"m":3,"a":2},{"m":5,"a":3}]')
    assert code == 0
    assert json.loads(out) == {"M": 15, "x0": 8}


def test_crt_solve_infeasible(capsys):
    code, out, _ = run(capsys, "crt", "solve", '[{"m":2,"a":0},{"m":4,"a":1}]')
    assert code == 0
    assert json.loads(out) == {"infeasible": True}


def test_crt_solve_fail_flag(capsys):
    code, out, _ = run(
        capsys, "crt", "solve", '[{"m":2,"a":0},{"m":4,"a":1}]', "--fail-on-infeasible"
    )
    assert code == 1
    assert json.loads(out) == {"infeasible": True}


def test_crt_solve_rejects_zero_modulus(capsys):
    code, _, err = run(capsys, "crt", "solve", '[{"m":0,"a":1}]')
    assert code == 2
    assert '"m"' in err


def test_crt_solve_names_missing_field(capsys):
    code, _, err = run(capsys, "crt", "solve", '[{"a":1}]')
    assert code == 2
    assert '"m"' in err


def test_crt_solve_refuses_a_congruence_that_is_no_object(capsys):
    code, out, err = run(capsys, "crt", "solve", "[5]")
    assert (code, out) == (2, "")
    assert err == "error: system[0]: congruence JSON: expected an object, got 5\n"


def test_crt_solve_malformed_json(capsys):
    code, _, err = run(capsys, "crt", "solve", "[{")
    assert code == 2
    assert "JSON" in err


def test_crt_solve_takes_only_decimal_strings(capsys):
    code, out, err = run(capsys, "crt", "solve", '[{"m":"1_0","a":" 3"}]')
    assert (code, out) == (2, "")
    assert "expected an integer, got '1_0'" in err
    code, out, _ = run(capsys, "crt", "solve", '[{"m":"+10","a":"-3"}]')
    assert (code, json.loads(out)) == (0, {"M": 10, "x0": 7})


def test_crt_big_modulus_serializes_as_string(capsys):
    m = 2**60
    code, out, _ = run(capsys, "crt", "solve", json.dumps([{"m": str(m), "a": 1}]))
    assert code == 0
    assert json.loads(out) == {"M": str(m), "x0": 1}


def decimal(text):
    """int(text) for a decimal string of any length, read in chunks the interpreter's digit limit allows."""
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i : i + 1000]) + int(text[i : i + 1000])
    return value


def digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_crt_result_beyond_the_int_string_limit_prints_exactly(capsys):
    # (10^4000 + 1)(10^4000 + 3) has 8001 digits, past Python's default limit of 4300
    m1, m2 = ("1" + "0" * 3999 + last for last in "13")
    limit = digit_limit()
    code, out, err = run(capsys, "crt", "solve", json.dumps([{"m": m1, "a": 0}, {"m": m2, "a": 2}]))
    assert (code, err) == (0, "")
    # M = m1 * m2 = 10^8000 + 4 * 10^4000 + 3; x0 = m1 * (m2 - 1), which is 0 mod m1 and 2 mod m2
    gap = "0" * 3999
    assert json.loads(out) == {"M": f"1{gap}4{gap}3", "x0": f"1{gap}3{gap}2"}
    assert digit_limit() == limit  # lifted for the conversion alone
    if limit is not None:  # input keeps the limit: a 5000-digit modulus is refused, not read
        code, out, err = run(capsys, "crt", "solve", json.dumps([{"m": "1" + "0" * 4999, "a": 0}]))
        assert (code, out) == (2, "") and "expected an integer" in err


def test_crt_stream(capsys):
    code, out, _ = run(capsys, "crt", "stream", '[{"m":2,"a":0},{"m":4,"a":1}]')
    assert code == 0
    data = json.loads(out)
    assert data["states"] == [{"M": 2, "x0": 0}, {"infeasible": True}]


def test_crt_classify(capsys):
    code, out, _ = run(capsys, "crt", "classify", '{"2":[0,0,0],"3":[1,4,13]}')
    assert code == 0
    assert json.loads(out) == {
        "2": {"kind": "zero_to_depth", "depth": 3},
        "3": {"kind": "nonzero", "first_nonzero": 1},
    }


# -- geom ---------------------------------------------------------------------------


def test_geom_expand(capsys):
    code, out, _ = run(capsys, "geom", "expand", "-p", "5", "-s", "1", "-r", "2")
    assert code == 0
    assert json.loads(out)["set"] == [1, 2, 3, 4]


def test_geom_check_negative_shape(capsys):
    code, out, _ = run(capsys, "geom", "check", "-p", "5", "--set", "1,2")
    assert code == 0
    assert json.loads(out) == {"geometric": False}


def test_geom_check_positive(capsys):
    code, out, _ = run(capsys, "geom", "check", "-p", "5", "--set", "1,4")
    assert code == 0
    assert json.loads(out) == {"geometric": True, "descriptor": {"p": 5, "s": 1, "r": 4}}


def test_geom_enum(capsys):
    code, out, _ = run(capsys, "geom", "enum", "-p", "3")
    assert code == 0
    assert json.loads(out)["sets"] == [[0], [1], [1, 2], [2]]


def test_geom_witnesses_beyond_the_int_string_limit_print_exactly(capsys):
    # 11 * 2^k: the least primes = 1 and = 2 (mod 5); the last of 15000 has 4517 digits
    code, out, err = run(capsys, "geom", "witnesses", "-p", "5", "-s", "1", "-r", "2", "-n", "15000")
    assert (code, err) == (0, "")
    values = json.loads(out)["values"]
    assert len(values) == 15000 and values[:3] == [11, 22, 44]
    assert decimal(values[-1]) == 11 * 2**14999


def test_geom_errors_exit_2(capsys):
    code, _, err = run(capsys, "geom", "expand", "-p", "6", "-s", "1", "-r", "2")
    assert code == 2 and "prime" in err


# -- lattice -------------------------------------------------------------------------


def test_lattice_subcommands(capsys):
    code, out, _ = run(capsys, "lattice", "down", "12")
    assert code == 0 and json.loads(out) == {"divisors": [1, 2, 3, 4, 6, 12]}
    code, out, _ = run(capsys, "lattice", "is-antichain", "4,6,9")
    assert code == 0 and json.loads(out) == {"antichain": True}
    code, out, _ = run(capsys, "lattice", "hull", "2,8")
    assert code == 0 and json.loads(out) == {"hull": [2, 4, 8]}
    code, out, _ = run(capsys, "lattice", "omega", "12")
    assert code == 0 and json.loads(out) == {"omega": 3}
    code, out, _ = run(capsys, "lattice", "levels", "-l", "2", "--bound", "10")
    assert code == 0 and json.loads(out) == {"members": [4, 6, 9, 10]}
    code, out, _ = run(capsys, "lattice", "up", "2")
    assert code == 0
    assert json.loads(out) == {"modulus": 2, "residues": [0], "add": [], "remove": [0]}


@pytest.mark.parametrize(
    "argv, message",
    [
        # int() read "1_0" as 10 and the Arabic-Indic six as 6: modulus 30, exit 0
        (["lattice", "up", "1_0,\u0666"], "expected an integer, got '1_0'"),
        (["lattice", "up", "4,\u0666"], "expected an integer, got '\u0666'"),
        (["geom", "root", "-p", "1_1"], "expected an integer, got '1_1'"),
        (["geom", "root", "-p", " 11"], "expected an integer, got ' 11'"),
    ],
)
def test_command_line_integers_are_decimal_digits_only(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_command_line_integers_may_carry_a_sign(capsys):
    code, out, _ = run(capsys, "lattice", "down", "+12,")
    assert code == 0 and json.loads(out) == {"divisors": [1, 2, 3, 4, 6, 12]}
    code, out, _ = run(capsys, "geom", "order", "-p", "+7", "-a", "3")
    assert code == 0 and json.loads(out) == {"order": 6}


def test_lattice_omega_rejects_negative_budget(capsys):
    # the budget squared is positive, so 12 used to be taken as prime: {"omega":1}
    code, out, err = run(capsys, "lattice", "omega", "12", "--budget", "-5")
    assert code == 2 and out == "" and "trial bound" in err


def test_lattice_is_upward(capsys):
    code, out, _ = run(capsys, "lattice", "is-upward", "--set", '{"modulus":6,"residues":[0]}')
    assert code == 0 and json.loads(out) == {"upward_closed": True}
    code, _, err = run(
        capsys, "lattice", "is-upward", "--set", '{"modulus":2,"residues":[0],"add":[3]}'
    )
    assert code == 2 and "undecidable" in err


# -- antichain ------------------------------------------------------------------------


SPEC_JSON = json.dumps(
    {
        "chains": [
            {"prime": 3, "residues": [1, 4, 13, 40, 40]},
            {"prime": 5, "residues": [2, 7, 57, 57, 57]},
            {"prime": 7, "residues": [3, 3, 3, 3, 3]},
        ],
        "divisors": [2],
    }
)


def test_antichain_build_decimal_strings(capsys):
    code, out, _ = run(capsys, "antichain", "build", "--spec", SPEC_JSON, "-n", "1")
    assert code == 0
    assert json.loads(out) == ["3", "40"]


def test_antichain_build_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(SPEC_JSON)
    code, out, _ = run(capsys, "antichain", "build", "--spec", str(path), "-n", "1")
    assert code == 0
    assert json.loads(out) == ["3", "40"]


def test_unreadable_json_paths_name_their_argument(tmp_path, capsys):
    # opening a directory raised IsADirectoryError: a traceback and exit 1
    latin = tmp_path / "base.json"
    latin.write_bytes(b'[{"modulus": 2, "residues": [0]}] \xe9')
    for path in (tmp_path, latin):
        code, out, err = run(capsys, "filter", "fip", "--base", str(path))
        assert code == 2 and out == "" and err.startswith(f"error: --base: cannot read {str(path)!r}")


def test_antichain_verify(capsys):
    code, out, _ = run(capsys, "antichain", "verify", "--spec", SPEC_JSON, "--prefix", "[3,40]")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["monotone"] and report["antichain"]
    code, out, _ = run(capsys, "antichain", "verify", "--spec", SPEC_JSON, "--prefix", "[3,39]")
    report = json.loads(out)
    assert report["ok"] is False and report["antichain"] is False


def test_antichain_build_rejects_fractional_prime(capsys):
    # a prime of 3.5 used to be truncated to 3
    spec = '{"chains":[{"prime":3.5,"residues":[1,4,13]}]}'
    code, out, err = run(capsys, "antichain", "build", "--spec", spec, "-n", "1")
    assert code == 2 and out == "" and "3.5" in err


def test_antichain_depths(capsys):
    code, out, _ = run(capsys, "antichain", "depths", "--spec", SPEC_JSON)
    assert code == 0
    assert json.loads(out) == {"3": 1, "5": 1, "7": 1}


# -- filter ----------------------------------------------------------------------------


BASE_2N = '[{"modulus":2,"residues":[0]}]'


def test_filter_fip(capsys):
    code, out, _ = run(capsys, "filter", "fip", "--base", BASE_2N)
    assert code == 0 and json.loads(out) == {"fip": True}
    disjoint = '[{"modulus":2,"residues":[0]},{"modulus":2,"residues":[1]}]'
    code, out, _ = run(capsys, "filter", "fip", "--base", disjoint)
    assert code == 0 and json.loads(out) == {"fip": False}


def test_filter_residues(capsys):
    code, out, _ = run(capsys, "filter", "residues", "--base", BASE_2N, "-m", "4")
    assert code == 0 and json.loads(out) == {"residues": [0, 2]}


def test_filter_extend(capsys):
    code, out, _ = run(capsys, "filter", "extend", "--base", BASE_2N, "--set", '{"modulus":2,"residues":[1]}')
    assert code == 0 and json.loads(out) == {"inconsistent": True}


def test_filter_congruent_and_divides(capsys):
    one = '[{"modulus":4,"residues":[1]}]'
    three = '[{"modulus":4,"residues":[3]}]'
    code, out, _ = run(capsys, "filter", "congruent", "--left", one, "--right", three, "-m", "4")
    assert code == 0 and json.loads(out) == {"verdict": "not_congruent"}
    six = '[{"modulus":6,"residues":[0]}]'
    code, out, _ = run(capsys, "filter", "divides", "--left", six, "--right", one)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "fails" and data["witness"]["modulus"] == 6


def test_filter_nmax(capsys):
    code, out, _ = run(capsys, "filter", "nmax", "-m", "4", "-r", "1", "--forbid", "3", "--pool", "5,7")
    assert code == 0 and json.loads(out) == {"witness": 5}
    code, _, err = run(capsys, "filter", "nmax", "-m", "4", "-r", "2", "--pool", "5")
    assert code == 2 and "gcd" in err


# -- oracle ------------------------------------------------------------------------------


def test_oracle_run_small(capsys):
    code, out, _ = run(capsys, "oracle", "run", "crt", "--seed", "7", "--cases", "50")
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == 0 and report["cases_run"] == 50 and report["seed"] == 7


def test_oracle_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "run", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("budget", ["1_0", "\u0661", " 2 ", "nan", "inf", "-1", "1e3", ".5", "5."])
def test_oracle_budget_is_a_decimal_number_of_seconds(capsys, budget):
    # float() read "1_0" as 10 and the Arabic-Indic one as 1, "nan" turned the budget
    # off, and "-1" ran no case and exited 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "run", "crt", "--cases", "3", "--budget", budget])
    assert exc.value.code == 2
    assert "expected seconds such as 5 or 0.5" in capsys.readouterr().err


def test_oracle_budget_takes_whole_and_fractional_seconds(capsys):
    for budget in ("5", "0.5", "0", "0.0"):
        code, out, _ = run(capsys, "oracle", "run", "crt", "--cases", "3", "--budget", budget)
        assert code == 0 and json.loads(out)["cases_run"] == (0 if float(budget) == 0 else 3)
    # digits too many for a finite float are refused by the suite runner
    code, out, err = run(capsys, "oracle", "run", "crt", "--budget", "9" * 400)
    assert code == 2 and out == "" and "budget_s must be a finite number" in err


def test_oracle_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_LATTICE_SEED", "99")
    code, out, _ = run(capsys, "oracle", "run", "upward", "--cases", "20")
    assert code == 0 and json.loads(out)["seed"] == 99


# -- global behavior ------------------------------------------------------------------------


def test_outputs_byte_identical_across_runs(capsys):
    first = run(capsys, "geom", "enum", "-p", "7")
    second = run(capsys, "geom", "enum", "-p", "7")
    assert first == second
    # oracle reports are deterministic apart from wall time
    a = json.loads(run(capsys, "oracle", "run", "crt", "--seed", "3", "--cases", "40")[1])
    b = json.loads(run(capsys, "oracle", "run", "crt", "--seed", "3", "--cases", "40")[1])
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_pretty_output(capsys):
    code, out, _ = run(capsys, "--output", "pretty", "lattice", "omega", "12")
    assert code == 0 and out == '{\n  "omega": 3\n}\n'


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2


def test_a_group_without_a_command_prints_its_own_help(capsys):
    # the group's commands, not the list of groups
    assert cli.main(["crt"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: conlat crt") and "{solve,stream,classify}" in err
    assert "antichain" not in err and "GROUP" not in err


def test_dispatch_table_covers_each_operation_once():
    ops = list(DISPATCH.values())
    assert len(ops) == len(set(ops)), "an operation is reachable from two subcommands"
    groups = {group for group, _ in DISPATCH}
    assert groups == {"crt", "geom", "lattice", "antichain", "filter", "oracle"}
    required = {
        ("crt", "solve"),
        ("crt", "classify"),
        ("geom", "expand"),
        ("geom", "check"),
        ("geom", "enum"),
        ("antichain", "build"),
        ("antichain", "verify"),
        ("filter", "fip"),
        ("filter", "residues"),
        ("filter", "divides"),
        ("filter", "nmax"),
        ("oracle", "run"),
    }
    assert required <= set(DISPATCH)


def test_dispatch_targets_exist():
    import congruence_lattice

    for dotted in DISPATCH.values():
        module_name, attr = dotted.split(".")
        assert hasattr(getattr(congruence_lattice, module_name), attr), dotted
