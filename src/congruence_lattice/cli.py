"""Command-line front end: thin JSON adapters over the library operations.

Each subcommand is one COMMANDS entry; the command-line reader and the argparse tree are built
from it.  An entry names its operation by module ("crt.solve_system"), which is imported on
dispatch.  A plain command line is read from the table alone; argparse is imported only to print
help or to refuse a command line, and only the group the command line names gets its subcommands built.

Output is deterministic: keys sorted, set-valued results sorted, integers
beyond 2^53-1 rendered as exact decimal strings of any length: Python's int-string
digit limit (4300) is lifted while a result is converted; input parsing keeps it.
Exit codes: 0 success, 1 for flagged domain negatives (e.g. --fail-on-infeasible),
2 for usage errors including malformed JSON.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from .primes import DEFAULT_TRIAL_BUDGET, json_array, json_int

JSON_INT_MAX = 2**53 - 1


def _lib(dotted):
    """The library attribute that `dotted` names ("crt.Congruence"), importing its module on first use."""
    module, attr = dotted.split(".")
    __import__(f"{__package__}.{module}")  # unlike importlib.import_module, shows in -X importtime
    return getattr(sys.modules[f"{__package__}.{module}"], attr)


def _decimal(n: int) -> str:
    """str(n) at any length; see the module docstring."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _decimal(value) if abs(value) > JSON_INT_MAX else value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(payload, pretty: bool):
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    print(json.dumps(_jsonable(payload), sort_keys=True, **layout))


def _int(text):
    """An integer argument, by `json_int`'s rule (ASCII digits, an optional sign)."""
    try:
        return json_int(text, "argument")
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _seconds(text):
    """Seconds as ASCII digits with an optional fraction (5, 0.5); `run_suite` refuses an infinite one."""
    if re.fullmatch(r"[0-9]+(\.[0-9]+)?", text):
        return float(text)
    raise ValueError(f"expected seconds such as 5 or 0.5, got {text!r}")


def _int_list(text):
    return [_int(part) for part in text.split(",") if part != ""]


def _load_json(source, what):
    """Parse inline JSON, or read it from a file path."""
    text = source
    if not source.lstrip().startswith(("[", "{", '"')) and os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"{what}: cannot read {source!r} ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: invalid JSON ({exc})") from None


def _named(what, build, data):
    """build(data), naming `what` in the message of any ValueError it raises."""
    try:
        return build(data)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _item(source, what, record):
    """The `record` ("crt.Congruence") read by its from_json from the JSON that source holds, named `what`."""
    return _named(what, _lib(record).from_json, _load_json(source, what))


def _items(source, what, record):
    """A `record` read from each item of the JSON array that source holds, naming a refused one what[i]."""
    items, read = json_array(_load_json(source, what), what), _lib(record).from_json
    return [_named(f"{what}[{i}]", read, item) for i, item in enumerate(items)]


def _filter_base(source, what):
    members = tuple(_items(source, what, "periodic_sets.PeriodicSet"))
    return _named(what, _lib("filter_lab.FilterBase"), members)


def _class_json(c):
    return {"infeasible": True} if c is None else {"M": c.modulus, "x0": c.residue}


# -- handlers that are more than one expression; each gets its operation and the arguments


def _crt_stream(stream_type, args):
    stream = stream_type()
    system = _items(args.system, "system", "crt.Congruence")
    states = [_class_json(stream.push(c)) for c in system]
    return {"states": states, "final": _class_json(stream.state)}


def _crt_classify(classify, args):
    table = _load_json(args.table, "residue chain table")
    zero_to_depth = _lib("crt.ZeroToDepth")
    return {
        p: {"kind": "zero_to_depth" if isinstance(cls, zero_to_depth) else "nonzero", **cls._asdict()}
        for p, cls in classify(table).items()
    }


def _geom_check(is_geometric, args):
    if (d := is_geometric(args.p, args.set)) is None:
        return {"geometric": False}
    return {"geometric": True, "descriptor": {"p": d.p, "s": d.seed, "r": d.ratio}}


def _geom_dlog(discrete_log, args):
    k = discrete_log(args.p, args.base, args.x)
    return {"no_solution": True} if k is None else {"k": k}


def _geom_structure(structure_check, args):
    report = structure_check(args.p, args.set)
    return {**report._asdict(), "all_hold": report.all_hold}


def _antichain_depths(depths, args):
    spec = _item(args.spec, "--spec", "antichain.AntichainSpec")
    return dict(zip(spec.chain_primes, depths(spec)))


def _antichain_verify(verify, args):
    spec = _item(args.spec, "--spec", "antichain.AntichainSpec")
    prefix = json_array(_load_json(args.prefix, "--prefix"), "--prefix")
    values = [json_int(v, f"--prefix[{i}]") for i, v in enumerate(prefix)]
    return verify(values, spec, substitution=args.substitution).to_json()


def _filter_extend(extend, args):
    extended = extend(_filter_base(args.base, "--base"), _item(args.set, "--set", "periodic_sets.PeriodicSet"))
    return {"inconsistent": True} if extended is None else {"members": [m.to_json() for m in extended.members]}


def _filter_divides(divides_check, args):
    report = divides_check(_filter_base(args.left, "--left"), _filter_base(args.right, "--right"))
    witness = {} if report.witness is None else {"witness": report.witness.to_json()}
    return {"status": report.status.value, **witness}


def _oracle_run(run_suite, args):
    seed = args.seed
    if seed is None:
        env = os.environ.get("CONGRUENCE_LATTICE_SEED")
        seed = _lib("oracles.DEFAULT_SEED") if env is None else json_int(env, "CONGRUENCE_LATTICE_SEED")
    return run_suite(args.suite, seed=seed, budget_s=args.budget, cases=args.cases)


# -- the command table ------------------------------------------------------------------


# op: "module.attr", the one library operation the subcommand exposes; args: (flags, add_argument options)
# pairs, choices given as a function read at build; run: (op, parsed arguments) -> JSON payload;
# exit_code: (parsed arguments, payload) -> exit code, 0 when None. The help is the op's first doc sentence
Command = namedtuple("Command", "group name op args run exit_code", defaults=(None,))


def _arg(*flags, **options):
    return flags, options


_P = _arg("-p", type=_int, required=True)
_M = _arg("-m", type=_int, required=True)
_R = _arg("-r", type=_int, required=True)
_S = _arg("-s", type=_int, required=True)
_SYSTEM = _arg("system", help='JSON array like [{"m":3,"a":2},{"m":5,"a":3}]')
_RESIDUES = _arg("--set", type=_int_list, required=True, help="comma-separated residues")
_ELEMENTS = _arg("elements", type=_int_list, help="comma-separated positive integers")
_N = _arg("n", type=_int)
_SET = _arg("--set", required=True, help="periodic set JSON")
_SPEC = _arg("--spec", required=True, help="spec JSON (inline or file path)")
_SUBSTITUTION = _arg("--substitution", choices=lambda: _lib("antichain.SUBSTITUTION_MODES"), default="safe")
_BASE = _arg("--base", required=True, help="JSON array of periodic sets (inline or file)")
_LEFT = _arg("--left", required=True)
_RIGHT = _arg("--right", required=True)

OUTPUTS = ("json", "pretty")
GROUPS = {
    "crt": "congruence systems",
    "geom": "geometric residue sets",
    "lattice": "divisibility order",
    "antichain": "antichain construction",
    "filter": "filter bases",
    "oracle": "brute-force comparison suites",
}

COMMANDS = (
    Command(
        "crt", "solve", "crt.solve_system",
        (_SYSTEM, _arg("--fail-on-infeasible", action="store_true")),
        lambda f, a: _class_json(f(_items(a.system, "system", "crt.Congruence"))),
        exit_code=lambda a, out: int(a.fail_on_infeasible and "infeasible" in out),
    ),
    Command("crt", "stream", "crt.FeasibilityStream", (_SYSTEM,), _crt_stream),
    Command(
        "crt", "classify", "crt.classify_prime_support",
        (_arg("table", help='JSON object like {"2":[0,0,0],"3":[1,4,13]}'),), _crt_classify,
    ),
    Command(
        "geom", "expand", "geometry.expand", (_P, _S, _R),
        lambda f, a: {
            "p": a.p, "s": a.s, "r": a.r, "set": sorted(f(_lib("geometry.GeometricDescriptor")(a.p, a.s, a.r)))
        },
    ),
    Command("geom", "check", "geometry.is_geometric", (_P, _RESIDUES), _geom_check),
    Command(
        "geom", "enum", "geometry.enumerate_geometric", (_P,),
        lambda f, a: {"p": a.p, "sets": sorted(sorted(s) for s in f(a.p))},
    ),
    Command(
        "geom", "root", "geometry.primitive_root", (_P,), lambda f, a: {"p": a.p, "primitive_root": f(a.p)}
    ),
    Command(
        "geom", "order", "geometry.multiplicative_order", (_P, _arg("-a", type=_int, required=True)),
        lambda f, a: {"order": f(a.p, a.a)},
    ),
    Command(
        "geom", "dlog", "geometry.discrete_log",
        (_P, _arg("--base", type=_int, required=True), _arg("-x", type=_int, required=True)),
        _geom_dlog,
    ),
    Command(
        "geom", "offsets", "geometry.exponent_offsets", (_P, _RESIDUES), lambda f, a: f(a.p, a.set)._asdict()
    ),
    Command("geom", "structure", "geometry.structure_check", (_P, _RESIDUES), _geom_structure),
    Command(
        "geom", "prime-in-class", "geometry.prime_in_progression", (_M, _R),
        lambda f, a: {"prime": f(a.m, a.r)},
    ),
    Command(
        "geom", "witnesses", "geometry.witness_class_set",
        (_P, _S, _R, _arg("-n", type=_int, required=True)),
        lambda f, a: {"values": f(a.p, a.s, a.r, a.n)},
    ),
    Command("lattice", "up", "lattice.up_closure", (_ELEMENTS,), lambda f, a: f(a.elements).to_json()),
    Command("lattice", "down", "lattice.down_closure", (_ELEMENTS,), lambda f, a: {"divisors": f(a.elements)}),
    Command(
        "lattice", "is-antichain", "lattice.is_antichain", (_ELEMENTS,),
        lambda f, a: {"antichain": f(a.elements)},
    ),
    Command("lattice", "is-convex", "lattice.is_convex", (_ELEMENTS,), lambda f, a: {"convex": f(a.elements)}),
    Command("lattice", "hull", "lattice.convex_hull", (_ELEMENTS,), lambda f, a: {"hull": f(a.elements)}),
    Command(
        "lattice", "omega", "lattice.omega",
        (_N, _arg(
            "--budget", type=_int, default=DEFAULT_TRIAL_BUDGET,
            help="factoring work cap: trial division up to d costs d, a rho step "
            "on a b-bit cofactor 8 + b/24; exceeding it exits 2 (default %(default)s)",
        )),
        lambda f, a: {"omega": f(a.n, trial_budget=a.budget)},
    ),
    Command(
        "lattice", "omega-bound", "lattice.omega_lower_bound",
        (_N, _arg("--primes", type=_int_list, required=True)),
        lambda f, a: {"lower_bound": f(a.n, a.primes)},
    ),
    Command(
        "lattice", "levels", "lattice.level_members",
        (_arg("-l", "--level", type=_int, required=True), _arg("--bound", type=_int, required=True)),
        lambda f, a: {"members": f(a.level, a.bound)},
    ),
    Command(
        "lattice", "is-upward", "lattice.is_upward_closed", (_SET,),
        lambda f, a: {"upward_closed": f(_item(a.set, "--set", "periodic_sets.PeriodicSet"))},
    ),
    Command("antichain", "depths", "antichain.first_nonzero_depths", (_SPEC,), _antichain_depths),
    Command(
        "antichain", "build", "antichain.build",
        (_SPEC, _arg("-n", type=_int, required=True, help="index of the last element"), _SUBSTITUTION),
        lambda f, a: [
            _decimal(v)
            for v in f(_item(a.spec, "--spec", "antichain.AntichainSpec"), a.n, substitution=a.substitution)
        ],
    ),
    Command(
        "antichain", "verify", "antichain.verify",
        (_SPEC, _arg("--prefix", required=True, help="JSON array of elements"), _SUBSTITUTION),
        _antichain_verify,
    ),
    Command(
        "filter", "fip", "filter_lab.has_fip", (_BASE,),
        lambda f, a: {"fip": f(_items(a.base, "--base", "periodic_sets.PeriodicSet"))},
    ),
    Command("filter", "extend", "filter_lab.extend", (_BASE, _SET), _filter_extend),
    Command(
        "filter", "residues", "filter_lab.feasible_residues", (_BASE, _M),
        lambda f, a: {"residues": sorted(f(_filter_base(a.base, "--base"), a.m))},
    ),
    Command(
        "filter", "congruent", "filter_lab.congruent_mod", (_LEFT, _RIGHT, _M),
        lambda f, a: {
            "verdict": f(_filter_base(a.left, "--left"), _filter_base(a.right, "--right"), a.m).value
        },
    ),
    Command("filter", "divides", "filter_lab.divides_check", (_LEFT, _RIGHT), _filter_divides),
    Command(
        "filter", "nmax", "filter_lab.nmax_witness",
        (_M, _R, _arg("--forbid", type=_int_list, default=""), _arg("--pool", type=_int_list, required=True)),
        lambda f, a: {"witness": f(a.m, a.r, a.forbid, a.pool)},
    ),
    Command(
        "oracle", "run", "oracles.run_suite",
        (
            _arg("suite", choices=lambda: sorted(_lib("oracles.SUITES"))),
            _arg("--seed", type=_int, help="defaults to $CONGRUENCE_LATTICE_SEED or 42"),
            _arg("--cases", type=_int),
            _arg("--budget", type=_seconds, help="wall-clock budget in seconds"),
        ),
        _oracle_run,
        exit_code=lambda a, report: int(report["mismatches"] > 0),
    ),
)

def _read(argv):
    """The namespace argparse builds for a plain command line, read from COMMANDS alone: [--output O]
    GROUP COMMAND, then positionals and flags, each flag spelled in full, given once, its value next.
    None for anything else (help, an abbreviation, a token or value starting with "-", an argument
    missing or left over, a failed conversion or choice), which argparse explains or refuses."""
    output = "json"
    if argv[:1] == ["--output"] and argv[1:2] and argv[1] in OUTPUTS:
        output, argv = argv[1], argv[2:]
    command = next((c for c in COMMANDS if [c.group, c.name] == argv[:2]), None)
    if command is None:
        return None
    args, texts, free, tokens = dict(command.args), {}, [], iter(argv[2:])
    named = {flag: flags for flags in args for flag in flags if flag[0] == "-"}
    for token in tokens:
        flags = named.get(token)
        if flags is None and token[:1] != "-":
            free.append(token)
            continue
        text = "" if flags and args[flags].get("action") else next(tokens, "-")  # store_true takes none
        if flags is None or flags in texts or text[:1] == "-":
            return None
        texts[flags] = text
    positionals = [flags for flags in args if flags[0][0] != "-"]
    if len(free) != len(positionals):
        return None
    texts.update(zip(positionals, free))
    namespace = SimpleNamespace(output=output, group=command.group, command=command.name, entry=command)
    for flags, options in args.items():
        value = texts.get(flags, options.get("default"))
        if options.get("action"):
            value = flags in texts
        elif flags not in texts and options.get("required"):
            return None
        elif isinstance(value, str):  # argparse converts a default given as text too
            try:
                value = options.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in options and value not in options["choices"]():
                return None
        long = [flag for flag in flags if flag[:2] == "--"]  # argparse's dest: the first long flag's, if any
        setattr(namespace, (long or flags)[0].lstrip("-").replace("-", "_"), value)
    return namespace


def _build_parser(argv):
    """Every group, with subcommands only for the first group that argv names."""
    import argparse

    def typed(convert):  # argparse prints an ArgumentTypeError's own message
        def argument(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return argument

    parser = argparse.ArgumentParser(
        prog="conlat",
        description="Exact congruence, residue-geometry, divisibility and filter-base tools",
    )
    parser.add_argument("--output", choices=OUTPUTS, default="json")
    groups = parser.add_subparsers(dest="group", metavar="GROUP")
    named = next((token for token in argv if token in GROUPS), None)
    for name, text in GROUPS.items():
        group = groups.add_parser(name, help=text)
        if name == named:
            subcommands = group.add_subparsers(dest="command")
    for command in (c for c in COMMANDS if c.group == named):
        doc = _lib(command.op).__doc__ or ""  # python -OO strips docstrings
        sub = subcommands.add_parser(command.name, help=" ".join(doc.split()).split(". ")[0].rstrip("."))
        for flags, options in command.args:
            if callable(options.get("choices")):  # read from the library only now
                options = {**options, "choices": options["choices"]()}
            if "type" in options:
                options = {**options, "type": typed(options["type"])}
            sub.add_argument(*flags, **options)
        sub.set_defaults(entry=command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        parser = _build_parser(argv)
        args = parser.parse_args(argv)
        if getattr(args, "entry", None) is None:  # no command: the help of the group named, else of conlat
            from contextlib import redirect_stdout, suppress
            with redirect_stdout(sys.stderr), suppress(SystemExit):  # argparse prints help, then exits
                parser.parse_args([args.group, "-h"] if args.group else ["-h"])
            return 2
    command = args.entry
    try:
        payload = command.run(_lib(command.op), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.output == "pretty")
    return command.exit_code(args, payload) if command.exit_code else 0


if __name__ == "__main__":
    sys.exit(main())
