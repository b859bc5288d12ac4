"""Golden `conlat` corpus: every recorded invocation reproduces its stdout
byte for byte and its exit code.

`tests/golden/conlat.json` lists argv vectors with the output they gave when
the corpus was recorded.  Oracle reports carry a wall time, which is replaced
by 0 before comparing.  To re-record after an intended behaviour change run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from congruence_lattice import cli

CORPUS = Path(__file__).parent / "golden" / "conlat.json"
DISPATCH = {(c.group, c.name): c.op for c in cli.COMMANDS}  # each subcommand's operation
_WALL_TIME = re.compile(r'("wall_time_s": ?)[0-9.e+-]+')


def replay(argv):
    """(exit code, stdout) of one in-process `conlat` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, _WALL_TIME.sub(r"\g<1>0", out.getvalue())


def _cases():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _cases(), ids=lambda case: " ".join(case["argv"])[:60])
def test_golden_invocation(case, monkeypatch):
    monkeypatch.delenv("CONGRUENCE_LATTICE_SEED", raising=False)
    assert replay(case["argv"]) == (case["code"], case["stdout"])


def test_corpus_covers_every_subcommand():
    recorded = {pair for case in _cases() for pair in zip(case["argv"], case["argv"][1:])}
    assert set(DISPATCH) <= recorded


if __name__ == "__main__":
    os.environ.pop("CONGRUENCE_LATTICE_SEED", None)
    cases = []
    for case in _cases():
        code, stdout = replay(case["argv"])
        cases.append({"argv": case["argv"], "code": code, "stdout": stdout})
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
