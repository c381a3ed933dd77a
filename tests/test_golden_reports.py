"""Golden reports: the exact stdout and exit code of ``yperiod verify``.

`golden_reports.json` pins the JSON report of every small-batch
certificate (seed patterns, valued patterns and folds), two direct runs
with a fixed randomness seed, and a few runs past the bound.  Performance
work must leave every byte of them unchanged.

The file was written by an engine that runs every round, except the five
runs past the bound that are back at half of it up to a relabelling:
those were written by an engine that skips rounds only after an exact
return.  The three runs past an odd bound, back up to a relabelling in
the middle of a round, were written by an engine that skips rounds only
after a return at a round end.  The deletion of `verify --trace` took the
line `"trace": false,` out of each report's flags and changed nothing
else.  To rewrite it, check out a commit whose verdicts are trusted and
run

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from yperiod.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

_PATTERNS = (
    "boxtimes A1xA1 A2xA1 A3xA1 A4xA1 D4xA1 D5xA1 A2xA2 A3xA2 A2xA3 A3xA3",
    "square A2xA2 A3xA2 A3xA3 A4xA2",
    "boxtimes G2xA1 B3xA1 C3xA1",
    "fold B2xA1 B3xA1 C3xA1 F4xA1 G2xA1 B2xB2",
)
_EXTRA = (
    ("direct", "A2xA2", ["--trials", "5", "--seed", "7"]),
    ("direct", "A3xA2", ["--trials", "5", "--seed", "11"]),
    # past the bound
    ("boxtimes", "D4xA1", ["--rounds", "20"]),
    ("boxtimes", "A2xA1", ["--rounds", "12"]),
    ("square", "A2xA2", ["--rounds", "13"]),
    ("fold", "B2xA1", ["--rounds", "12"]),
    # past the bound, back up to a relabelling at half of it
    ("boxtimes", "A3xA3", ["--rounds", "13"]),
    ("square", "A3xA3", ["--rounds", "11"]),
    ("boxtimes", "D5xA1", ["--rounds", "23"]),
    ("fold", "F4xA1", ["--rounds", "17"]),
    ("fold", "B2xB2", ["--rounds", "11"]),
    # past an odd bound, back up to a relabelling in the middle of a round
    ("boxtimes", "A4xA1", ["--rounds", "16"]),
    ("square", "A3xA2", ["--rounds", "15"]),
    ("boxtimes", "D4xA2", ["--rounds", "19"]),
)


def _argvs():
    runs = [(line.split()[0], pair, []) for line in _PATTERNS for pair in line.split()[1:]]
    for system, pair, extra in runs + list(_EXTRA):
        yield ["verify", "--pair", *pair.split("x"), "--system", system,
               "--output", "json", "--big", *extra]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


def test_golden_file_covers_every_run():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == list(_argvs())
    assert len(golden) == 37


@pytest.mark.parametrize("entry", json.loads(GOLDEN.read_text()),
                         ids=lambda e: "-".join(e["argv"][2:4] + e["argv"][5:6] + e["argv"][9:]))
def test_report_is_byte_identical(entry):
    got = _run(entry["argv"])
    assert got["exit_code"] == entry["exit_code"]
    assert got["stdout"] == entry["stdout"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps([_run(a) for a in _argvs()], indent=1) + "\n")
