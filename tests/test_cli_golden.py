"""Golden CLI records: every subcommand and branch, compared byte for byte.

Records are compared after dropping `timestamp` and `elapsed_ms`; table
and CSV output carries neither and is compared as printed.  Regenerate
the data file (only when a record is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sumfree.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

CASES = [
    "count --n 12",
    "count --n 12 --m 4 --oracle",
    "count --n 16 --universe 5:16",
    "count --n 12 --m 4 --distinct-only",
    "enumerate --n 7 --m 3",
    "strata --n 12 --m 4",
    "strata --n 12 --m 4 --distinct-only",
    "window --n 16 --a 2 --m 4",
    "partitions --k 30",
    "partitions --k 30 --ell 4",
    "restricted --k 30 --ell 4 --sumset-cap 8",
    "restricted --k 4 --ell 2 --ratio-table",
    "smallsumset --n 12 --m 4 --cap 12",
    "sumset --a 1,2,4",
    "sumset --a 1,2,4 --b 3:5",
    "freiman --s 3,5,7,9",
    "freiman --s 1,2,3,10",
    "bset --s 1,2,3,5 --delta 1/4",
    "janson --family '1,3|3,5|5,7' --ground 10 --draw 4",
    "pairgraph --n 12 --s 1,2",
    "pairgraph --n 12 --s 1,2 --excluded 11",
    "bounds --name CEthm --n 20 --m 5 --bigc 1",
    "bounds --name conj --cap 20 --m 5 --delta 0.5",
    "bounds --name parts --k 8 --ell 3 --count 2",
    "constant --n 20 --m 7 --count 735",
    "inequalities --kind binom --a 10 --b 4 --c 2",
    "inequalities --kind gamma --a 1 --gamma-b 1.5",
    "sample --n 12 --m 3 --count 50 --seed 7",
    "trend --n-list 12,16",
    "count --n 12 --format table",
    "count --n 12 --format csv",
    "inequalities --kind binom --a 10 --b 4 --c 2 --format table",
    "inequalities --kind binom --a 10 --b 4 --c 2 --format csv",
    # exit codes: usage errors 2 (a missing config file, a bad delta and out-of-range values included), budget refusal 3
    "count",
    "not-a-command",
    "count --n 4 --config no-such-sumfree.cfg",
    "restricted --k 200 --ell 10 --sumset-cap 25 --budget 10",
    "bset --s 1,2 --delta 1",
    "bset --s 1,2 --delta 1/0",
    "window --n 10 --a 1 --m 20",
    "sample --n 10 --m 3 --count 5 --threads 0",
    # non-finite floats are written as strings; an m outside 0..ceil(n/2) has no finite constant
    "bounds --name parts --k 0 --ell 3",
    "constant --n 10 --m 20 --count 5",
    "constant --n 10 --m -1 --count 5",
    # an empty universe holds only the empty set
    "count --n 10 --universe ''",
]


def _normalize(out: str) -> str:
    lines = []
    for line in out.splitlines(keepends=True):
        if line.startswith('{"elapsed_ms": '):  # a record; keys are sorted
            rec = json.loads(line)
            rec.pop("timestamp")
            rec.pop("elapsed_ms")
            line = json.dumps(rec, sort_keys=True) + "\n"
        lines.append(line)
    return "".join(lines)


def _run(case: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(shlex.split(case))
    return {"code": code, "stdout": _normalize(out.getvalue())}


def test_golden_covers_every_case():
    assert list(json.loads(DATA.read_text())) == CASES


@pytest.mark.parametrize("case", CASES)
def test_golden_record(case):
    assert _run(case) == json.loads(DATA.read_text())[case]


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def test_records_are_strict_json():
    golden = json.loads(DATA.read_text(), parse_constant=_refuse)
    lines = [line for case in CASES for line in golden[case]["stdout"].splitlines() if line.startswith('{"op": ')]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(shlex.split("bounds --name parts --k 0 --ell 3")) == 0
    lines.append(out.getvalue())
    for line in lines:
        json.loads(line, parse_constant=_refuse)
    assert json.loads(lines[-1])["result"]["log"] == "-inf"


if __name__ == "__main__":
    DATA.write_text(json.dumps({case: _run(case) for case in CASES}, indent=1) + "\n")
