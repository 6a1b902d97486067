"""Same results: the report bodies of the benchmark's ``smooth`` and
``build`` batteries are pinned, op by op.

For each op the file ``data/report_digests.json`` holds the exit code
and the SHA-256 of the report with its ``timings`` block removed
(``json.dumps(body, sort_keys=True)``), or null where no report is
printed.  A change that is meant to leave every result alone must leave
these alone too.  Where a report is meant to change, record the
digests again with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from flatforms.cli import main

DATA = Path(__file__).resolve().parent / "data" / "report_digests.json"

BATTERIES = {
    "smooth": [("smooth", "--seed", str(n)) for n in (3, 5, 7, 8, 11)],
    "build": [(cmd, "--seed", str(n)) for n in range(40)
              for cmd in ("build-aprime", "build-iprime")],
}


def digest(argv) -> list:
    """[exit code, SHA-256 of the report body or None] of one op."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if not out.getvalue().strip():
        return [code, None]
    body = {k: v for k, v in json.loads(out.getvalue()).items()
            if k != "timings"}
    text = json.dumps(body, sort_keys=True)
    return [code, hashlib.sha256(text.encode()).hexdigest()]


def digests(battery: str) -> dict:
    return {" ".join(argv): digest(argv) for argv in BATTERIES[battery]}


@pytest.mark.parametrize("battery", sorted(BATTERIES))
def test_report_bodies_are_unchanged(battery):
    want = json.loads(DATA.read_text())[battery]
    assert digests(battery) == want


if __name__ == "__main__":
    DATA.write_text(json.dumps({b: digests(b) for b in sorted(BATTERIES)},
                               indent=1, sort_keys=True) + "\n")
