"""Same results: the report bodies of the benchmark's ``smooth``,
``build`` and ``complete`` batteries, and of a ``flow`` battery, are
pinned, op by op.

For each op the file ``data/report_digests.json`` holds the exit code
and the SHA-256 of the report with its ``timings`` block removed
(``json.dumps(body, sort_keys=True)``), or null where no report is
printed.  The ``complete`` battery runs ``extend`` and then the four
read-only checks on each of ``generate(0..39)`` cut to its 1-skeleton
and written to a temporary file; its digests are keyed by command and
seed, not by that file's path.  The file holds as well, under
``extend_files``, the SHA-256 of each file that ``extend`` writes back
there.  The ``flow`` battery runs sweeps over several seeds and
``--start`` on interior, face and vertex points, both ways, so its
digests pin every start, limit and point, not only the limit vertices
that the benchmark's own flow check compares.  The ``input`` battery
runs ``validate``, ``build-iprime`` and ``smooth`` on instance files
that carry a fiber model with eta tags and a partition, as generated
and with epsilon 1/3, so its digests pin how a file's values are
read; ``input_errors`` holds the exit code and stderr of inputs that
the readers refuse.  A change that is meant
to leave every result alone must leave these alone too.  Where a report is meant to change, record the
digests again with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from flatforms.cli import FILE_VERSION, main
from flatforms.instances import (
    generate,
    instance_to_json,
    make_fiber_model,
    strip_to_dim,
)
from flatforms.smoothing import partition_default

DATA = Path(__file__).resolve().parent / "data" / "report_digests.json"

COMPLETE_COMMANDS = ("extend", "validate", "igusa", "holonomy", "homology")


def complete_battery(workdir: Path) -> dict:
    """Each ``complete`` op's argv, keyed by command and seed; writes the
    seed's 1-skeleton file under ``workdir``."""
    ops = {}
    for n in range(40):
        inst = generate(n)
        data = instance_to_json(inst.S, inst.L, strip_to_dim(inst.A, 1))
        data["version"] = FILE_VERSION
        path = workdir / f"complete-{n}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        for cmd in COMPLETE_COMMANDS:
            ops[f"{cmd} {n}"] = (cmd, "--instance", str(path))
    return ops


def _by_argv(argvs) -> dict:
    return {" ".join(argv): argv for argv in argvs}


# ``flow --start`` points: interior, on a face (one with a coordinate
# of 1e-13) and at a vertex, over one or several denominators
FLOW_STARTS = (
    ("1", "1/3,2/3"),
    ("2", "1/5,1/2,3/10"),
    ("3", "1/7,2/9,1/3,19/63"),
    ("3", "0,1/4,3/4,0"),
    ("4", "1/10000000000000,0,4999999999999/10000000000000,0,1/2"),
    ("2", "0,1,0"),
    ("4", "0,0,0,0,1"),
)


def flow_battery(_workdir: Path) -> dict:
    """``flow --sweep 100`` for k = 1..4 and seeds 0..2, then ``flow
    --start`` on ``FLOW_STARTS``, each forward and backward."""
    argvs = [("flow", "--k", str(k), "--sweep", "100", "--seed", str(seed))
             for k in range(1, 5) for seed in range(3)]
    argvs += [("flow", "--k", k, "--start", start) for k, start in FLOW_STARTS]
    return _by_argv(argv + way for argv in argvs
                    for way in ((), ("--backward",)))


def input_data(n: int) -> dict:
    """The file of ``generate(n)`` with the default partition and, where
    one exists, its fiber model with eta tags."""
    inst = generate(n)
    data = instance_to_json(inst.S, inst.L, inst.A)
    data["version"] = FILE_VERSION
    data["partition"] = partition_default(inst.S).to_json()
    try:
        data["fiber_model"] = make_fiber_model(inst).to_json()
    except ValueError:                 # an enriched instance has no model
        pass
    return data


def write_file(workdir: Path, name: str, data: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    return str(path)


INPUT_COMMANDS = ("validate", "build-iprime", "smooth")


def input_battery(workdir: Path) -> dict:
    """``validate``, ``build-iprime`` and ``smooth`` on the files of
    ``input_data(0..9)``, as written and with epsilon "1/3"."""
    ops = {}
    for n in range(10):
        data = input_data(n)
        paths = {"": write_file(workdir, f"input-{n}", data)}
        data["epsilon"] = "1/3"
        paths["eps 1/3 "] = write_file(workdir, f"input-eps-{n}", data)
        for tag, path in paths.items():
            for cmd in INPUT_COMMANDS:
                ops[f"{cmd} {tag}{n}"] = (cmd, "--instance", path)
    return ops


def _spoil_coefficient(data):
    data["partition"]["den"][0]["form"]["terms"][0]["coeff"] = "x"


# files that the parsers refuse: each spoils the file of input_data(0)
INPUT_FAULTS = {
    "epsilon true": lambda data: data.update(epsilon=True),
    "epsilon 1/0": lambda data: data.update(epsilon="1/0"),
    "form coefficient x": _spoil_coefficient,
}


def input_errors(workdir: Path) -> dict:
    """[exit code, stderr] of ``validate`` on each file of
    ``INPUT_FAULTS`` and of ``flow`` with a zero denominator."""
    argvs = {"flow --start 1/0,1": ("flow", "--k", "1", "--start", "1/0,1")}
    for i, (name, spoil) in enumerate(INPUT_FAULTS.items()):
        data = input_data(0)
        spoil(data)
        argvs[name] = ("validate", "--instance",
                       write_file(workdir, f"fault-{i}", data))
    out = {}
    for name, argv in argvs.items():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(list(argv))
        out[name] = [code, err.getvalue()]
    return out


BATTERIES = {
    "smooth": lambda _workdir: _by_argv(
        ("smooth", "--seed", str(n)) for n in (3, 5, 7, 8, 11)),
    "build": lambda _workdir: _by_argv(
        (cmd, "--seed", str(n)) for n in range(40)
        for cmd in ("build-aprime", "build-iprime")),
    "complete": complete_battery,
    "flow": flow_battery,
    "input": input_battery,
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


def digests(battery: str, workdir: Path) -> dict:
    """The digest of every op of ``battery``, run in battery order."""
    return {key: digest(argv)
            for key, argv in BATTERIES[battery](workdir).items()}


def extend_files(workdir: Path) -> dict:
    """The SHA-256 of each file that the ``extend`` ops of the
    ``complete`` battery write back, keyed by file name."""
    ops = complete_battery(workdir)
    for n in range(40):
        digest(ops[f"extend {n}"])
    return {f"complete-{n}.json": hashlib.sha256(
                (workdir / f"complete-{n}.json").read_bytes()).hexdigest()
            for n in range(40)}


@pytest.mark.parametrize("battery", sorted(BATTERIES))
def test_report_bodies_are_unchanged(battery, tmp_path):
    want = json.loads(DATA.read_text())[battery]
    assert digests(battery, tmp_path) == want


def test_extend_writes_the_same_files(tmp_path):
    want = json.loads(DATA.read_text())["extend_files"]
    assert extend_files(tmp_path) == want


def test_refused_inputs_give_the_same_errors(tmp_path):
    want = json.loads(DATA.read_text())["input_errors"]
    assert input_errors(tmp_path) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {b: digests(b, Path(tmp)) for b in sorted(BATTERIES)}
    with tempfile.TemporaryDirectory() as tmp:
        recorded["extend_files"] = extend_files(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        recorded["input_errors"] = input_errors(Path(tmp))
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
