"""Fuzz the command-line contract: whatever the input, ``main`` exits with
0, 1 or 2, prints a JSON report on 0 and 1 and nothing on 2, and never a
traceback.

Argument errors end in argparse's ``SystemExit(2)`` with a usage line;
any other exception escaping ``main`` fails the test.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatforms.cli import main
from flatforms.instances import generate, instance_to_json

from test_cli import INSTANCE_COMMANDS, TRIANGLE

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# no decimal digits of any script, so these never parse as an integer
NOT_AN_INT = st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)

RATIONAL_TEXT = st.one_of(
    st.sampled_from(["1/0", "0/0", "-1/0", "1/-2", "", " ", "/", "1/", "/2",
                     "1//2", "nan", "inf", "-inf", "1e-3", "0.5", "1e400",
                     "0", "-0", "-1", "1", "2", "1/3", "3/2", "0x10",
                     "1_000", "½"]),
    st.text(max_size=6),
)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code in (0, 1):
        report = json.loads(out)
        assert report["status"] == ("pass" if code == 0 else "fail")
    else:
        assert out == "", (argv, out)


@FUZZ
@given(
    k=st.one_of(st.integers(-2, 5).map(str), NOT_AN_INT),
    start=st.one_of(st.none(),
                    st.lists(RATIONAL_TEXT, max_size=7).map(",".join),
                    st.lists(st.sampled_from(["0", "1", "1/2", "1/3", "1/6"]),
                             min_size=1, max_size=6).map(",".join)),
    sweep=st.one_of(st.none(), st.integers(-3, 3).map(str), NOT_AN_INT),
    seed=st.one_of(st.none(), st.integers(-3, 3).map(str), NOT_AN_INT),
    backward=st.booleans(),
)
def test_flow_arguments(k, start, sweep, seed, backward):
    argv = ["flow", "--k", k]
    if start is not None:
        argv.append(f"--start={start}")
    if sweep is not None:
        argv.append(f"--sweep={sweep}")
    if seed is not None:
        argv.append(f"--seed={seed}")
    if backward:
        argv.append("--backward")
    check_contract(argv)


INSTANCE = generate(0)
GENERATED = instance_to_json(INSTANCE.S, INSTANCE.L, INSTANCE.A)
GENERATED["version"] = 1


def rational_slots(data):
    """Setters for every rational string of the epsilon, heights and
    coefficients fields, by field."""
    slots = {"epsilon": [lambda v: data.__setitem__("epsilon", v)],
             "heights": [], "coefficients": []}
    for hv in data["heights"].values():
        slots["heights"] += [lambda v, hv=hv, vx=vx: hv.__setitem__(vx, v)
                             for vx in hv]
    for blocks in data["coefficients"].values():
        for mat in blocks.values():
            for row in mat:
                slots["coefficients"] += [
                    lambda v, row=row, j=j: row.__setitem__(j, v)
                    for j in range(len(row))]
    return slots


@FUZZ
@given(field=st.sampled_from(["epsilon", "heights", "coefficients"]),
       index=st.integers(0, 10**6), value=RATIONAL_TEXT)
def test_malformed_rationals_in_instance_files(field, index, value):
    data = json.loads(json.dumps(GENERATED))
    slots = rational_slots(data)[field]
    slots[index % len(slots)](value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(data))
        check_contract(["validate", "--instance", str(path)])


# values of the wrong type or range, and keys naming no simplex, leaf,
# block, module element or omega element of the triangle
ODD_VALUES = [None, True, 0, -1, 7, 2.5, "", "x", "1/0", [], [[0, 1]], {},
              {"x": []}]
ODD_KEYS = ["", "zz", "0", "9", "1,0", "0,3", "0,0", "zz<-a", "a<-zz", "a<-b",
            "a<-b<-c", "zz:0", "a:9", '"zz"', '["w", "zz", 0]']


def paths(x, prefix):
    """``prefix`` and the path to every value below ``x``."""
    yield prefix
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for k, v in items:
        yield from paths(v, prefix + (k,))


def mutate(data, path, kind, value, key):
    """Apply one structural change at ``path``: ``drop`` deletes the
    value, ``retype`` replaces it with ``value``, and ``rekey`` moves it
    under ``key`` in a dict, or repeats it in a list."""
    *head, last = path
    parent = data
    for k in head:
        parent = parent[k]
    if kind == "drop":
        del parent[last]
    elif kind == "retype":
        parent[last] = value
    elif isinstance(parent, dict):
        parent[key] = parent.pop(last)
    else:
        parent.insert(last, json.loads(json.dumps(parent[last])))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(section=st.sampled_from(sorted(TRIANGLE)), where=st.integers(0, 10**6),
       kind=st.sampled_from(["drop", "retype", "rekey"]),
       value=st.sampled_from(ODD_VALUES), key=st.sampled_from(ODD_KEYS))
def test_structural_faults_on_every_subcommand(section, where, kind, value,
                                               key):
    data = json.loads(json.dumps(TRIANGLE))
    found = list(paths(data[section], (section,)))
    mutate(data, found[where % len(found)], kind, value, key)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(data))
        for cmd in INSTANCE_COMMANDS:     # extend last: it writes back
            check_contract([cmd, "--instance", str(path)])
