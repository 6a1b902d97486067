import argparse
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from flatforms import cli, forms, mixed, smoothing
from flatforms.cli import main, save_instance
from flatforms.flatsys import FiberModel, fiber_homology, quasi_iso_ranks
from flatforms.forms import _BOUND, ExponentOverflow
from flatforms.instances import (
    corrupt_random_entry,
    designed_instance,
    generate,
    instance_to_json,
    make_fiber_model,
    strip_to_dim,
)
from flatforms.linalg import qreader, smat_set
from flatforms.mixed import build_mixed_connection
from flatforms.smoothing import partition_default, partition_linear
from flatforms.wkflow import SCHEDULE, classify_limits

from test_mixed import worked_edge, worked_edge_fiber
from test_wkflow import point


# a two-leaf edge written out by hand, the smallest interesting file
EDGE2 = {
    "version": 1,
    "complex": [[0, 1]],
    "leaves": [["p", 0, 1], ["q", 1, 1]],
    "epsilon": "1",
    "heights": {"p": {"0": "0", "1": "0"}, "q": {"0": "3", "1": "3"}},
    "coefficients": {"0": {"q<-p": [["1"]]},
                     "1": {"q<-p": [["1"]]},
                     "0,1": {}},
}


# a designed triangle with every optional section, on which each
# subcommand takes well under 0.1 s
_TRI = designed_instance(0, [(0, 1, 2)])
TRIANGLE = instance_to_json(_TRI.S, _TRI.L, _TRI.A)
TRIANGLE["version"] = 1
TRIANGLE["fiber_model"] = make_fiber_model(_TRI).to_json()
TRIANGLE["partition"] = partition_default(_TRI.S).to_json()
TRIANGLE_1SKELETON = instance_to_json(_TRI.S, _TRI.L,
                                      strip_to_dim(_TRI.A, 1))["coefficients"]
W_A0 = '["w", "a", 0]'
INSTANCE_COMMANDS = ("validate", "build-aprime", "build-iprime", "smooth",
                     "igusa", "holonomy", "homology", "extend")


def triangle_file(tmp_path, change=None):
    data = json.loads(json.dumps(TRIANGLE))
    if change is not None:
        change(data)
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else None


def edge_file(tmp_path, with_fiber=True, partition=None):
    A = worked_edge()
    data = instance_to_json(A.S, A.L, A)
    data["version"] = 1
    if with_fiber:
        data["fiber_model"] = worked_edge_fiber().to_json()
    if partition is not None:
        data["partition"] = partition(A.S).to_json()
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    return path


def test_flow_interior_start_reaches_top_vertex(capsys):
    code, rep = run(capsys, "flow", "--k", "2", "--start", "1/3,1/3,1/3")
    assert code == 0
    t = rep["checks"]["trajectory"]
    assert t["limit_vertex"] == 2
    assert t["height_monotone"] is True
    assert len(t["points"]) == len(t["times"])


def test_flow_backward_reaches_bottom_vertex(capsys):
    code, rep = run(capsys, "flow", "--k", "2", "--start", "1/3,1/3,1/3",
                    "--backward")
    assert code == 0
    assert rep["checks"]["trajectory"]["limit_vertex"] == 0


@pytest.mark.parametrize("start, backward, vertex", [
    ("1/2,4999999999999/10000000000000,1/10000000000000", False, 2),
    ("1/10000000000000,4999999999999/10000000000000,1/2", True, 0),
], ids=["forward", "backward"])
def test_flow_expects_the_vertex_of_the_exact_support(capsys, start,
                                                      backward, vertex):
    # a coordinate of 1e-13 is in the support: the flow leaves through it
    code, rep = run(capsys, "flow", "--k", "2", "--start", start,
                    *(["--backward"] if backward else []))
    t = rep["checks"]["trajectory"]
    assert (t["expected_vertex"], t["limit_vertex"]) == (vertex, vertex)
    assert code == 0


def test_flow_rejects_non_barycentric_start(capsys):
    assert main(["flow", "--k", "2", "--start", "1/2,1/2,1/2"]) == 2


def test_flow_sweep_is_deterministic(capsys):
    code, rep1 = run(capsys, "flow", "--k", "3", "--sweep", "4", "--seed", "9")
    assert code == 0
    code, rep2 = run(capsys, "flow", "--k", "3", "--sweep", "4", "--seed", "9")
    assert code == 0
    assert rep1["checks"] == rep2["checks"]
    assert all(r["limit_vertex"] == 3 for r in rep1["checks"]["runs"])


@pytest.mark.parametrize("argv", [
    ("--k", "2", "--start", "1/0,0,1"),
    ("--k", "2", "--sweep", "-1"),
    ("--k", "2", "--start", "1/3,1/3,1/3", "--sweep", "3"),
    ("--k", "2", "--start", "1/3,1/3,1/3", "--sweep", "0"),
], ids=["zero-denominator", "negative-sweep", "start-and-sweep",
        "start-and-empty-sweep"])
def test_flow_input_errors(capsys, argv):
    assert main(["flow", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error")


def test_flow_zero_sweep_names_its_fault(capsys):
    assert main(["flow", "--k", "2", "--sweep", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --sweep must be at least 1\n"


def test_flow_negative_seed_names_its_fault(capsys):
    assert main(["flow", "--k", "2", "--sweep", "2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: --seed must be nonnegative\n"


def test_flow_start_ignores_the_seed(capsys):
    """Only a sweep draws from the seed, so ``--start`` runs whatever
    ``--seed`` says."""
    code, rep = run(capsys, "flow", "--k", "2", "--start", "1/2,1/2,0",
                    "--seed", "-1")
    assert code == 0
    assert rep["checks"]["trajectory"]["limit_vertex"] == 1


def test_every_sweep_start_reruns_under_start(capsys):
    """A sweep start is an exact barycentric point, so ``--start`` takes
    it as printed and its flow ends at the same vertex."""
    code, rep = run(capsys, "flow", "--k", "3", "--sweep", "20", "--seed", "1")
    assert code == 0
    runs = rep["checks"]["runs"]
    assert len(runs) == 20
    for r in runs:
        code, again = run(capsys, "flow", "--k", "3",
                          "--start", ",".join(r["start"]))
        assert code == 0
        t = again["checks"]["trajectory"]
        assert t["start"] == r["start"]
        assert (t["expected_vertex"], t["limit_vertex"]) == \
            (r["expected_vertex"], r["limit_vertex"]) == (3, 3)


@pytest.mark.parametrize("k", range(1, 5))
def test_every_sweep_limit_is_the_vertex_of_its_start(capsys, k):
    """Over seeds 0..9 and both directions, the limit vertex of every
    sweep run is the one the support of its start names."""
    for seed in range(10):
        for backward in (False, True):
            code, rep = run(capsys, "flow", "--k", str(k), "--sweep", "100",
                            "--seed", str(seed),
                            *(["--backward"] if backward else []))
            assert code == 0 and len(rep["checks"]["runs"]) == 100
            for r in rep["checks"]["runs"]:
                back, fwd = classify_limits(point(r["start"]))
                assert r["converged"] is True
                assert r["limit_vertex"] == (back if backward else fwd)
                assert r["height_monotone"] is True


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
def test_flow_on_a_face_stays_on_it(capsys, backward):
    code, rep = run(capsys, "flow", "--k", "3", "--start", "0,1/4,3/4,0",
                    *(["--backward"] if backward else []))
    assert code == 0
    t = rep["checks"]["trajectory"]
    assert t["limit"] == (["0", "1", "0", "0"] if backward
                          else ["0", "0", "1", "0"])
    assert t["limit_vertex"] == t["expected_vertex"] == (1 if backward else 2)
    assert len(t["points"]) == len(t["times"]) == SCHEDULE + 1
    assert all(p[0] == p[3] == "0" and Q(p[1]) > 0 and Q(p[2]) > 0
               for p in t["points"])
    assert t["height_monotone"] is True


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
def test_flow_from_a_vertex_is_constant(capsys, backward):
    code, rep = run(capsys, "flow", "--k", "2", "--start", "0,1,0",
                    *(["--backward"] if backward else []))
    assert code == 0
    t = rep["checks"]["trajectory"]
    assert t["points"] == [["0", "1", "0"]] * (SCHEDULE + 1)
    assert t["limit"] == ["0", "1", "0"] and t["limit_vertex"] == 1
    assert t["height_monotone"] is True


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_builds_no_parser():
    # checked in a fresh interpreter, since this one has built it
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import flatforms.cli as c; "
         "print(c.build_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_shared_parser_keeps_no_state_between_calls(capsys):
    code, rep = run(capsys, "flow", "--k", "2", "--sweep", "1", "--backward")
    assert code == 0
    assert rep["checks"]["runs"][0]["backward"] is True
    # a usage error after --backward was already taken
    with pytest.raises(SystemExit) as ex:
        main(["flow", "--backward", "--k", "two", "--sweep", "1"])
    assert ex.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, rep = run(capsys, "flow", "--k", "2", "--sweep", "1")
    assert code == 0
    assert rep["checks"]["runs"][0]["backward"] is False


def test_zero_denominator_in_instance_is_input_error(capsys, tmp_path):
    bad = json.loads(json.dumps(EDGE2))
    bad["epsilon"] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error")
    assert "zero denominator" in captured.err


# one edge on which b and c swap heights, so a, b, c and d precede one
# another in mutual pairs
CROSSING = {
    "version": 1,
    "complex": [[0, 1]],
    "leaves": [["a", 0, 1], ["b", 0, 1], ["c", 0, 1], ["d", 0, 1]],
    "epsilon": "1",
    "heights": {"a": {"0": "0", "1": "0"}, "b": {"0": "3", "1": "-3"},
                "c": {"0": "-3", "1": "3"}, "d": {"0": "0", "1": "0"}},
}


def test_validate_report_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(CROSSING))
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "flatforms.cli", "validate",
             "--instance", str(path)],
            env=env, capture_output=True, text=True)
        assert out.returncode == 1, out.stderr
        report = json.loads(out.stdout)
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    mutual = [c for c in reports[0]["certificates"] if "each other" in c]
    assert mutual == [f"{x} and {y} precede each other on (0, 1)"
                      for x, y in ("ab", "ac", "bc", "bd", "cd")]


def test_validate_two_leaf_edge(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(EDGE2))
    code, rep = run(capsys, "validate", "--instance", str(path))
    assert code == 0
    assert rep["status"] == "pass"


def test_validate_names_forbidden_block(capsys, tmp_path):
    bad = json.loads(json.dumps(EDGE2))
    bad["coefficients"]["0"]["p<-q"] = [["1"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, rep = run(capsys, "validate", "--instance", str(path))
    assert code == 1
    assert any("forbidden block p<-q" in c for c in rep["certificates"])


def test_version_field_required(capsys, tmp_path):
    nover = {k: v for k, v in EDGE2.items() if k != "version"}
    path = tmp_path / "nover.json"
    path.write_text(json.dumps(nover))
    assert main(["validate", "--instance", str(path)]) == 2


def test_missing_file_is_input_error(capsys, tmp_path):
    assert main(["validate", "--instance", str(tmp_path / "nope.json")]) == 2


def test_extend_writes_back_completed_file(capsys, tmp_path):
    A = worked_edge()
    data = instance_to_json(A.S, A.L, A)
    data["version"] = 1
    original_edge = data["coefficients"]["0,1"]
    del data["coefficients"]["0,1"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))

    code, rep = run(capsys, "validate", "--instance", str(path))
    assert code == 1  # incomplete

    code, rep = run(capsys, "extend", "--instance", str(path))
    assert code == 0
    assert rep["checks"]["filled"] == ["0,1"]
    assert rep["checks"]["written"] is True

    completed = json.loads(path.read_text())
    assert completed["coefficients"]["0,1"] == original_edge
    assert main(["validate", "--instance", str(path)]) == 0


def test_extend_requires_a_file(capsys):
    assert main(["extend", "--seed", "3"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["extend", "--to-dim", "1"], "--to-dim"),
    (["build-aprime", "--seed", "7", "--max-degree", "0"], "--max-degree"),
])
def test_retired_flags_are_usage_errors(capsys, tmp_path, argv, flag):
    """``extend`` completes every dimension and the builds raise the
    ansatz degree to the module ceiling: neither takes a setting."""
    path = triangle_file(tmp_path, lambda d: d.update(
        coefficients=TRIANGLE_1SKELETON))
    before = path.read_text()
    if argv[0] == "extend":
        argv = argv[:1] + ["--instance", str(path)] + argv[1:]
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert "Traceback" not in captured.err
    assert path.read_text() == before


def _long_flags(parser):
    return {opt for action in parser._actions for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"}


def test_readme_names_the_parser_flags():
    """The README's "Command line" section names each long flag that
    some command accepts, and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    accepted = _long_flags(parser).union(
        *(_long_flags(p) for p in commands.values()))
    assert documented == accepted


def test_pipeline_on_generated_instance(capsys):
    for cmd in ("validate", "build-aprime", "build-iprime",
                "igusa", "holonomy", "homology"):
        code, rep = run(capsys, cmd, "--seed", "5")
        assert code == 0, (cmd, rep["certificates"])


def test_smooth_default_partition(capsys, tmp_path):
    path = edge_file(tmp_path)
    code, rep = run(capsys, "smooth", "--instance", str(path))
    assert code == 0
    assert rep["checks"]["partition"] == "default"
    assert rep["checks"]["flat"] == "ok"
    assert rep["checks"]["chain"] == "ok"


def test_smooth_validates_the_fiber_model_first(capsys, tmp_path):
    path = edge_file(tmp_path)
    data = json.loads(path.read_text())
    data["fiber_model"]["I"]["1"]["r:0"]["u"] = "2"
    path.write_text(json.dumps(data))
    code, rep = run(capsys, "smooth", "--instance", str(path))
    assert code == 1
    assert "comparison relation fails over (1,)" in rep["certificates"]
    assert rep["checks"]["fiber_model"] == rep["certificates"]


@pytest.mark.parametrize("with_fiber", [False, True],
                         ids=["no-fiber-model", "fiber-model"])
def test_every_build_stops_on_an_invalid_system(capsys, tmp_path, with_fiber):
    # a(0,1) gains an entry in a block its degree forbids; the builds
    # and checks stop under "system" as validate fails, before any fiber
    # model check
    path = edge_file(tmp_path, with_fiber=with_fiber)
    data = json.loads(path.read_text())
    data["coefficients"]["0,1"]["q<-p"] = [["5"]]
    path.write_text(json.dumps(data))
    witness = ["(0, 1): entry in forbidden block q<-p (degree 1, need 0)"]
    commands = ["validate", "build-aprime", "smooth", "igusa", "holonomy",
                "homology"]
    if with_fiber:
        commands.append("build-iprime")
    for cmd in commands:
        code, rep = run(capsys, cmd, "--instance", str(path))
        assert code == 1, cmd
        assert rep["certificates"] == rep["checks"]["system"] == witness, cmd
        if cmd != "validate":
            assert list(rep["checks"]) == ["system"], cmd


@pytest.mark.parametrize("epsilon", ["0", "1/1000"])
def test_every_build_stops_on_a_leaf_system_validate_refuses(
        capsys, tmp_path, epsilon):
    """The file of generate(0) with an epsilon that is not positive, or
    so small that the heights oscillate past epsilon^2 / 2: ``extend``,
    ``build-aprime``, ``build-iprime`` and ``smooth`` stop under
    ``leaves`` with the list ``validate`` gives, and ``extend`` writes
    nothing back."""
    inst = generate(0)
    data = instance_to_json(inst.S, inst.L, inst.A)
    data.update(version=1, epsilon=epsilon,
                fiber_model=make_fiber_model(inst).to_json())
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(data))
    code, rep = run(capsys, "validate", "--instance", str(path))
    assert code == 1
    witness = rep["checks"]["leaves"]
    assert witness and isinstance(witness, list)
    for cmd in ("build-aprime", "build-iprime", "smooth"):
        code, rep = run(capsys, cmd, "--instance", str(path))
        assert code == 1, cmd
        assert rep["checks"] == {"leaves": witness}, cmd
        assert rep["certificates"] == witness, cmd
    data["coefficients"] = instance_to_json(
        inst.S, inst.L, strip_to_dim(inst.A, 1))["coefficients"]
    del data["fiber_model"]
    path.write_text(json.dumps(data))
    before = path.read_bytes()
    code, rep = run(capsys, "extend", "--instance", str(path))
    assert code == 1
    assert rep["checks"] == {"leaves": witness}
    assert path.read_bytes() == before


def test_smooth_certifies_build_problems(capsys, tmp_path, monkeypatch):
    def build(A):
        data = build_mixed_connection(A)
        data.problems.append("0,1: planted")
        return data
    monkeypatch.setattr(mixed, "build_mixed_connection", build)
    code, rep = run(capsys, "smooth", "--instance", str(edge_file(tmp_path)))
    assert code == 1
    assert rep["certificates"] == rep["checks"]["problems"] == ["0,1: planted"]


def test_build_iprime_certifies_connection_problems(capsys, tmp_path,
                                                   monkeypatch):
    """A problem of the a' build under build-iprime fails the command
    with its certificate, as it does under smooth."""
    def build(A):
        data = build_mixed_connection(A)
        data.problems.append("0,1: planted")
        return data
    monkeypatch.setattr(mixed, "build_mixed_connection", build)
    code, rep = run(capsys, "build-iprime", "--instance",
                    str(edge_file(tmp_path)))
    assert code == 1
    assert rep["certificates"] == rep["checks"]["problems"] == ["0,1: planted"]
    assert rep["checks"]["locality"] == "ok"


def test_smooth_reports_linear_partition_failure(capsys, tmp_path):
    path = edge_file(tmp_path, partition=partition_linear)
    code, rep = run(capsys, "smooth", "--instance", str(path))
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["checks"]["partition"] == "from file"
    assert rep["checks"]["first_order"] != "ok"


def power_partition_file(tmp_path, e):
    """The worked edge with phi_1 = (x1 + x1^e) / (1 + x1^e) over the
    edge, which is 2/2 at vertex 1."""
    path = edge_file(tmp_path, partition=partition_linear)
    data = json.loads(path.read_text())
    P = data["partition"]
    for item in (P["den"][1], P["num"][2]):
        item["form"]["terms"].append({"mono": {"1": e}, "dx": [],
                                      "coeff": "1"})
    for item in (P["den"][2], P["num"][3]):
        item["form"]["terms"][0]["coeff"] = "2"
    path.write_text(json.dumps(data))
    return path


def test_a_form_exponent_past_the_layout_is_an_input_error(capsys,
                                                           tmp_path):
    path = power_partition_file(tmp_path, _BOUND)
    for cmd in INSTANCE_COMMANDS:
        assert main([cmd, "--instance", str(path)]) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: malformed instance file")
        assert f"x1^{_BOUND} on the 1-chart: exponents stay below {_BOUND}" \
            in captured.err


def test_a_product_past_the_layout_fails_with_its_message(capsys, tmp_path,
                                                          monkeypatch):
    """(1 + x1^e) d(x1 + x1^e) needs x1^(2e - 1), past the bound for
    e = _BOUND - 1: the partition check stops with that message, and a
    smoothing walk that overflows stops the same way."""
    message = f"x1^{2 * _BOUND - 3} on the 1-chart: exponents stay below " \
        f"{_BOUND}"
    path = power_partition_file(tmp_path, _BOUND - 1)
    code, rep = run(capsys, "validate", "--instance", str(path))
    assert code == 1
    assert rep["certificates"] == [message]
    assert rep["checks"]["partition"] == message
    code, rep = run(capsys, "smooth", "--instance", str(path))
    assert code == 1
    assert rep["certificates"] == [message]
    assert rep["checks"]["partition_valid"] == message

    def verify(data, P, cm):
        raise ExponentOverflow("planted")
    monkeypatch.setattr(smoothing, "verify_smoothing", verify)
    code, rep = run(capsys, "smooth", "--instance", str(edge_file(tmp_path)))
    assert code == 1
    assert rep["certificates"] == [rep["checks"]["smoothing"]] == ["planted"]


def test_homology_with_fiber_model(capsys, tmp_path):
    path = edge_file(tmp_path)
    code, rep = run(capsys, "homology", "--instance", str(path))
    assert code == 0
    assert rep["checks"]["quasi_iso"] == "ok"
    assert rep["checks"]["omega_betti"] == {"0": 1, "1": 0}


def test_report_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, rep = run(capsys, "igusa", "--seed", "2", "--report", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == rep


def test_fiber_model_json_round_trip():
    FM = worked_edge_fiber()
    FM2 = FiberModel.from_json(FM.to_json(), worked_edge(), qreader())
    assert FM2.omega_basis == FM.omega_basis
    assert FM2.omega_degree == FM.omega_degree
    assert FM2.D == FM.D
    assert FM2.I == FM.I
    assert FM2.eta == FM.eta


@pytest.mark.parametrize("change", [
    lambda d: d["fiber_model"]["I"]["0"]["a:0"].update({'["w", "a", 1]': "0"}),
    lambda d: d["fiber_model"]["D"].update({W_A0: {'["w", "e", 1]': "0"}}),
], ids=["I-entry", "D-entry"])
def test_zero_model_entries_are_left_out(capsys, tmp_path, change):
    """A fiber-model entry written as "0" is no entry, as in every SMat:
    the reports equal those of the file without it."""
    for cmd in ("validate", "homology", "build-iprime", "smooth"):
        reports = []
        for ch in (None, change):
            code, rep = run(capsys, cmd, "--instance",
                            str(triangle_file(tmp_path, ch)))
            assert code == 0, (cmd, rep["certificates"])
            del rep["timings"]
            reports.append(rep)
        assert reports[0] == reports[1], cmd


def test_generated_fiber_model_file_matches_seed(capsys, tmp_path):
    # generated fiber models name omega elements by tuples; written out
    # and read back they must give the build report of --seed
    path = tmp_path / "inst.json"
    for seed in range(40):
        inst = generate(seed)
        if inst.enriched:
            continue
        FM = make_fiber_model(inst)
        save_instance(path, inst.S, inst.L, inst.A,
                      {"fiber_model": FM.to_json()})
        reports = []
        for source in (("--instance", str(path)), ("--seed", str(seed))):
            code, rep = run(capsys, "build-iprime", *source)
            assert code == 0, (seed, rep["certificates"])
            del rep["timings"]
            reports.append(rep)
        assert reports[0] == reports[1], seed


@pytest.mark.parametrize("seed", [26, 32])
def test_enriched_seed_says_why_it_has_no_fiber_model(capsys, seed):
    assert main(["build-iprime", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "input error: no fiber model: instance was enriched away from its "
        "gauge; no model available")


def test_build_failure_is_a_certificate_not_a_traceback(capsys, monkeypatch):
    # a ceiling of d0 + k - 1 stops the first edge of the seed-7 data at
    # degree 0, where no extension exists
    monkeypatch.setattr(forms, "EXTENSION_HEADROOM", -1)
    code, rep = run(capsys, "build-aprime", "--seed", "7")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["certificates"] == [rep["checks"]["build"]]
    assert "no degree <= 0 extension" in rep["checks"]["build"]


def test_corrupted_build_names_the_simplex(capsys, tmp_path):
    inst = generate(3, max_dim=2, need_triangle=True)
    bad, _desc = corrupt_random_entry(random.Random(3), inst.A)
    data = instance_to_json(inst.S, inst.L, bad)
    data["version"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, rep = run(capsys, "build-aprime", "--instance", str(path))
    assert code == 1
    assert any("(0, 2, 3)" in c for c in rep["certificates"])


@pytest.mark.parametrize("seed, simplex, row, col, value, command, witness", [
    # the cellular boundary no longer squares to zero
    (1, (0,), ("b", 0), ("a", 0), 2, "homology",
     "boundary does not square to zero, e.g. on generator ((0, 1), ('b', 0))"),
    # a vertex differential no longer squares to zero, so its fiber has
    # no homology to transport
    (3, (1,), ("b", 2), ("e", 1), 1, "holonomy",
     "vertex differential at (1,) does not square to zero"),
    (11, (0,), ("c", 0), ("b", 0), 2, "holonomy",
     "vertex differential at (0,) does not square to zero"),
    # an edge transport is no longer a chain map
    (0, (2,), ("b", 1), ("a", 0), 0, "holonomy",
     "holonomy around (1, 2, 5): transport along (1, 2): "
     "image of a cycle is not a cycle mod boundaries"),
    # the fibers' homology ranks differ
    (5, (3,), ("b", 0), ("a", 0), -1, "holonomy",
     "holonomy around (0, 2, 3): transport along (0, 3) is not invertible "
     "on homology"),
], ids=["homology-1", "holonomy-3", "holonomy-11", "holonomy-0",
        "holonomy-5"])
def test_non_flat_file_gives_a_certificate(capsys, tmp_path, seed, simplex,
                                           row, col, value, command, witness):
    inst = generate(seed)
    smat_set(inst.A.coeffs[simplex], row, col, value)
    data = instance_to_json(inst.S, inst.L, inst.A)
    data["version"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, rep = run(capsys, command, "--instance", str(path))
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["certificates"][0] == witness


def test_holonomy_refuses_a_vertex_differential_that_does_not_square(
        capsys, tmp_path):
    """Two entries on a((1,)) make a(v)^2 nonzero while each transport
    still looks like the identity on what would be homology: holonomy
    refuses the fiber, as validate does, instead of passing it."""
    inst = generate(113, max_dim=2, need_triangle=True, enrich=False)
    a = inst.A.coeffs[(1,)]
    for row, col in ((("c", 0), ("b", 2)), (("b", 2), ("a", 0))):
        smat_set(a, row, col, a.get(row, {}).get(col, 0) + 1)
    path = tmp_path / "bad.json"
    save_instance(path, inst.S, inst.L, inst.A)
    witness = "vertex differential at (1,) does not square to zero"
    code, rep = run(capsys, "validate", "--instance", str(path))
    assert code == 1 and witness in rep["checks"]["system"]
    code, rep = run(capsys, "holonomy", "--instance", str(path))
    assert code == 1
    assert rep["checks"] == {"system": witness}
    assert rep["certificates"] == [witness]


def test_homology_refuses_a_fiber_model_whose_D_does_not_square(
        capsys, tmp_path):
    """Two entries on D make D^2 nonzero with the Betti numbers of
    (Omega, D) still equal to the fibers': homology stops the comparison
    with a certificate instead of reporting it ok."""
    inst = generate(3)
    FM = make_fiber_model(inst)
    for row, col in (((("w", "c", 0), ("w", "b", 0))),
                     ((("w", "b", 0), ("w", "a", 0)))):
        smat_set(FM.D, row, col, FM.D.get(row, {}).get(col, 0) + 1)
    path = tmp_path / "bad.json"
    save_instance(path, inst.S, inst.L, inst.A,
                  {"fiber_model": FM.to_json()})
    code, rep = run(capsys, "homology", "--instance", str(path))
    assert code == 1
    assert rep["checks"]["quasi_iso"] == "D does not square to zero"
    assert rep["certificates"] == ["D does not square to zero"]
    assert "omega_betti" not in rep["checks"]


def test_homology_refuses_a_D_entry_off_degree(capsys, tmp_path):
    """An entry of D between two elements of degree 1 is not of degree
    +1: homology refuses it by name, as validate does, instead of
    computing the Betti numbers of D with the entry left out."""
    inst = generate(3)
    FM = make_fiber_model(inst)
    smat_set(FM.D, ("w", "a", 0), ("w", "e", 0), 5)
    path = tmp_path / "bad.json"
    save_instance(path, inst.S, inst.L, inst.A,
                  {"fiber_model": FM.to_json()})
    witness = "D entry ('w', 'a', 0)<-('w', 'e', 0) is not of degree +1"
    code, rep = run(capsys, "homology", "--instance", str(path))
    assert code == 1
    assert rep["checks"]["quasi_iso"] == witness
    assert rep["certificates"] == [witness]
    assert "omega_betti" not in rep["checks"]
    code, rep = run(capsys, "validate", "--instance", str(path))
    assert code == 1
    assert witness in rep["certificates"]


def test_betti_numbers_are_listed_by_ascending_degree(capsys):
    """Every Betti table of ``homology`` lists its degrees in ascending
    order, the fibers' included; so does the certificate of a fiber
    whose Betti numbers differ from (Omega, D)."""
    code, rep = run(capsys, "homology", "--seed", "0")
    assert code == 0
    tables = [rep["checks"]["cw_betti"], rep["checks"]["omega_betti"],
              *rep["checks"]["fiber_betti"].values()]
    assert list(rep["checks"]["fiber_betti"]["0"]) == ["0", "2", "3"]
    for table in tables:
        assert list(table) == sorted(table, key=int)
    inst = generate(0)
    FM = make_fiber_model(inst)
    FM.omega_basis.append("x")
    FM.omega_degree["x"] = 1
    H = {v: fiber_homology(inst.A, v) for v in inst.S.vertices()}
    problems = quasi_iso_ranks(inst.A, FM, H)["problems"]
    assert problems[0] == (
        "Betti numbers over (0,) differ from the fiber complex: "
        "{0: 2, 2: 1, 3: 3} vs {0: 2, 1: 1, 2: 1, 3: 3}")


def test_holonomy_and_quasi_iso_share_one_verdict(capsys, tmp_path):
    inst = generate(3, max_dim=2, need_triangle=True)
    bad, desc = corrupt_random_entry(random.Random(23), inst.A)
    assert desc["sigma"] == (1, 3)
    data = instance_to_json(inst.S, inst.L, bad)
    data["version"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, rep = run(capsys, "holonomy", "--instance", str(path))
    assert code == 1
    assert rep["certificates"] == [
        "holonomy around (0, 1, 3) is not the identity",
        "holonomy around (1, 2, 3) is not the identity"]
    H = {v: fiber_homology(bad, v) for v in bad.S.vertices()}
    quasi = quasi_iso_ranks(bad, make_fiber_model(inst), H)
    assert quasi["problems"] == rep["certificates"]


def test_holonomy_without_an_edge_coefficient_fails_the_system(capsys,
                                                                tmp_path):
    """The file has every vertex but lacks the coefficient of edge
    (0, 1): holonomy stops on the missing datum, as the system check,
    and reports no triangle, not a holonomy problem of (0, 1, 2)."""
    path = triangle_file(tmp_path, lambda d: d["coefficients"].pop("0,1"))
    code, rep = run(capsys, "holonomy", "--instance", str(path))
    assert code == 1
    assert rep["checks"] == {"system": "no coefficient stored for (0, 1)"}
    assert rep["certificates"] == ["no coefficient stored for (0, 1)"]


def test_triangle_passes_every_subcommand(capsys, tmp_path):
    for cmd in INSTANCE_COMMANDS:
        code, rep = run(capsys, cmd, "--instance", str(triangle_file(tmp_path)))
        assert code == 0, (cmd, rep["certificates"])



@pytest.mark.parametrize("change, witness", [
    (lambda d: d["complex"].append([2, 1]),
     "vertices not strictly increasing: (2, 1)"),
    (lambda d: d["complex"].append([0, 1]), "simplex listed twice: (0, 1)"),
    (lambda d: d["complex"].append(["0", 1]),
     "vertex ids must be ints, got '0'"),
    (lambda d: d["heights"].update(zz={"0": "0"}),
     "heights name undeclared leaf 'zz'"),
    (lambda d: d["heights"]["a"].pop("1"),
     "no height for leaf 'a' at vertex 1"),
    (lambda d: d["coefficients"].update({"0,3": {}}),
     "(0, 3) is not in the complex"),
    (lambda d: d["coefficients"]["0,1,2"].update({"zz<-a": [["1", "0", "0"]]}),
     "block zz<-a on (0, 1, 2) names an undeclared leaf"),
    (lambda d: d["coefficients"]["0"].update({"b<-a": [["-1", "0"]]}),
     "block b<-a on (0,) is not 1x3"),
    (lambda d: d["partition"]["den"].pop(0), "partition does not cover (0,)"),
    (lambda d: d["partition"]["num"].pop(1),
     "partition does not cover (0, 1)"),
    (lambda d: d["partition"]["num"][0]["form"].update(k=1),
     "form on (0,) is on a 1-chart"),
    (lambda d: d["partition"]["den"][0].update(sigma=[0, 3]),
     "(0, 3) is not in the complex"),
    (lambda d: d["partition"]["den"][2]["form"]["terms"][1]["mono"].update(
        {"3": 1}), "is not a form on a 2-chart"),
    (lambda d: d["fiber_model"]["D"].update({'"zz"': {W_A0: "1"}}),
     'fiber model names "zz", not in omega'),
    (lambda d: d["fiber_model"]["I"].update({"0,3": {}}),
     "(0, 3) is not in the complex"),
    (lambda d: d["fiber_model"]["I"]["0"].update({"zz:0": {W_A0: "1"}}),
     "fiber model names zz:0, not a module element"),
    (lambda d: d["fiber_model"]["I"]["0"]["a:0"].update({'"zz"': "1"}),
     'fiber model names "zz", not in omega'),
    (lambda d: d["fiber_model"]["eta"].update({'"zz"': "1"}),
     "fiber model eta does not tag omega exactly"),
    (lambda d: d["fiber_model"]["eta"].pop(W_A0),
     "fiber model eta does not tag omega exactly"),
    (lambda d: d["fiber_model"]["omega"].append([["w", "a", 0], 5]),
     "omega element listed twice: ('w', 'a', 0)"),
    # integer fields take neither a float, which int() would truncate,
    # nor a bool, which int() and isinstance(v, int) read as 0 or 1
    (lambda d: d["leaves"][0].__setitem__(1, 3.7), "not an integer: 3.7"),
    (lambda d: d["leaves"][0].__setitem__(2, 3.0), "not an integer: 3.0"),
    (lambda d: d["fiber_model"]["omega"][0].__setitem__(1, 3.0),
     "not an integer: 3.0"),
    (lambda d: d["partition"]["num"][0]["form"].update(k=False),
     "not an integer: False"),
    (lambda d: d["partition"]["num"][1]["form"]["terms"][1]["mono"].update(
        {"1": 2.0}), "not an integer: 2.0"),
    (lambda d: d["partition"]["num"][1]["form"]["terms"][0].update(
        dx=[True]), "not an integer: True"),
    (lambda d: d["partition"]["num"][1].update(v=0.0), "not an integer: 0.0"),
    (lambda d: d["complex"].__setitem__(5, [True, 2]),
     "vertex ids must be ints, got True"),
    (lambda d: d["partition"]["den"][0].update(sigma=[0.0]),
     "(0.0,) is not in the complex"),
    (lambda d: d["partition"]["den"][2]["form"]["terms"].append(
        {"mono": {}, "dx": [1], "coeff": "1"}), "is not a function"),
    (lambda d: d["partition"]["num"].append(d["partition"]["num"][3]),
     "partition item listed twice: ((0, 1, 2), 0)"),
    (lambda d: d["partition"]["den"].append(d["partition"]["den"][0]),
     "partition item listed twice: (0,)"),
    # each simplex has one key, the one skey writes, so two keys never
    # name one simplex and leave the later to win
    (lambda d: d["coefficients"].update({"0,01": {}}),
     "not a simplex key: '0,01'"),
    (lambda d: d["coefficients"].update({" 0, 1": {}}),
     "not a simplex key: ' 0, 1'"),
    (lambda d: d["fiber_model"]["I"].update({"00": {}}),
     "not a simplex key: '00'"),
    (lambda d: d["heights"]["a"].update({"01": "0"}),
     "not a simplex key: '01'"),
    (lambda d: d["heights"]["a"].update({"0,1": "0"}),
     "height key '0,1' is not a vertex"),
    (lambda d: d["coefficients"]["0"].update({"b←a": [["0", "0", "0"]]}),
     "block b←a on (0,) names an undeclared leaf"),
    # a form term, a monomial variable and a model row also have one
    # spelling each, so that no term or row silently replaces another
    (lambda d: d["partition"]["den"][2]["form"]["terms"].append(
        d["partition"]["den"][2]["form"]["terms"][0]),
     "repeats an earlier term's monomial and dx"),
    (lambda d: d["partition"]["num"][1]["form"]["terms"][1]["mono"].update(
        {"01": 1}), "is not a form on a 1-chart"),
    (lambda d: d["partition"]["num"][1]["form"]["terms"][1]["mono"].update(
        {" 1": 1}), "is not a form on a 1-chart"),
    (lambda d: d["fiber_model"]["I"]["0"].update({"a:00": {}}),
     "fiber model names a:00, not a module element"),
    (lambda d: d["fiber_model"]["I"]["0"].update({"a: 0": {}}),
     "fiber model names a: 0, not a module element"),
    # a misspelled section would be left unread and its default used
    (lambda d: d.update(partiton=d.pop("partition")),
     "unknown key 'partiton' in the instance file"),
    (lambda d: d["fiber_model"].update(etta=d["fiber_model"].pop("eta")),
     "unknown key 'etta' in the fiber model"),
    (lambda d: d["partition"].update(dens=d["partition"]["den"]),
     "unknown key 'dens' in the partition"),
    # the version is the int FILE_VERSION; a bool is refused though
    # True == 1
    (lambda d: d.update(version=2), "version 2 is not 1"),
    (lambda d: d.update(version="one"), "not an integer: 'one'"),
    (lambda d: d.update(version=None), "not an integer: None"),
    (lambda d: d.update(version=[1]), "not an integer: [1]"),
    (lambda d: d.update(version=True), "not an integer: True"),
    (lambda d: d.update(version=1.0), "not an integer: 1.0"),
    (lambda d: d.update(version="1"), "not an integer: '1'"),
    # nor is a bool a rational, where a height, epsilon or entry goes
    (lambda d: d.update(epsilon=True), "not an exact rational: True"),
    (lambda d: d["heights"]["a"].update({"1": False}),
     "not an exact rational: False"),
    (lambda d: d["coefficients"]["0"]["b<-a"][0].__setitem__(1, True),
     "not an exact rational: True"),
    # below the partition too: a form read without its terms would be
    # the zero form, and an unread key would be silently accepted
    (lambda d: d["partition"]["num"][0]["form"].update(
        term=d["partition"]["num"][0]["form"].pop("terms")),
     "unknown key 'term' in a form"),
    (lambda d: d["partition"]["num"][0].update(comment="phi_0"),
     "unknown key 'comment' in a partition item"),
    (lambda d: d["partition"]["num"][0]["form"]["terms"][0].pop("mono"),
     "KeyError('mono')"),
    (lambda d: d["partition"]["den"][0]["form"].update(note="B(x_0)"),
     "unknown key 'note' in a form"),
], ids=["non-increasing-simplex", "duplicate-simplex", "non-int-simplex",
        "heights-of-undeclared-leaf", "missing-height",
        "coefficient-outside-complex", "block-of-undeclared-leaf",
        "block-shape", "partition-omits-simplex", "partition-omits-vertex",
        "partition-wrong-chart", "partition-outside-complex",
        "partition-term-off-chart", "model-D-key", "model-I-simplex",
        "model-I-row",
        "model-I-column", "model-eta-key", "model-eta-omits-key",
        "model-omega-twice",
        "float-leaf-index", "float-leaf-rank", "float-omega-degree",
        "bool-form-k", "float-exponent", "bool-dx", "float-partition-vertex",
        "bool-simplex-vertex", "float-partition-simplex",
        "partition-form-not-a-function", "partition-num-twice",
        "partition-den-twice", "coefficient-key-leading-zero",
        "coefficient-key-spaces", "model-I-key-leading-zero",
        "height-key-leading-zero", "height-key-not-a-vertex",
        "block-arrow-not-ascii", "form-term-twice",
        "form-variable-leading-zero", "form-variable-space",
        "model-row-leading-zero", "model-row-space",
        "top-level-key-misspelled", "model-key-misspelled",
        "partition-key-unknown", "version-2", "version-text", "version-null",
        "version-list", "version-true", "version-float", "version-string",
        "epsilon-true", "height-false", "coefficient-true",
        "form-terms-misspelled", "partition-item-key-unknown",
        "form-term-without-mono", "form-key-unknown"])
def test_structural_fault_is_input_error_everywhere(capsys, tmp_path, change,
                                                    witness):
    path = triangle_file(tmp_path, change)
    for cmd in INSTANCE_COMMANDS:
        assert main([cmd, "--instance", str(path)]) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: malformed instance file")
        assert witness in captured.err


@pytest.mark.parametrize("where, key, later", [
    (("fiber_model", "I", "0"), "a:0", {}),
    (("coefficients",), "0,1", {}),
    (("heights", "a"), "1", "5"),
], ids=["model-row", "coefficient-simplex", "height-vertex"])
def test_key_given_twice_is_input_error_everywhere(capsys, tmp_path, where,
                                                   key, later):
    """``json.loads`` keeps the later of two values under one key; the
    instance reader refuses the file instead, so that no row, simplex or
    height silently replaces another."""
    data = json.loads(json.dumps(TRIANGLE))
    obj = data
    for name in where:
        obj = obj[name]
    first = obj.pop(key)
    obj["REPEATED"] = None
    pair = f"{json.dumps(key)}: {json.dumps(first)}, " \
        f"{json.dumps(key)}: {json.dumps(later)}"
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data).replace('"REPEATED": null', pair))
    for cmd in INSTANCE_COMMANDS:
        assert main([cmd, "--instance", str(path)]) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"is not valid JSON: key {key!r} given twice in one object\n")


@pytest.mark.parametrize("cmd, check, coefficients, missing", [
    ("build-iprime", "system", TRIANGLE_1SKELETON, "(0, 1, 2)"),
    ("smooth", "system", TRIANGLE_1SKELETON, "(0, 1, 2)"),
    ("igusa", "system", TRIANGLE_1SKELETON, "(0, 1, 2)"),
    ("homology", "cw_betti", TRIANGLE_1SKELETON, "(0, 1, 2)"),
    ("holonomy", "system", {}, "(0,)"),
])
def test_missing_coefficient_is_a_failed_check(capsys, tmp_path, cmd, check,
                                               coefficients, missing):
    path = triangle_file(tmp_path,
                         lambda d: d.update(coefficients=coefficients))
    code, rep = run(capsys, cmd, "--instance", str(path))
    assert code == 1
    if cmd in ("build-iprime", "smooth"):  # validate_system runs first
        assert rep["certificates"] == rep["checks"][check] == [
            f"missing coefficient for {missing}"]
    else:   # the command stops where it meets the gap
        assert rep["certificates"] == [f"no coefficient stored for {missing}"]
        assert rep["checks"][check] == rep["certificates"][0]


def test_validate_checks_a_file_without_coefficients(capsys, tmp_path):
    def strip(d):
        for key in ("coefficients", "fiber_model", "partition"):
            del d[key]
    path = triangle_file(tmp_path, strip)
    missing = [f"missing coefficient for {s}" for s in _TRI.S]
    for cmd in ("validate", "build-aprime"):
        code, rep = run(capsys, cmd, "--instance", str(path))
        assert code == 1, cmd
        assert rep["certificates"] == rep["checks"]["system"] == missing


def test_holonomy_needs_only_vertex_and_edge_data(capsys, tmp_path):
    path = triangle_file(
        tmp_path, lambda d: d.update(coefficients=TRIANGLE_1SKELETON))
    code, rep = run(capsys, "holonomy", "--instance", str(path))
    assert code == 0
    assert rep["checks"]["triangles"] == {"0,1,2": True}


@pytest.mark.parametrize("cmd, check, change", [
    ("build-aprime", "system",
     lambda d: d.update(coefficients=TRIANGLE_1SKELETON)),
    ("build-iprime", "fiber_model",
     lambda d: d["fiber_model"]["I"]["1"]["a:0"].update({W_A0: "2"})),
], ids=["system-failure", "fiber-model-failure"])
def test_early_failures_carry_timings(capsys, tmp_path, cmd, check, change):
    code, rep = run(capsys, cmd, "--instance",
                    str(triangle_file(tmp_path, change)))
    assert code == 1
    assert rep["checks"] == {check: rep["certificates"]}
    assert list(rep) == ["command", "status", "certificates", "checks",
                         "timings"]
    assert rep["timings"]["total"] > 0


def test_report_into_missing_directory_is_input_error(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["igusa", "--seed", "2", "--report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error")
    assert not out.exists()


def test_instance_and_seed_together_are_rejected(capsys, tmp_path):
    path = triangle_file(tmp_path)
    assert main(["homology", "--instance", str(path), "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: give --instance or --seed, not both\n"


def test_smooth_reports_a_denominator_that_does_not_restrict(capsys, tmp_path):
    # the chain check reports it as the C0 check does, instead of raising
    def change(d):
        assert d["partition"]["den"][2]["sigma"] == [0, 1, 2]
        d["partition"]["den"][2]["form"]["terms"][2]["coeff"] = "0"
    code, rep = run(capsys, "smooth", "--instance",
                    str(triangle_file(tmp_path, change)))
    assert code == 1
    witness = ["denominator of (0, 1, 2) does not restrict to (1, 2)"]
    assert rep["checks"]["c0"] == rep["checks"]["chain"] == witness
