"""The four benchmark workloads and their outcome checks.

An op is one ``flatforms`` subcommand call on one instance, run in
process through ``flatforms.cli.main``.  Each workload fixes its op
list, derives every op's expected exit code from the instance (never
from an observed run), and checks each report as it comes back.

The instance batteries are fixed: per-instance cost spans two orders of
magnitude (0.003 s to 0.8 s for ``build-iprime`` on seeds 0-39), so
batteries drawn per workload seed would move the pass time by more than
any bound a regression gate can use.  The workload seed instead fixes
the order in which the instances are visited, and for ``flow`` it is
the sweep seed, so each seed is a different input sequence of the same
cost class.  Seed 0 visits the batteries in the canonical order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from flatforms.cli import FILE_VERSION
from flatforms.instances import generate, instance_to_json, strip_to_dim

SMOOTH_SEEDS = (3, 5, 7, 8, 11)
BUILD_SEEDS = tuple(range(40))
COMPLETE_SEEDS = tuple(range(40))
COMPLETE_CHECKS = ("validate", "igusa", "holonomy", "homology")
FLOW_KS = (2, 3, 4)
FLOW_SWEEP = 100


@dataclass(frozen=True)
class Op:
    id: int                 # position in the canonical battery
    argv: tuple[str, ...]
    expect_exit: int
    expect_filled: tuple[str, ...] = ()   # extend: simplices it must fill


def _order(seed: int, groups: list[list[Op]]) -> list[Op]:
    """Visit the groups in a seed-determined order (canonical for 0)."""
    if seed:
        groups = list(groups)
        random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.ops: list[Op] = []

    def before_pass(self):
        """Restore any input an earlier pass changed."""

    def check(self, op: Op, code: int, report: dict | None) -> list[str]:
        """Problems with one op's outcome; empty when it is as expected."""
        if code != op.expect_exit:
            return [f"exit {code}, expected {op.expect_exit}"]
        if code == 2:
            return [] if report is None else ["report printed on input error"]
        want = "pass" if code == 0 else "fail"
        if report is None or report.get("status") != want:
            return [f"status is not {want!r}"]
        if code == 0 and report.get("certificates"):
            return ["certificates on a passing report"]
        return []

    def body(self, op: Op, report: dict | None):
        """The deterministic part of a report: everything but timings."""
        if report is None:
            return None
        return {k: v for k, v in report.items() if k != "timings"}

    def digest(self, bodies: dict[int, object]) -> str:
        """Hash of the deterministic bodies in canonical op order."""
        h = hashlib.sha256()
        for op_id in sorted(bodies):
            h.update(json.dumps(bodies[op_id], sort_keys=True).encode())
        return h.hexdigest()[:16]


class Smooth(Workload):
    """``smooth`` on the ROADMAP bench seeds, three of them dim-3.

    The only workload where the partition pullback, assemble_I and
    verify_chain and ``PolyForm.wedge`` do the work.
    """

    name = "smooth"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # generated instances are flat by construction and the default
        # partition is the cubic bump, so every check passes
        self.ops = _order(seed, [[Op(i, ("smooth", "--seed", str(n)), 0)]
                                 for i, n in enumerate(SMOOTH_SEEDS)])


class Build(Workload):
    """``build-aprime`` and ``build-iprime`` on seeds 0-39.

    The a'/I' recursion: boundary extension and sparse solves, with no
    partition pullback.
    """

    name = "build"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        groups = []
        for i, n in enumerate(BUILD_SEEDS):
            # an enriched instance has left its gauge, so it has no fiber
            # model and build-iprime must refuse it as an input error
            iprime_exit = 2 if generate(n).enriched else 0
            groups.append([Op(2 * i, ("build-aprime", "--seed", str(n)), 0),
                           Op(2 * i + 1, ("build-iprime", "--seed", str(n)),
                              iprime_exit)])
        self.ops = _order(seed, groups)


class Complete(Workload):
    """``extend`` then four read-only checks on seeds 0-39 cut to 1-skeleta.

    Exact rref/rank, flatsys and morse with no forms or smoothing; a
    writing op sits beside read-only ones.
    """

    name = "complete"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files: dict[Path, str] = {}
        groups = []
        for i, n in enumerate(COMPLETE_SEEDS):
            inst = generate(n)
            data = instance_to_json(inst.S, inst.L, strip_to_dim(inst.A, 1))
            data["version"] = FILE_VERSION
            path = workdir / f"complete-{n}.json"
            self.files[path] = json.dumps(data, indent=1) + "\n"
            # the stripped file lacks exactly the simplices of dim >= 2
            filled = tuple(",".join(map(str, s)) for s in inst.S
                           if len(s) >= 3)
            arg = ("--instance", str(path))
            base = len(COMPLETE_CHECKS) + 1
            group = [Op(base * i, ("extend",) + arg, 0, filled)]
            group += [Op(base * i + j, (cmd,) + arg, 0)
                      for j, cmd in enumerate(COMPLETE_CHECKS, start=1)]
            groups.append(group)
        self.ops = _order(seed, groups)
        self.before_pass()

    def before_pass(self):
        # extend writes the completed system back, so every pass starts
        # again from the stripped files
        for path, text in self.files.items():
            path.write_text(text)

    def check(self, op, code, report):
        problems = super().check(op, code, report)
        if problems or op.argv[0] != "extend":
            return problems
        filled = report["checks"]["filled"]
        if not filled:
            return ["extend filled nothing"]
        if sorted(filled) != sorted(op.expect_filled):
            return [f"extend filled {filled}, expected {list(op.expect_filled)}"]
        if report["checks"]["written"] is not True:
            return ["extend did not write the completed file back"]
        return []


class Flow(Workload):
    """``flow --sweep 100`` for k = 2, 3, 4, forward and backward.

    The only numerical workload: wkflow and scipy, no exact algebra.
    """

    name = "flow"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        ops = []
        for k in FLOW_KS:
            for backward in (False, True):
                argv = ("flow", "--k", str(k), "--sweep", str(FLOW_SWEEP),
                        "--seed", str(seed)) + (("--backward",) if backward else ())
                ops.append(Op(len(ops), argv, 0))
        self.ops = ops

    def check(self, op, code, report):
        problems = super().check(op, code, report)
        if problems:
            return problems
        backward = "--backward" in op.argv
        runs = report["checks"]["runs"]
        if len(runs) != FLOW_SWEEP:
            return [f"{len(runs)} trajectories, expected {FLOW_SWEEP}"]
        for run in runs:
            # the flow leaves every face invariant: forward it ends at the
            # top vertex of the start's support, backward at the bottom one
            support = [m for m, c in enumerate(run["start"]) if Fraction(c) > 0]
            want = support[0] if backward else support[-1]
            if not run.get("converged") or run.get("limit_vertex") != want:
                return [f"start {run['start']}: limit {run.get('limit_vertex')}, "
                        f"expected vertex {want}"]
        return []

    def body(self, op, report):
        if report is None:
            return None
        return [run.get("limit_vertex") for run in report["checks"]["runs"]]


WORKLOADS = {w.name: w for w in (Smooth, Build, Complete, Flow)}
