"""Closed-loop benchmark of the ``flatforms`` command line.

    python3 perfbench/run.py --workload smooth --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` directory, never from an installed copy.  One
process runs one workload: a single client issues each op (one
subcommand call on one instance, through ``flatforms.cli.main`` in
process) after the previous one has returned.

With ``--trace 0`` the workload's op list is run pass after pass until
``--seconds`` are spent (the first pass always completes), and the
end-to-end metrics are printed:

    setup_s      median of several fresh-process set-ups: interpreter
                 start, ``import flatforms.cli``, instance files written
    wall_s       one pass, as the sum of the per-op median times
    op_p50_s     median of the per-op median times
    op_max_s     largest per-op median time
    peak_rss_mb  peak resident set of this process

The three op times are scaled to a reference host speed measured
alongside the ops (see ``HostSpeed``); the unscaled figures are printed
on an earlier line.

With ``--trace 1`` one untraced and one traced pass are run, and the
per-layer metrics of the traced pass are printed (see ``tracer.py``);
spans and aggregates go to ``.perfbench/trace-<workload>-<seed>.jsonl``.

Every op's outcome is checked against the exit code and status expected
for its instance, and its report body (timings removed) must repeat
exactly on every pass.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("smooth", "build", "complete", "flow")


class CheckoutError(Exception):
    pass


def check_checkout():
    if not (SRC / "flatforms" / "cli.py").is_file():
        raise CheckoutError(f"no flatforms sources under {SRC}")


def import_cli():
    """``flatforms.cli`` from this checkout's sources."""
    check_checkout()
    package = SRC / "flatforms"
    sys.path.insert(0, str(SRC))
    import flatforms.cli
    if Path(flatforms.cli.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"imported flatforms from {flatforms.cli.__file__}, "
                            f"not from {package}")
    return flatforms.cli


def make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, workdir)


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
           str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise CheckoutError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return elapsed


def run_op(main, argv) -> tuple[int | None, float, dict | None, str | None]:
    """(exit code, seconds, parsed report, error) of one in-process op."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as ex:           # argparse rejects its input
            code = ex.code
        except Exception as ex:            # any exception fails the op
            code, error = None, f"raised {ex!r}"
        elapsed = time.perf_counter() - t0
    report = None
    if out.getvalue().strip():
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            error = error or "stdout is not a JSON report"
    return code, elapsed, report, error


class Outcomes:
    """Outcome checks and report bodies across all passes of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bodies: dict[int, object] = {}

    def record(self, op, code, report, error):
        self.attempted += 1
        problems = [error] if error else self.workload.check(op, code, report)
        if not problems:
            body = self.workload.body(op, report)
            first = self.bodies.setdefault(op.id, body)
            if body != first:
                problems = ["report differs from the first pass"]
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(op.argv)}: {problems[0]}")


def _kernel():
    acc, table = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        table[i % 31, i % 7] = acc
    return acc


class HostSpeed:
    """How fast the host runs a fixed exact-arithmetic kernel during a run.

    The host is shared, and its speed moves both within a run and from
    run to run: the same kernel takes 25 to 98 ms per 6,000 iterations
    within a minute.  While ``sampling``, a timer signal times the kernel
    every ``CAL_EVERY_S``, also in the middle of an op; ``busy`` is the
    time those samples took, which ``run_pass`` takes out of the op
    times.  ``scale`` turns an op time into seconds on a host where the
    kernel takes ``REF_KERNEL_S``, from the kernel times measured during
    the op and within ``WINDOW_S`` of it.
    """

    REF_KERNEL_S = 0.005
    CAL_EVERY_S = 0.2
    WINDOW_S = 0.5
    MIN_SAMPLES = 5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (end, seconds)
        self.busy = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.busy += t1 - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.CAL_EVERY_S, self.CAL_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def median(self) -> float:
        return statistics.median(d for _, d in self.samples)

    def scale(self, start: float, elapsed: float) -> float:
        near = [d for t, d in self.samples
                if start - self.WINDOW_S <= t <= start + elapsed + self.WINDOW_S]
        if len(near) < self.MIN_SAMPLES:
            return elapsed * self.REF_KERNEL_S / self.median()
        return elapsed * self.REF_KERNEL_S / statistics.median(near)


def run_pass(workload, main, outcomes, samples, deadline=None, tracer=None,
             speed=None):
    """One pass over the op list, appending (start, seconds) per op to
    ``samples``; False when the deadline cut the pass short."""
    workload.before_pass()
    gc.collect()        # the last pass's garbage is not this pass's cost
    for op in workload.ops:
        if deadline is not None and time.perf_counter() + samples[op.id][-1][1] > deadline:
            return False
        busy = speed.busy if speed is not None else 0.0
        start = time.perf_counter()
        if tracer is None:
            code, elapsed, report, error = run_op(main, op.argv)
        else:
            with tracer.op(op.id, " ".join(op.argv)):
                code, elapsed, report, error = run_op(main, op.argv)
        if speed is not None:
            elapsed -= speed.busy - busy
        samples[op.id].append((start, elapsed))
        outcomes.record(op, code, report, error)
    return True


def timed_run(workload, main, seconds, outcomes):
    samples = {op.id: [] for op in workload.ops}
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    with speed.sampling():
        run_pass(workload, main, outcomes, samples, speed=speed)
        passes = 1
        while run_pass(workload, main, outcomes, samples, deadline, speed=speed):
            passes += 1
    raw = [statistics.median(e for _, e in s) for s in samples.values()]
    per_op = [statistics.median(speed.scale(t, e) for t, e in s)
              for s in samples.values()]
    n = sum(len(s) for s in samples.values())
    print(f"perfbench: {passes} full passes, {n} op samples, "
          f"at least {min(len(s) for s in samples.values())} per op")
    print(f"perfbench: unscaled wall {sum(raw):.4f} s, op p50 "
          f"{statistics.median(raw):.4f} s, op max {max(raw):.4f} s; kernel "
          f"median {speed.median() * 1000:.3f} ms over {len(speed.samples)} samples")
    return {
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_max_s": (max(per_op), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, main, outcomes, trace_path):
    from tracer import Tracer, layer_metrics

    samples = {op.id: [] for op in workload.ops}
    run_pass(workload, main, outcomes, samples)
    untraced = sum(s[0][1] for s in samples.values())
    tracer = Tracer()
    with tracer.installed():
        run_pass(workload, main, outcomes, samples, tracer=tracer)
    traced = sum(s[1][1] for s in samples.values())
    tracer.write(trace_path)
    print(f"perfbench: untraced pass {untraced:.3f} s, traced pass "
          f"{traced:.3f} s, {len(tracer.spans)} spans in {trace_path.name}")
    return layer_metrics(tracer, traced - untraced)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
    except CheckoutError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe_dir = workdir / f"probe{i}"
                probe_dir.mkdir()
                setup.append(probe_setup(args.workload, args.seed, probe_dir))
        cli = import_cli()
        workload = make_workload(args.workload, args.seed, workdir)
        # a full collection inside an op then walks only objects made
        # after set-up, not the import-time heap of numpy and scipy
        gc.collect()
        gc.freeze()
        outcomes = Outcomes(workload)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics = traced_run(workload, cli.main, outcomes, trace_path)
        else:
            metrics = {"setup_s": (statistics.median(setup), "s")}
            metrics.update(timed_run(workload, cli.main, args.seconds, outcomes))
    except CheckoutError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in outcomes.problems[:20]:
        print(f"perfbench: FAILED {problem}")
    print(f"perfbench: {args.workload} seed {args.seed} report digest "
          f"{workload.digest(outcomes.bodies)}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
