"""Checks of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q

The wrapper call counts must equal a ``sys.setprofile`` count of the
same code objects, which shows that no alias of a wrapped function
escaped patching; and tracing must not change any report.
"""

import collections
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import import_cli, run_op  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = import_cli()

OPS = [
    ("smooth", "--seed", "2"),
    ("build-iprime", "--seed", "2"),
    ("build-aprime", "--seed", "26"),
    ("holonomy", "--seed", "2"),
    ("homology", "--seed", "2"),
    ("igusa", "--seed", "2"),
    ("flow", "--k", "2", "--sweep", "2", "--seed", "1"),
]


def _traced(argv):
    tracer = Tracer()
    with tracer.installed():
        with tracer.op(0, " ".join(argv)):
            result = run_op(cli.main, argv)
    return tracer, result


@pytest.mark.parametrize("argv", OPS, ids=lambda a: " ".join(a))
def test_wrapper_counts_match_setprofile(argv):
    # forms keeps a process-wide cache of restricted basis forms; fill it
    # first so that both counted runs make the same calls
    run_op(cli.main, argv)
    tracer, (code, _, _, error) = _traced(argv)
    assert error is None and code == 0
    codes = {fn.__code__: key for key, fn in tracer.originals.items()}
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            key = codes.get(frame.f_code)
            if key is not None:
                counts[key] += 1

    sys.setprofile(profile)
    try:
        run_op(cli.main, argv)
    finally:
        sys.setprofile(None)
    wrapped = {key: calls for key, (calls, _) in tracer.stats.items()
               if calls and key[0] != "bench"}
    assert wrapped == dict(counts)


def test_tracer_restores_the_package():
    import flatforms.forms as forms
    import flatforms.linalg as linalg

    before = (linalg.solve_sparse, forms.solve_sparse,
              forms.PolyForm.__dict__["wedge"], forms.PolyForm.__dict__["zero"],
              cli.COMMANDS["smooth"])
    with Tracer().installed():
        assert forms.solve_sparse is linalg.solve_sparse
        assert linalg.solve_sparse is not before[0]
    after = (linalg.solve_sparse, forms.solve_sparse,
             forms.PolyForm.__dict__["wedge"], forms.PolyForm.__dict__["zero"],
             cli.COMMANDS["smooth"])
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("argv", OPS, ids=lambda a: " ".join(a))
def test_traced_reports_match_untraced(argv):
    code, _, report, error = run_op(cli.main, argv)
    _, (tcode, _, treport, terror) = _traced(argv)
    assert (error, terror) == (None, None)
    assert code == tcode
    report.pop("timings", None)
    treport.pop("timings", None)
    assert report == treport
