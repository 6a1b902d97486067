"""Command-line front end.

Instance files are JSON: ``complex``, ``leaves``, ``heights``,
``epsilon`` and a ``version`` field, with optional ``coefficients``,
``fiber_model`` and ``partition`` sections.  Rationals travel as
"p/q" strings throughout so nothing is ever rounded.  Every command
prints a report object to stdout (and to ``--report FILE`` when given)
whose content is deterministic apart from the timing block.

Exit codes: 0 when all checks pass, 1 when a check fails, 2 on
malformed input.  Failures always carry a certificate naming the
simplex, block or tuple that witnessed them.  A check either returns
its problems or stops with a ``CheckFailed``, whose message each
command files under the check's name; a file the parsers reject is a
``ParseError``.

A command loads only the layers it runs.  ``validate``, ``extend``,
``igusa``, ``holonomy`` and ``homology`` work on the system of higher
homotopies alone (``flatsys``, ``morse``, ``linalg``); the form layer
(``forms``, ``mixed``, ``smoothing``) is imported where it is used:
``build-aprime`` and ``build-iprime`` import ``mixed``, ``smooth``
imports ``mixed`` and ``smoothing``, and a file with a ``partition``
section loads ``smoothing`` to parse it (and ``validate`` to check it),
whatever the command.  Every command is exact algebra over Q, ``flow``
included: ``wkflow`` solves the simplex flow in closed form on int
weights over one denominator, ``cmd_flow`` builds Fractions only to
read ``--start``, and ``point_text`` prints each coordinate by a gcd.

Every report and every instance file is written by ``json_text``,
which gives exactly the text of ``json.dumps(value, indent=indent)``
without json's pure-Python indented encoder: one join per container,
each scalar written inline.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import cache
from pathlib import Path

from .flatsys import (
    FiberModel,
    cw_boundary,
    cw_homology,
    extend_system,
    fiber_homology,
    forbidden_blocks,
    holonomy_verdicts,
    igusa_check,
    igusa_export,
    quasi_iso_ranks,
    validate_fiber_model,
    validate_system,
)
from .instances import (
    generate,
    instance_from_json,
    instance_to_json,
    make_fiber_model,
)
from .linalg import Q, CheckFailed, qentry, qint, qkeys, qreader
from .morse import (
    check_partial_order,
    leaf_orders,
    validate_leaf_system,
)
from .simplicial import skey
from .wkflow import (
    SCHEDULE,
    classify_limits,
    flow,
    height_monotone,
    is_barycentric,
    logistic_law,
    sweep_starts,
    vertex_index,
)

FILE_VERSION = 1
FILE_KEYS = ("version", "complex", "leaves", "heights", "epsilon",
             "coefficients", "fiber_model", "partition")


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON text
# ---------------------------------------------------------------------------


def _float_text(x: float) -> str:
    """A float as json writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# the text of each scalar type, as json writes it
_SCALAR_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    float: _float_text,
    type(None): lambda _: "null",
}


def json_text(value, indent: int) -> str:
    """The text of ``json.dumps(value, indent=indent)``.  Any indent
    sends json down its pure-Python encoder, a generator per container;
    here each container is one join and each scalar child is written in
    place."""
    return _json_text(value, " " * indent, "\n")


def _json_text(value, pad: str, newline: str) -> str:
    """``value`` with its closing bracket on ``newline`` and its
    children one ``pad`` further in."""
    scalar = _SCALAR_TEXT.get
    if (write := scalar(type(value))) is not None:
        return write(value)
    inner = newline + pad
    if isinstance(value, dict):
        if not value:
            return "{}"
        encode = _SCALAR_TEXT[str]
        items = [encode(key if type(key) is str else _json_key(key)) + ": "
                 + (write(item) if (write := scalar(type(item)))
                    else _json_text(item, pad, inner))
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [write(item) if (write := scalar(type(item)))
                 else _json_text(item, pad, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    # subclasses of the scalar types, which json writes as their base
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def _json_key(key) -> str:
    """A dict key that is not a str, as json converts it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key, "", "")
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


# ---------------------------------------------------------------------------
# instance plumbing
# ---------------------------------------------------------------------------


class Loaded:
    def __init__(self, raw, A, FM, P, no_model=""):
        self.raw = raw             # the file's JSON; None for --seed
        self.A, self.FM, self.P = A, FM, P
        self.no_model = no_model   # why FM is None, when it is


def _one_value_per_key(pairs: list) -> dict:
    """A JSON object of an instance file.  ``json.loads`` would keep the
    later of two values under one key; here a key given twice is a
    fault of the file."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} given twice in one object")
        out[key] = value
    return out


# one decoder for every instance file, as ``json.loads`` keeps one for
# its default settings: a decoder made per call leaves memory behind
_INSTANCE_JSON = json.JSONDecoder(object_pairs_hook=_one_value_per_key)


def load_instance(args) -> Loaded:
    """The instance of ``--instance FILE`` or ``--seed N``.  The one place
    where a file the parsers reject (they check keys, simplices, leaves
    and shapes, and run no algebra) becomes a ``ParseError``."""
    if args.instance and args.seed is not None:
        raise ParseError("give --instance or --seed, not both")
    if args.seed is not None:
        inst = generate(args.seed)
        try:
            return Loaded(None, inst.A, make_fiber_model(inst), None)
        except ValueError as ex:
            return Loaded(None, inst.A, None, None, str(ex))
    if not args.instance:
        raise ParseError("provide --instance FILE or --seed N")
    try:
        raw = _INSTANCE_JSON.decode(Path(args.instance).read_text())
    except FileNotFoundError:
        raise ParseError(f"no such file: {args.instance}")
    except ValueError as ex:               # not JSON, or not text at all
        raise ParseError(f"{args.instance} is not valid JSON: {ex}")
    if not isinstance(raw, dict) or "version" not in raw:
        raise ParseError("instance file has no version field")
    try:
        if qint(raw["version"]) != FILE_VERSION:
            raise ValueError(f"version {raw['version']} is not {FILE_VERSION}")
        qkeys(raw, FILE_KEYS, "the instance file")
        read = qreader()
        S, _L, A = instance_from_json(raw, read)
        FM = (FiberModel.from_json(raw["fiber_model"], A, read)
              if "fiber_model" in raw else None)
        P = None
        if "partition" in raw:
            from .smoothing import PartitionOfUnity
            P = PartitionOfUnity.from_json(S, raw["partition"])
    # what a parser raises on a file it rejects: a key, type or value fault
    except (AttributeError, LookupError, TypeError, ValueError) as ex:
        raise ParseError(f"malformed instance file: {ex!r}")
    return Loaded(raw, A, FM, P, "add one to the instance file or use --seed")


def save_instance(path, S, L, A, extra: dict | None = None):
    data = instance_to_json(S, L, A)
    data["version"] = FILE_VERSION
    data.update(extra or {})
    Path(path).write_text(json_text(data, 1) + "\n")


class Checks(dict):
    """One command's checks in report order, with the certificates of
    the failed ones: ``record`` files a check as ``ok`` or its problem
    list, ``stop`` one that a ``CheckFailed`` ended as its message."""

    def __init__(self):
        super().__init__()
        self.certificates: list[str] = []

    def record(self, name: str, problems: list[str], ok="ok") -> "Checks":
        self[name] = problems if problems else ok
        self.certificates += problems
        return self

    def stop(self, name: str, ex: CheckFailed) -> "Checks":
        self[name] = str(ex)
        self.certificates.append(str(ex))
        return self


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def leaf_problems(A) -> list[str]:
    """The ``leaves`` check of ``validate``: the leaf system's structure
    and fineness, and a strict partial order over every simplex.  The
    commands that build on the system stop under it when it fails."""
    S, L = A.S, A.L
    return validate_leaf_system(L, S) + check_partial_order(
        L, leaf_orders(L, S))


def cmd_validate(args):
    inst = load_instance(args)
    checks = Checks()
    checks.record("leaves", leaf_problems(inst.A))
    checks.record("system", validate_system(inst.A))
    if inst.FM is not None:
        if checks["system"] == "ok":
            checks.record("fiber_model", validate_fiber_model(inst.A, inst.FM))
        else:
            checks["fiber_model"] = "skipped (needs a valid system)"
    if inst.P is not None:
        from .smoothing import validate_partition
        try:
            checks.record("partition", validate_partition(inst.P))
        except CheckFailed as ex:
            checks.stop("partition", ex)
    return checks


def cmd_extend(args):
    if not args.instance:
        raise ParseError("extend needs --instance FILE to write back to")
    inst = load_instance(args)
    checks = Checks()
    if leafp := leaf_problems(inst.A):
        return checks.record("leaves", leafp)
    try:
        full = extend_system(inst.A)
    except CheckFailed as ex:
        return checks.stop("extend", ex)
    checks["filled"] = [skey(s) for s in sorted(set(full.coeffs)
                                                 - set(inst.A.coeffs))]
    checks.record("system", validate_system(full))
    checks["written"] = not checks.certificates
    if checks["written"]:
        extra = {k: inst.raw[k] for k in ("fiber_model", "partition")
                 if k in inst.raw}
        save_instance(args.instance, full.S, full.L, full, extra)
    return checks


def cmd_build_aprime(args):
    from .mixed import build_mixed_connection

    inst = load_instance(args)
    checks = Checks()
    if leafp := leaf_problems(inst.A):
        return checks.record("leaves", leafp)
    if sysp := validate_system(inst.A):
        return checks.record("system", sysp)
    try:
        data = build_mixed_connection(inst.A)
    except CheckFailed as ex:
        return checks.stop("build", ex)
    checks["simplices"] = len(inst.A.S)
    return checks.record("problems", data.problems, ok="none")


def cmd_build_iprime(args):
    from .mixed import build_Iprime, build_mixed_connection, locality_check

    inst = load_instance(args)
    if inst.FM is None:
        raise ParseError(f"no fiber model: {inst.no_model}")
    checks = Checks()
    if leafp := leaf_problems(inst.A):
        return checks.record("leaves", leafp)
    if sysp := validate_system(inst.A):
        return checks.record("system", sysp)
    try:
        if fmp := validate_fiber_model(inst.A, inst.FM):
            return checks.record("fiber_model", fmp)
        data = build_mixed_connection(inst.A)
        cm = build_Iprime(data, inst.FM)
    except CheckFailed as ex:
        return checks.stop("build", ex)
    checks["simplices"] = len(inst.A.S)
    problems = data.problems + cm.problems
    if inst.FM.eta is not None:
        # shown on its own, certified once among the problems
        loc = locality_check(data, cm)
        checks["locality"] = loc if loc else "ok"
        problems = problems + loc
    return checks.record("problems", problems, ok="none")


def cmd_smooth(args):
    from .mixed import build_Iprime, build_mixed_connection
    from .smoothing import (
        partition_default,
        validate_partition,
        verify_smoothing,
    )

    inst = load_instance(args)
    checks = Checks()
    A, FM = inst.A, inst.FM
    if leafp := leaf_problems(A):
        return checks.record("leaves", leafp)
    if sysp := validate_system(A):
        return checks.record("system", sysp)
    checks["partition"] = "from file" if inst.P is not None else "default"
    P = inst.P if inst.P is not None else partition_default(A.S)
    try:
        checks.record("partition_valid", validate_partition(P))
    except CheckFailed as ex:
        return checks.stop("partition_valid", ex)
    try:
        if FM is not None and (fmp := validate_fiber_model(A, FM)):
            return checks.record("fiber_model", fmp)
        data = build_mixed_connection(A)
        cm = build_Iprime(data, FM) if FM is not None else None
    except CheckFailed as ex:
        return checks.stop("build", ex)
    if found := data.problems + (cm.problems if cm is not None else []):
        checks.record("problems", found)
    try:
        verdicts = verify_smoothing(data, P, cm)
    except CheckFailed as ex:
        return checks.stop("smoothing", ex)
    for kind, problems in verdicts.items():
        checks.record(kind, problems)
    return checks


def cmd_igusa(args):
    A = load_instance(args).A
    checks = Checks()
    if sysp := forbidden_blocks(A):
        return checks.record("system", sysp)
    try:
        problems = [f"{skey(sigma)}: relation fails at tuple {tup}"
                    for sigma in A.S
                    for tup in igusa_check(igusa_export(A, sigma))]
    except CheckFailed as ex:
        return checks.stop("system", ex)
    checks["simplices"] = len(A.S)
    return checks.record("problems", problems, ok="none")


def cmd_holonomy(args):
    A = load_instance(args).A
    checks = Checks()
    if sysp := forbidden_blocks(A):
        return checks.record("system", sysp)
    try:
        corners = dict.fromkeys((v,) for tri in A.S.of_dim(2) for v in tri)
        H = {v: fiber_homology(A, v) for v in corners}
        tris = holonomy_verdicts(A, H, checks.certificates)
    except CheckFailed as ex:
        return checks.stop("system", ex)
    checks["triangles"] = ({skey(t): ok for t, ok in tris.items()}
                           if tris else "none")
    return checks


def cmd_homology(args):
    inst = load_instance(args)
    checks = Checks()
    if sysp := forbidden_blocks(inst.A):
        return checks.record("system", sysp)
    try:
        boundary, degrees = cw_boundary(inst.A)
        checks["cw_betti"] = cw_homology(boundary, degrees)
    except CheckFailed as ex:
        return checks.stop("cw_betti", ex)
    checks["generators"] = len(degrees)
    H = {v: fiber_homology(inst.A, v) for v in inst.A.S.vertices()}
    checks["fiber_betti"] = {skey(v): {q: b for q, b in h.betti.items() if b}
                             for v, h in H.items()}
    if inst.FM is not None:
        try:
            rep = quasi_iso_ranks(inst.A, inst.FM, H)
        except CheckFailed as ex:
            return checks.stop("quasi_iso", ex)
        checks["omega_betti"] = rep["omega"]
        checks.record("quasi_iso", rep["problems"])
    return checks


def point_text(point) -> list[str]:
    """The coordinates of the point (w, n) as "p" or "p/q" strings in
    lowest terms, the text of ``str(Fraction(c, n))``."""
    w, n = point
    out = []
    for c in w:
        g = math.gcd(c, n)
        out.append(f"{c // g}" if g == n else f"{c // g}/{n // g}")
    return out


def cmd_flow(args):
    k = args.k
    if k < 1:
        raise ParseError("--k must be at least 1")
    if args.sweep is not None and args.sweep < 1:
        raise ParseError("--sweep must be at least 1")
    if args.sweep is not None and args.start is not None:
        raise ParseError("give --start or --sweep, not both")
    if args.sweep:
        if args.seed is not None and args.seed < 0:
            raise ParseError("--seed must be nonnegative")
        starts = sweep_starts(k, args.sweep,
                              args.seed if args.seed is not None else 0)
    else:
        if not args.start:
            raise ParseError("flow needs --start or --sweep")
        try:
            coords = [qentry(c) for c in args.start.split(",")]
        except ValueError as ex:
            raise ParseError(f"--start: {ex}")
        if len(coords) != k + 1:
            raise ParseError(f"--start needs {k + 1} coordinates for k={k}")
        # the point (w, n) over the lcm n of the denominators
        n = math.lcm(*(c.denominator for c in coords))
        start = ([c.numerator * (n // c.denominator) for c in coords], n)
        if not is_barycentric(start):
            raise ParseError("--start is not a barycentric point")
        starts = [start]
    backward = args.backward
    checks = Checks()
    certs = checks.certificates
    runs = []
    for start in starts:
        back, fwd = classify_limits(start)
        limit = flow(start, 0, backward)
        # a sweep checks its start and its limit, --start every point of
        # the schedule and the limit
        points = ([start] if args.sweep else
                  [flow(start, Q(1, 2 ** j), backward)
                   for j in range(SCHEDULE + 1)])
        path = points + [limit]
        m = vertex_index(limit)
        expected = back if backward else fwd
        out = {"start": point_text(start), "backward": backward,
               "expected_vertex": expected, "converged": m is not None,
               "limit": point_text(limit), "limit_vertex": m,
               "height_monotone": height_monotone(k, path, backward)}
        runs.append(out)
        found = []
        if m is None:
            found.append(f"limit {out['limit']} is not a vertex")
        elif m != expected:
            found.append(f"limit vertex {m}, expected {expected}")
        if not out["height_monotone"]:
            found.append("height not monotone")
        found += [f"point {j} is not barycentric"
                  for j, x in enumerate(path) if not is_barycentric(x)]
        # the law holds at every vertex, so the limit needs no check
        found += [f"point {j}: the field's prefix sums are not P^2 - P"
                  for j, x in enumerate(points) if not logistic_law(k, x)]
        if found:
            why = f"start {out['start']}: "
            certs += [why + problem for problem in found]
    if args.sweep:
        checks["runs"] = runs
    else:
        runs[0]["times"] = [j * math.log(2) for j in range(SCHEDULE + 1)]
        runs[0]["points"] = [point_text(x) for x in points]
        checks["trajectory"] = runs[0]
    return checks


COMMANDS = {
    "validate": cmd_validate,
    "extend": cmd_extend,
    "build-aprime": cmd_build_aprime,
    "build-iprime": cmd_build_iprime,
    "smooth": cmd_smooth,
    "igusa": cmd_igusa,
    "holonomy": cmd_holonomy,
    "homology": cmd_homology,
    "flow": cmd_flow,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one in the process (``parse_args`` leaves it as it
    was)."""
    ap = argparse.ArgumentParser(
        prog="flatforms",
        description="exact checks for flat form data over a simplicial base")
    sub = ap.add_subparsers(dest="command", required=True)

    def instance_command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--instance", metavar="FILE", help="JSON instance file")
        p.add_argument("--seed", type=int, metavar="N",
                       help="generate a deterministic instance instead")
        p.add_argument("--report", metavar="FILE",
                       help="also write the report here")
        return p

    instance_command("validate", "structural and flatness checks")
    instance_command("extend", "fill in missing coefficients and write the "
                               "completed file back")
    instance_command("build-aprime", "build the per-simplex form data")
    instance_command("build-iprime", "build the per-simplex chain maps")
    instance_command("smooth", "pull everything back along the partition "
                               "of unity and recheck")
    instance_command("igusa", "reindexed relation check")
    instance_command("holonomy", "homology holonomy around triangles")
    instance_command("homology", "Betti numbers of base and fibers")

    p = sub.add_parser("flow", help="follow the canonical simplex flow exactly")
    p.add_argument("--k", type=int, required=True, help="simplex dimension")
    p.add_argument("--start", metavar="C0,C1,...",
                   help="barycentric start point, rational entries")
    p.add_argument("--backward", action="store_true")
    p.add_argument("--sweep", type=int, metavar="N",
                   help="run N random starts instead of --start")
    p.add_argument("--seed", type=int, metavar="N",
                   help="nonnegative RNG seed for --sweep (default 0)")
    p.add_argument("--report", metavar="FILE")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        checks = COMMANDS[args.command](args)
        certs = checks.certificates
        report = {"command": args.command,
                  "status": "pass" if not certs else "fail",
                  "certificates": certs,
                  "checks": checks,
                  "timings": {"total": time.perf_counter() - t0}}
        text = json_text(report, 2)
        if args.report:
            Path(args.report).write_text(text + "\n")
    except ParseError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"input error: {ex!r}", file=sys.stderr)
        return 2
    print(text)
    return 0 if not certs else 1


if __name__ == "__main__":
    sys.exit(main())
