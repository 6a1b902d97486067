"""Command-line front end.

Instance files are JSON: ``complex``, ``leaves``, ``heights``,
``epsilon`` and a ``version`` field, with optional ``coefficients``,
``fiber_model`` and ``partition`` sections.  Rationals travel as
"p/q" strings throughout so nothing is ever rounded.  Every command
prints a report object to stdout (and to ``--report FILE`` when given)
whose content is deterministic apart from the timing block.

Exit codes: 0 when all checks pass, 1 when a check fails, 2 on
malformed input.  Failures always carry a certificate naming the
simplex, block or tuple that witnessed them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .flatsys import (
    ChainMapViolation,
    Infeasible,
    MissingFaceData,
    NotADifferential,
    cw_boundary,
    cw_homology,
    extend_system,
    fiber_homology,
    holonomy_is_identity,
    igusa_check,
    igusa_export,
    validate_system,
)
from .forms import ExtensionInfeasible, IncompatibleBoundaryData
from .instances import (
    generate,
    instance_from_json,
    instance_to_json,
    make_fiber_model,
)
from .linalg import qx
from .mixed import (
    FiberModel,
    NotNilpotent,
    build_Iprime,
    build_mixed_connection,
    locality_check,
    report_certificates,
    validate_fiber_model,
)
from .morse import check_partial_order, check_refinement, validate_leaf_system
from .smoothing import (
    PartitionOfUnity,
    assemble_I,
    partition_default,
    pullback_global,
    quasi_iso_ranks,
    validate_partition,
    verify_chain,
    verify_global,
)
from .wkflow import classify_limits, flow_batch, nearest_vertex

FILE_VERSION = 1


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# instance plumbing
# ---------------------------------------------------------------------------


def _skey(s) -> str:
    return ",".join(map(str, s))


def _plain(x):
    """Rationals to strings, tuples to lists, numpy scalars to floats."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {(_skey(k) if isinstance(k, tuple) else k): _plain(v)
                for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    return x


class Loaded:
    def __init__(self, raw, S, L, A, FM, P, has_coeffs, no_model):
        self.raw = raw
        self.S, self.L, self.A = S, L, A
        self.FM, self.P = FM, P
        self.has_coeffs = has_coeffs
        self.no_model = no_model   # why FM is None, when it is


def load_instance(args) -> Loaded:
    if getattr(args, "instance", None):
        try:
            raw = json.loads(Path(args.instance).read_text())
        except FileNotFoundError:
            raise ParseError(f"no such file: {args.instance}")
        except json.JSONDecodeError as ex:
            raise ParseError(f"{args.instance} is not valid JSON: {ex}")
        if "version" not in raw:
            raise ParseError("instance file has no version field")
        try:
            S, L, A = instance_from_json(raw)
            FM = (FiberModel.from_json(raw["fiber_model"])
                  if "fiber_model" in raw else None)
            P = (PartitionOfUnity.from_json(S, raw["partition"])
                 if "partition" in raw else None)
        except (KeyError, TypeError, ValueError) as ex:
            raise ParseError(f"malformed instance file: {ex!r}")
        return Loaded(raw, S, L, A, FM, P, "coefficients" in raw,
                      "add one to the instance file or use --seed")
    if getattr(args, "seed", None) is not None:
        inst = generate(args.seed)
        try:
            FM, no_model = make_fiber_model(inst), ""
        except ValueError as ex:
            FM, no_model = None, str(ex)
        return Loaded(None, inst.S, inst.L, inst.A, FM, None, True, no_model)
    raise ParseError("provide --instance FILE or --seed N")


def save_instance(path, S, L, A, extra: dict | None = None):
    data = instance_to_json(S, L, A)
    data["version"] = FILE_VERSION
    for key in ("fiber_model", "partition"):
        if extra and key in extra:
            data[key] = extra[key]
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


# a build that cannot finish is a failed check, reported with its cause
BUILD_ERRORS = (ExtensionInfeasible, IncompatibleBoundaryData, NotNilpotent)


def _build_failure(ex: Exception, checks: dict, t0: float):
    checks["build"] = str(ex)
    return {"checks": checks,
            "timings": {"total": time.perf_counter() - t0}}, [str(ex)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    inst = load_instance(args)
    certs = []
    checks = {}
    t0 = time.perf_counter()
    leaf = (validate_leaf_system(inst.L, inst.S)
            + check_partial_order(inst.L, inst.S)
            + check_refinement(inst.L, inst.S))
    checks["leaves"] = "ok" if not leaf else leaf
    certs += leaf
    if inst.has_coeffs:
        sysp = validate_system(inst.A)
        checks["system"] = "ok" if not sysp else sysp
        certs += sysp
    else:
        checks["system"] = "skipped (no coefficients)"
    if inst.FM is not None:
        if inst.has_coeffs and checks["system"] == "ok":
            fmp = validate_fiber_model(inst.A, inst.FM)
            checks["fiber_model"] = "ok" if not fmp else fmp
            certs += fmp
        else:
            checks["fiber_model"] = "skipped (needs a valid system)"
    if inst.P is not None:
        pp = validate_partition(inst.P)
        checks["partition"] = "ok" if not pp else pp
        certs += pp
    return {"checks": checks,
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_extend(args):
    if not args.instance:
        raise ParseError("extend needs --instance FILE to write back to")
    inst = load_instance(args)
    certs = []
    t0 = time.perf_counter()
    try:
        full = extend_system(inst.A, to_dim=args.to_dim)
    except (Infeasible, MissingFaceData) as ex:
        return {"checks": {"extend": str(ex)},
                "timings": {"total": time.perf_counter() - t0}}, [str(ex)]
    problems = validate_system(full)
    certs += problems
    filled = sorted(set(full.coeffs) - set(inst.A.coeffs))
    if not certs:
        extra = {k: inst.raw[k] for k in ("fiber_model", "partition")
                 if inst.raw and k in inst.raw}
        save_instance(args.instance, inst.S, inst.L, full, extra)
    return {"checks": {"filled": [_skey(s) for s in filled],
                       "system": "ok" if not problems else problems,
                       "written": not certs},
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_build_aprime(args):
    inst = load_instance(args)
    t0 = time.perf_counter()
    sysp = validate_system(inst.A)
    if sysp:
        return {"checks": {"system": sysp}}, sysp
    try:
        data = build_mixed_connection(inst.A, max_degree=args.max_degree)
    except BUILD_ERRORS as ex:
        return _build_failure(ex, {}, t0)
    certs = report_certificates(data.report)
    checks = {"simplices": len(data.report),
              "problems": certs if certs else "none"}
    return {"checks": checks,
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_build_iprime(args):
    inst = load_instance(args)
    if inst.FM is None:
        raise ParseError(f"no fiber model: {inst.no_model}")
    t0 = time.perf_counter()
    fmp = validate_fiber_model(inst.A, inst.FM)
    if fmp:
        return {"checks": {"fiber_model": fmp}}, fmp
    try:
        data = build_mixed_connection(inst.A, max_degree=args.max_degree)
        cm = build_Iprime(data, inst.FM, max_degree=args.max_degree)
    except BUILD_ERRORS as ex:
        return _build_failure(ex, {}, t0)
    certs = report_certificates(cm.report)
    checks = {"simplices": len(cm.report)}
    if inst.FM.eta is not None:
        loc = locality_check(data, cm)
        checks["locality"] = "ok" if not loc else loc
        certs += loc
    checks["problems"] = certs if certs else "none"
    return {"checks": checks,
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_smooth(args):
    inst = load_instance(args)
    certs = []
    checks = {}
    t0 = time.perf_counter()
    A = inst.A
    P = inst.P
    checks["partition"] = "from file" if P is not None else "default"
    if P is None:
        P = partition_default(A.S)
    pp = validate_partition(P)
    checks["partition_valid"] = "ok" if not pp else pp
    certs += pp
    if inst.FM is not None:
        fmp = validate_fiber_model(A, inst.FM)
        if fmp:
            checks["fiber_model"] = fmp
            return {"checks": checks,
                    "timings": {"total": time.perf_counter() - t0}}, certs + fmp
    try:
        data = build_mixed_connection(A)
        cm = build_Iprime(data, inst.FM) if inst.FM is not None else None
    except BUILD_ERRORS as ex:
        report, cert = _build_failure(ex, checks, t0)
        return report, certs + cert
    G = pullback_global(data, P)
    rep = verify_global(G)
    for kind in ("flat", "c0", "first_order"):
        checks[kind] = "ok" if not rep[kind] else rep[kind]
        certs += rep[kind]
    if cm is not None:
        assemble_I(G, cm)
        chain = verify_chain(G)
        checks["chain"] = "ok" if not chain else chain
        certs += chain
    return {"checks": checks,
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_igusa(args):
    inst = load_instance(args)
    certs = []
    t0 = time.perf_counter()
    count = 0
    for sigma in inst.A.S:
        bad = igusa_check(igusa_export(inst.A, sigma))
        count += 1
        for tup in bad:
            certs.append(f"{_skey(sigma)}: relation fails at tuple {tup}")
    return {"checks": {"simplices": count,
                       "problems": certs if certs else "none"},
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_holonomy(args):
    inst = load_instance(args)
    certs = []
    t0 = time.perf_counter()
    tris = {}
    corners = dict.fromkeys((v,) for tri in inst.A.S.of_dim(2) for v in tri)
    H = {v: fiber_homology(inst.A, v) for v in corners}
    for tri in inst.A.S.of_dim(2):
        try:
            ok = holonomy_is_identity(inst.A, tri, H)
            if not ok:
                certs.append(f"holonomy around {_skey(tri)} is not the identity")
        except ChainMapViolation as ex:
            ok = False
            certs.append(str(ex))
        tris[_skey(tri)] = ok
    return {"checks": {"triangles": tris if tris else "none"},
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_homology(args):
    inst = load_instance(args)
    certs = []
    t0 = time.perf_counter()
    bdry = cw_boundary(inst.A)
    try:
        checks = {"cw_betti": cw_homology(bdry),
                  "generators": len(bdry.generators)}
    except NotADifferential as ex:
        return {"checks": {"cw_betti": str(ex)},
                "timings": {"total": time.perf_counter() - t0}}, [str(ex)]
    H = {v: fiber_homology(inst.A, v) for v in inst.A.S.vertices()}
    checks["fiber_betti"] = {_skey(v): h.betti for v, h in H.items()}
    if inst.FM is not None:
        rep = quasi_iso_ranks(inst.A, inst.FM, H)
        checks["omega_betti"] = rep["omega"]
        checks["quasi_iso"] = "ok" if not rep["problems"] else rep["problems"]
        certs += rep["problems"]
    return {"checks": checks,
            "timings": {"total": time.perf_counter() - t0}}, certs


def cmd_flow(args):
    k = args.k
    if k < 1:
        raise ParseError("--k must be at least 1")
    if args.sweep is not None and args.sweep < 0:
        raise ParseError("--sweep must be at least 0")
    if args.sweep is not None and args.start is not None:
        raise ParseError("give --start or --sweep, not both")
    t0 = time.perf_counter()
    if args.sweep:
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        starts = [[Fraction(c).limit_denominator(10**9)
                   for c in rng.dirichlet(np.ones(k + 1))]
                  for _ in range(args.sweep)]
    else:
        if not args.start:
            raise ParseError("flow needs --start or --sweep")
        start = [qx(c) for c in args.start.split(",")]
        if len(start) != k + 1:
            raise ParseError(f"--start needs {k + 1} coordinates for k={k}")
        if sum(start) != 1 or any(c < 0 for c in start):
            raise ParseError("--start is not a barycentric point")
        starts = [start]
    x0 = [[float(c) for c in start] for start in starts]
    batch = flow_batch(k, x0, backward=args.backward)
    certs = []
    runs = []
    for i, start in enumerate(starts):
        out = {"start": [str(c) for c in start], "backward": args.backward}
        back, fwd = classify_limits(x0[i], tol=1e-12)
        expected = back if args.backward else fwd
        out["expected_vertex"] = expected
        out["converged"] = bool(batch.converged[i])
        runs.append(out)
        if not out["converged"]:
            certs.append(f"start {out['start']}: {batch.unsettled(i)}")
            continue
        out["limit"] = [float(c) for c in batch.limits[i]]
        m = nearest_vertex(batch.limits[i], tol=1e-6)
        out["limit_vertex"] = m
        if m != expected:
            certs.append(
                f"start {out['start']}: limit vertex {m}, expected {expected}")
        out["height_monotone"] = bool(batch.monotone[i])
        if not out["height_monotone"]:
            certs.append(f"start {out['start']}: height not monotone")
    if args.sweep:
        checks = {"runs": runs}
    else:
        times, points = batch.path(0)
        runs[0]["times"] = [float(t) for t in times]
        runs[0]["points"] = [[float(c) for c in p] for p in points]
        checks = {"trajectory": runs[0]}
    return {"checks": checks,
            "timings": {"total": time.perf_counter() - t0}}, certs


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatforms",
        description="exact checks for flat form data over a simplicial base")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--instance", metavar="FILE",
                       help="JSON instance file")
        p.add_argument("--seed", type=int, metavar="N",
                       help="generate a deterministic instance instead")
        p.add_argument("--report", metavar="FILE",
                       help="also write the report here")

    p = sub.add_parser("validate", help="structural and flatness checks")
    common(p)
    p = sub.add_parser("extend", help="fill in missing coefficients and "
                                      "write the completed file back")
    common(p)
    p.add_argument("--to-dim", type=int, metavar="K", default=None)
    p = sub.add_parser("build-aprime", help="build the per-simplex form data")
    common(p)
    p.add_argument("--max-degree", type=int, metavar="D", default=None)
    p = sub.add_parser("build-iprime", help="build the per-simplex chain maps")
    common(p)
    p.add_argument("--max-degree", type=int, metavar="D", default=None)
    p = sub.add_parser("smooth", help="pull everything back along the "
                                      "partition of unity and recheck")
    common(p)
    p = sub.add_parser("igusa", help="reindexed relation check")
    common(p)
    p = sub.add_parser("holonomy", help="homology holonomy around triangles")
    common(p)
    p = sub.add_parser("homology", help="Betti numbers of base and fibers")
    common(p)

    p = sub.add_parser("flow", help="integrate the canonical simplex field")
    p.add_argument("--k", type=int, required=True, help="simplex dimension")
    p.add_argument("--start", metavar="C0,C1,...",
                   help="barycentric start point, rational entries")
    p.add_argument("--backward", action="store_true")
    p.add_argument("--sweep", type=int, metavar="N",
                   help="run N random starts instead of --start")
    p.add_argument("--seed", type=int, metavar="N",
                   help="RNG seed for --sweep")
    p.add_argument("--report", metavar="FILE")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        body, certs = COMMANDS[args.command](args)
    except ParseError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return 2
    except (OSError, KeyError, TypeError, ValueError) as ex:
        print(f"input error: {ex!r}", file=sys.stderr)
        return 2
    report = {"command": args.command,
              "status": "pass" if not certs else "fail",
              "certificates": certs}
    report.update(body)
    text = json.dumps(_plain(report), indent=2)
    print(text)
    if getattr(args, "report", None):
        Path(args.report).write_text(text + "\n")
    return 0 if not certs else 1


if __name__ == "__main__":
    sys.exit(main())
