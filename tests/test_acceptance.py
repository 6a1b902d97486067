"""End-to-end acceptance run.

One test per top-level guarantee of the package; each prints a single
verdict line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them all).  Everything algebraic is checked in exact rational
arithmetic, the simplex flow included, so no check carries a
tolerance.
"""

import random
import time
from fractions import Fraction

from flatforms.flatsys import (
    cw_boundary,
    extend_system,
    fiber_homology,
    flatness_residual,
    igusa_check,
    igusa_export,
    quasi_iso_ranks,
    validate_fiber_model,
)
from flatforms.forms import PolyForm, extend_from_boundary, poincare_contract
from flatforms.instances import (
    corrupt_random_entry,
    generate,
    make_fiber_model,
    strip_to_dim,
)
from flatforms.linalg import smat_is_zero, smat_mul
from flatforms.mixed import (
    build_Iprime,
    build_mixed_connection,
    locality_check,
)
from flatforms.smoothing import (
    partition_default,
    partition_linear,
    phibar,
    validate_partition,
    verify_smoothing,
)
from flatforms.wkflow import (
    SCHEDULE,
    classify_limits,
    flow,
    height_monotone,
    is_barycentric,
    logistic_law,
    vertex_index,
    vertex_linearization,
)

from test_forms import random_form
from test_mixed import worked_edge, worked_edge_fiber
from test_wkflow import point


def verdict(n: int, name: str, problems: list, detail: str = ""):
    status = "PASS" if not problems else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"criterion {n} ({name}): {status}{tail}")
    assert not problems, "\n".join(str(p) for p in problems[:10])


def completed_instances():
    """The shared instance battery: generated, stripped to the
    1-skeleton, then re-completed by the extension solver."""
    out = []
    for seed in range(100):
        inst = generate(seed)
        out.append((seed, extend_system(strip_to_dim(inst.A, 1))))
    return out


def boundary_squares_to_zero(A) -> bool:
    d, _ = cw_boundary(A)
    return not smat_mul(d, d)


def test_criterion_1_flatness_equals_boundary_squared():
    problems = []
    t0 = time.perf_counter()
    for seed, A in completed_instances():
        if not boundary_squares_to_zero(A):
            problems.append(f"seed {seed}: completed boundary fails d^2 = 0")
            continue
        if not all(smat_is_zero(flatness_residual(A, s)) for s in A.S):
            problems.append(f"seed {seed}: completed system is not flat")
            continue
        # a single corrupted entry must trip both detectors, and the two
        # detectors must agree on every draw (a corruption can land on
        # another flat system, in which case both correctly stay quiet)
        rng = random.Random(1000 + seed)
        for _ in range(30):
            C, desc = corrupt_random_entry(rng, A)
            broke_flat = not all(smat_is_zero(flatness_residual(C, s))
                                 for s in C.S)
            broke_bd = not boundary_squares_to_zero(C)
            if broke_flat != broke_bd:
                problems.append(
                    f"seed {seed}: detectors disagree after corrupting {desc}")
                break
            if broke_flat:
                break
        else:
            problems.append(f"seed {seed}: no detectable corruption found")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s budget")
    verdict(1, "flatness equals boundary squared", problems,
            f"100 instances, {elapsed:.1f}s")


def test_criterion_2_igusa_relations():
    problems = []
    count = 0
    for seed, A in completed_instances():
        for sigma in A.S:
            bad = igusa_check(igusa_export(A, sigma))
            count += 1
            if bad:
                problems.append(
                    f"seed {seed}, simplex {sigma}: relation fails at {bad[0]}")
    verdict(2, "Igusa relations", problems, f"{count} simplices")


def test_criterion_3_simplex_flow_dynamics():
    problems = []
    t0 = time.perf_counter()
    rng = random.Random(42)
    steps = [Fraction(1, 2 ** j) for j in range(SCHEDULE + 1)] + [0]
    runs = 0
    for k in range(1, 5):
        jac, ns, nu = zip(*(vertex_linearization(k, m) for m in range(k + 1)))
        for m in range(k + 1):
            if (ns[m], nu[m]) != (m, k - m):
                problems.append(
                    f"k={k}, vertex {m}: {ns[m]} stable / {nu[m]} unstable")
        starts = []
        for _ in range(100):
            supp = rng.sample(range(k + 1), rng.randint(1, k + 1))
            weights = [rng.randint(1, 2 ** 30) if m in supp else 0
                       for m in range(k + 1)]
            starts.append(point([Fraction(w, sum(weights))
                                 for w in weights]))
        for backward in (False, True):
            way = "backward" if backward else "forward"
            for x0 in starts:
                runs += 1
                back, fwd = classify_limits(x0)
                path = [flow(x0, s, backward) for s in steps]
                if vertex_index(path[-1]) != (back if backward else fwd):
                    problems.append(f"k={k} start {x0}: wrong {way} limit")
                if not all(is_barycentric(x) and logistic_law(k, x)
                           for x in path):
                    problems.append(f"k={k} start {x0}: {way} point off "
                                    f"the simplex or off the field")
                if not height_monotone(k, path, backward):
                    problems.append(f"k={k} start {x0}: height not monotone")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s budget")
    verdict(3, "simplex flow dynamics", problems,
            f"{runs} trajectories, {elapsed:.1f}s")


def test_criterion_4_polynomial_forms_calculus():
    problems = []
    rng = random.Random(2024)
    for n in range(500):
        k = rng.randrange(0, 4)
        f = random_form(rng, k, max_poly_deg=3)
        g = random_form(rng, k, max_poly_deg=3)
        if not f.d().d().is_zero():
            problems.append(f"form {n}: d^2 != 0")
        rhs = f.d().wedge(g)
        for r in f.form_degrees():
            rhs = rhs + f.degree_part(r).wedge(g.d()).scale((-1) ** r)
        if f.wedge(g).d() != rhs:
            problems.append(f"form {n}: Leibniz fails")
        if k >= 1:
            pos = tuple(p for p in range(k + 1) if p != rng.randrange(k + 1))
            if f.restrict(pos).d() != f.d().restrict(pos):
                problems.append(f"form {n}: restriction does not commute with d")
            if f.wedge(g).restrict(pos) != f.restrict(pos).wedge(g.restrict(pos)):
                problems.append(f"form {n}: restriction is not multiplicative")
    for n in range(100):
        k = rng.randrange(1, 4)
        f = random_form(rng, k, max_poly_deg=3)
        data = [f.restrict(tuple(p for p in range(k + 1) if p != j))
                for j in range(k + 1)]
        g = extend_from_boundary(k, data)
        for j in range(k + 1):
            pos = tuple(p for p in range(k + 1) if p != j)
            if g.restrict(pos) != data[j]:
                problems.append(f"round trip {n}: facet {j} not reproduced")
    for n in range(50):
        k = rng.randrange(1, 4)
        apex = [rng.randrange(-2, 3) for _ in range(k)]
        r = rng.randrange(1, k + 1)
        f = random_form(rng, k, degrees={r})
        if poincare_contract(f, apex).d() + poincare_contract(f.d(), apex) != f:
            problems.append(f"contract {n}: homotopy identity fails")
        h = random_form(rng, k, degrees={0})
        want = h - PolyForm.const(k, h.value_at(apex))
        if poincare_contract(h.d(), apex) != want:
            problems.append(f"contract {n}: zero-form identity fails")
    verdict(4, "polynomial forms calculus", problems,
            "500 forms, 100 round trips, 50 homotopies")


def mixed_battery():
    return [generate(seed, max_dim=2, enrich=False) for seed in range(20)]


def test_criterion_5_mixed_superconnection():
    problems = []
    worst = 0.0
    for inst in mixed_battery():
        t0 = time.perf_counter()
        # a recursion value that clashes with data already built raises
        # IncompatibleBoundaryData; every other failed structure,
        # coherence or flatness check lands in data.problems
        data = build_mixed_connection(inst.A)
        problems += [f"seed {inst.seed} {c}" for c in data.problems]
        FM = make_fiber_model(inst)
        fmbad = validate_fiber_model(inst.A, FM)
        if fmbad:
            problems.append(f"seed {inst.seed}: {fmbad[0]}")
            continue
        cm = build_Iprime(data, FM)
        problems += [f"seed {inst.seed} {c}" for c in cm.problems]
        loc = locality_check(data, cm)
        if loc:
            problems.append(f"seed {inst.seed}: {loc[0]}")
        worst = max(worst, time.perf_counter() - t0)
    # gauge-enriched instances exercise the connection side only; their
    # edges are no longer pure transports, so no fiber model is claimed
    for seed in (9, 26):
        inst = generate(seed, max_dim=2, enrich=True)
        t0 = time.perf_counter()
        data = build_mixed_connection(inst.A)
        problems += [f"enriched seed {seed} {c}" for c in data.problems]
        worst = max(worst, time.perf_counter() - t0)
    if worst >= 60:
        problems.append(f"worst instance took {worst:.1f}s (budget 60s)")
    verdict(5, "mixed superconnection build", problems,
            f"22 instances, worst {worst:.1f}s")


def test_criterion_6_smoothing():
    problems = []
    A = worked_edge()
    cases = [(f"edge", A, worked_edge_fiber())]
    for seed in (3, 5, 8, 11):
        inst = generate(seed, max_dim=2, enrich=False)
        cases.append((f"seed {inst.seed}", inst.A, make_fiber_model(inst)))
    for name, A, FM in cases:
        P = partition_default(A.S)
        pbad = validate_partition(P)  # sum, star support, face restriction,
        if pbad:                      # and d(phi_v) = 0 along {x_v = 0}
            problems.append(f"{name}: {pbad[0]}")
            continue
        for sigma in A.S.of_dim(2):
            img = phibar(P, sigma, (0, Fraction(1, 4), Fraction(3, 4)))
            if img[0] != 0 or sum(img) != 1:
                problems.append(f"{name}: phibar leaves the face of {sigma}")
        data = build_mixed_connection(A)
        cm = build_Iprime(data, FM)
        problems += [f"{name}: {c}" for c in data.problems + cm.problems]
        rep = verify_smoothing(data, P, cm)
        for kind in ("flat", "c0", "first_order", "chain"):
            if rep[kind]:
                problems.append(f"{name}: {rep[kind][0]}")
        if name in ("edge", "seed 5", "seed 8", "seed 11"):
            # these carry nonzero homotopies, so skipping the smoothing
            # must be caught: B(t) = t fails exactly first-order matching
            lrep = verify_smoothing(data, partition_linear(A.S))
            if lrep["flat"] or lrep["c0"]:
                problems.append(f"{name}: linear partition broke flat/c0")
            if not lrep["first_order"]:
                problems.append(
                    f"{name}: linear partition passed first-order matching")
    verdict(6, "partition smoothing", problems,
            f"{len(cases)} instances incl. counterexample")


def test_criterion_7_quasi_isomorphism():
    problems = []
    worst = 0.0
    count_tri = 0
    batteries = [(f"seed {inst.seed}", inst.A, make_fiber_model(inst))
                 for inst in mixed_battery()]
    batteries.append(("edge", worked_edge(), worked_edge_fiber()))
    for name, A, FM in batteries:
        t0 = time.perf_counter()
        H = {v: fiber_homology(A, v) for v in A.S.vertices()}
        rep = quasi_iso_ranks(A, FM, H)
        problems += [f"{name}: {p}" for p in rep["problems"]]
        count_tri += len(rep["triangles"])
        worst = max(worst, time.perf_counter() - t0)
    if worst >= 5:
        problems.append(f"worst instance took {worst:.1f}s (budget 5s)")
    verdict(7, "fiberwise quasi-isomorphism", problems,
            f"{len(batteries)} instances, {count_tri} holonomies, "
            f"worst {worst:.2f}s")
