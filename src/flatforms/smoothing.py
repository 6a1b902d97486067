"""Partition-of-unity smoothing of the per-simplex form data.

The connection forms built in :mod:`flatforms.mixed` live simplex by
simplex and agree on shared faces, but their normal components jump
when crossing a face.  Reparametrizing each simplex by the self-map
whose barycentric components are a normalized bump of the original
coordinates removes the jump to first order: the differential of each
component vanishes along the faces where that coordinate is zero, so
pulling back kills every non-tangential contribution there.

Everything stays rational.  The default bump B(t) = t^2(3-2t) gives
component images B(x_v)/Q with the simplex-wide normalizer
Q = sum_v B(x_v), so pullbacks are :class:`flatforms.mixed.FormMatrix`
values over Q: each entry is a polynomial form p over its own power
Q^e, built by the homogenised substitution
:func:`flatforms.forms.ratio_pullback`.  It is the same matrix type as
the unsmoothed data, which is the case Q = 1.  A constant entry stays at
e = 0, and the powers of Q come from one cache per simplex.  All checks
cross-multiply instead of dividing, entry by entry, making them exact;
Q restricts to the corresponding normalizer of every face because
B(0) = 0.
``verify_smoothing`` checks the smoothed data in one walk over the
simplices, with the flatness and chain identities of :mod:`flatforms.mixed`
and the facet vanishing test ``PolyForm.vanishes_on_facet``.  Forms are
handled through their methods only; their term layout stays in
:mod:`flatforms.forms`.
This module sits on the form layer only: the quasi-isomorphism
bookkeeping of the constant fiber data (Betti numbers of (Omega, D),
holonomy on fiber homology) is in :mod:`flatforms.flatsys`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .forms import PolyForm, Powers, ratio_pullback
from .linalg import Q, qint, qx
from .mixed import (
    ChainMapData,
    FormMatrix,
    MixedConnectionData,
    intertwines,
    is_flat_connection,
)
from .simplicial import EMPTY, BaseComplex, Simplex, dim, face_positions, facet


# ---------------------------------------------------------------------------
# partitions of unity
# ---------------------------------------------------------------------------


def _bump_cubic(x: PolyForm) -> PolyForm:
    """B(x) = 3x^2 - 2x^3 for a 0-form x."""
    x2 = x.wedge(x)
    return x2.scale(3) - x2.wedge(x).scale(2)


@dataclass
class PartitionOfUnity:
    """Per simplex, the numerators of phi_v for its vertices v, over a
    common denominator.

    A vertex not in sigma has no entry over sigma: its function is
    identically zero there, which is what keeps phi supported in open
    stars.  Genuinely polynomial partitions use denominator 1.
    """

    S: BaseComplex
    num: dict = field(default_factory=dict)   # (sigma, v) -> PolyForm, 0-form
    den: dict = field(default_factory=dict)   # sigma -> PolyForm, 0-form

    def to_json(self) -> dict:
        return {
            "num": [{"sigma": list(s), "v": v, "form": p.to_json()}
                    for (s, v), p in sorted(self.num.items())],
            "den": [{"sigma": list(s), "form": p.to_json()}
                    for s, p in sorted(self.den.items())],
        }

    @classmethod
    def from_json(cls, S: BaseComplex, data: dict) -> "PartitionOfUnity":
        """The partition in ``data``: every simplex of ``S`` needs its
        denominator and a numerator per vertex, each on its own chart."""
        P = cls(S)

        def form(item):
            sigma = S.require(item["sigma"])
            p = PolyForm.from_json(item["form"])
            if p.k != dim(sigma):
                raise ValueError(f"form on {sigma} is on a {p.k}-chart")
            return sigma, p

        for item in data["num"]:
            sigma, p = form(item)
            P.num[(sigma, qint(item["v"]))] = p
        P.den.update(form(item) for item in data["den"])
        for s in S:
            if s not in P.den or any((s, v) not in P.num for v in s):
                raise ValueError(f"partition does not cover {s}")
        return P


def partition_default(S: BaseComplex) -> PartitionOfUnity:
    """phi_v = B(x_v) / sum_w B(x_w) with the cubic bump."""
    P = PartitionOfUnity(S)
    for sigma in S:
        l = dim(sigma)
        total = PolyForm.zero(l)
        for j, v in enumerate(sigma):
            n = _bump_cubic(PolyForm.coordinate(l, j))
            P.num[(sigma, v)] = n
            total = total + n
        P.den[sigma] = total
    return P


def partition_linear(S: BaseComplex) -> PartitionOfUnity:
    """phi_v = x_v: a valid partition whose differentials do not vanish
    along the faces.  The induced self-map is the identity, so this is
    the "no smoothing" baseline; first-order matching fails on it."""
    P = PartitionOfUnity(S)
    for sigma in S:
        l = dim(sigma)
        for j, v in enumerate(sigma):
            P.num[(sigma, v)] = PolyForm.coordinate(l, j)
        P.den[sigma] = PolyForm.one(l)
    return P


def _facets(sigma: Simplex) -> list:
    """(j, the facet omitting vertex j, its vertex positions in sigma) for
    every facet of sigma that is itself a simplex."""
    return [(j, facet(sigma, j), face_positions(facet(sigma, j), sigma))
            for j in range(len(sigma)) if len(sigma) > 1]


def validate_partition(P: PartitionOfUnity) -> list[str]:
    """Sum to one, star support, restriction coherence between faces,
    positivity samples for the denominator, and first-order flatness of
    every phi_v along its zero face."""
    problems = []
    for sigma in P.S:
        l = dim(sigma)
        den = P.den[sigma]
        total = PolyForm.zero(l)
        for v in sigma:
            total = total + P.num[(sigma, v)]
        if total != den:
            problems.append(f"partition does not sum to one on {sigma}")
        for (s, v) in P.num:
            if s == sigma and v not in sigma:
                problems.append(f"phi_{v} carried on {sigma} outside its star")
        samples = [tuple(Q(1, l + 1) for _ in range(l))]
        samples += [tuple(Q(1) if t == i else Q(0) for t in range(l))
                    for i in range(l)] + [tuple(Q(0) for _ in range(l))]
        for pt in samples:
            if den.value_at(pt) <= 0:
                problems.append(f"denominator not positive on {sigma} at {pt}")
                break
        for _j, tau, pos in _facets(sigma):
            if P.den[sigma].restrict(pos) != P.den[tau]:
                problems.append(
                    f"denominator on {sigma} does not restrict to {tau}")
                continue
            for v in tau:
                if P.num[(sigma, v)].restrict(pos) != P.num[(tau, v)]:
                    problems.append(
                        f"phi_{v} on {sigma} does not restrict to {tau}")
        # d(phi_v) = (den dN - N dden) / den^2 must die on {x_v = 0}
        for j, v in enumerate(sigma):
            if l == 0:
                continue
            n = P.num[(sigma, v)]
            w = den.wedge(n.d()) - den.d().wedge(n)
            if not w.vanishes_on_facet(j):
                problems.append(
                    f"d(phi_{v}) does not vanish on the face x_{v}=0 of {sigma}")
    return problems


def phibar(P: PartitionOfUnity, sigma: Simplex, point) -> tuple:
    """Image of a point of |sigma| under the partition self-map.

    ``point`` and the result are barycentric tuples over the vertices
    of sigma.
    """
    l = dim(sigma)
    pt = [qx(c) for c in point]
    if len(pt) != l + 1:
        raise ValueError("point has wrong length")
    chart = pt[1:]
    vals = [P.num[(sigma, v)].value_at(chart) for v in sigma]
    total = P.den[sigma].value_at(chart)
    if total == 0:
        raise ZeroDivisionError(f"partition denominator vanishes at {point}")
    return tuple(v / total for v in vals)


# read by perfbench/tracer.py; goes when ROADMAP item 1 deletes the tracer
RatioMatrix = FormMatrix


def pullback_matrix(fm: FormMatrix, P: PartitionOfUnity, sigma: Simplex,
                    powers: Optional[Powers] = None) -> FormMatrix:
    """Pull a matrix of forms on |sigma| back along the partition
    self-map, entry by entry: the collapse onto sigma itself."""
    return face_collapse_pullback(P, sigma, sigma, fm, powers)


def face_collapse_pullback(P: PartitionOfUnity, sigma: Simplex, tau: Simplex,
                           fm_tau: FormMatrix, powers: Optional[Powers] = None
                           ) -> FormMatrix:
    """Pull a matrix on |tau| back to |sigma| along the composite of the
    partition self-map with the projection onto tau.

    The components are the phi of tau's vertices over sigma's
    denominator, so on the face itself the composite agrees with the
    self-map; off the face it is the first-order model the smoothing is
    compared against.  Each entry comes out over its own power of the
    denominator, taken from ``powers``, the powers of ``P.den[sigma]``
    (built here when not given).  ``fm_tau`` must be polynomial: every
    exponent 0.
    """
    if fm_tau.e:
        raise ValueError("only a polynomial matrix pulls back")
    if powers is None:
        powers = Powers(P.den[sigma])
    nums = {t: P.num[(sigma, v)] for t, v in enumerate(tau[1:], start=1)}
    entries = list(fm_tau.entries())
    pulled = ratio_pullback([p for _r, _c, p, _e in entries], dim(sigma),
                            nums, powers)
    out = FormMatrix(dim(sigma), fm_tau.deg, powers)
    for (r, c, _p, _e), (q, e) in zip(entries, pulled):
        out.set_entry(r, c, q, e)
    return out


# ---------------------------------------------------------------------------
# the smoothed data
# ---------------------------------------------------------------------------


def verify_smoothing(data: MixedConnectionData, P: PartitionOfUnity,
                     cm: Optional[ChainMapData] = None) -> dict:
    """Flatness, cross-face agreement and first-order normal matching of
    the pulled-back connection, as exact identities; with ``cm``, also
    the chain identity and cross-face agreement of the pulled-back
    chain maps.  Returns the problems of each check under ``flat``,
    ``c0`` and ``first_order`` (and ``chain`` with ``cm``).

    One walk in dimension order pulls a'(sigma, empty), and with ``cm``
    I'(sigma, empty), back along the partition self-map, so each facet's
    pullback is at hand when sigma is compared with it.  A denominator
    that does not restrict to a facet is reported under ``c0`` and
    ``chain``.

    First-order matching at a facet asks for more than agreement of the
    tangential restrictions: at points of the face, every component of
    the pulled-back form -- the ones involving the conormal direction
    included -- must be the value predicted by the face's own data,
    pulled back along the collapse onto that face.  Smoothing makes
    this work by flattening the map against each face; a partition
    whose bump has nonzero slope at the ends (the piecewise-linear one,
    say) leaves genuinely normal terms behind and fails here.  An entry
    p / Q^e of the difference vanishes on the facet exactly when p
    does, because Q is positive on the closed simplex.
    """
    report = {"flat": [], "c0": [], "first_order": []}
    if cm is not None:
        report["chain"] = []
    glob = {}   # sigma -> (pulled-back a', pulled-back I' or None)
    for sigma in data.A.S:
        powers = Powers(P.den[sigma])
        g = pullback_matrix(data.get(sigma, EMPTY), P, sigma, powers)
        ig = (pullback_matrix(cm.value(sigma, EMPTY), P, sigma, powers)
              if cm is not None else None)
        glob[sigma] = g, ig
        if not is_flat_connection(g):
            report["flat"].append(f"pullback over {sigma} is not flat")
        if cm is not None and not intertwines(ig, g, cm.FM.D):
            report["chain"].append(f"global chain identity fails over {sigma}")
        for j, tau, pos in _facets(sigma):
            if P.den[sigma].restrict(pos) != P.den[tau]:
                msg = f"denominator of {sigma} does not restrict to {tau}"
                report["c0"].append(msg)
                if cm is not None:
                    report["chain"].append(msg)
                continue
            g_tau, ig_tau = glob[tau]
            if not g.restrict(pos, g_tau.powers).eq(g_tau):
                report["c0"].append(
                    f"global form on {sigma} does not restrict to {tau}")
            if cm is not None and not ig.restrict(pos, g_tau.powers).eq(ig_tau):
                report["chain"].append(
                    f"global chain map on {sigma} does not restrict to {tau}")
            rhs = face_collapse_pullback(P, sigma, tau, data.get(tau, EMPTY),
                                         powers)
            for r, c, p, _e in g.sub(rhs).entries():
                if not p.vanishes_on_facet(j):
                    report["first_order"].append(
                        f"block {r}<-{c} on {sigma} is not determined by "
                        f"its face {tau} to first order")
                    break
    return report
