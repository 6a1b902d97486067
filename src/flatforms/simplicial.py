"""Combinatorial simplices and face-closed complexes.

A simplex is a strictly increasing tuple of integer vertex ids; the
empty tuple is the empty simplex of dimension -1.  A ``BaseComplex``
is a finite set of simplices closed under taking faces, graded by
dimension.
"""

from __future__ import annotations

from itertools import combinations

Simplex = tuple[int, ...]

EMPTY: Simplex = ()


def dim(sigma: Simplex) -> int:
    return len(sigma) - 1


def check_simplex(sigma) -> Simplex:
    """Validate and return a simplex tuple (strictly increasing ints)."""
    sigma = tuple(sigma)
    for v in sigma:
        if type(v) is not int:      # a bool is an int to isinstance
            raise ValueError(f"vertex ids must be ints, got {v!r}")
    if any(a >= b for a, b in zip(sigma, sigma[1:])):
        raise ValueError(f"vertices not strictly increasing: {sigma}")
    return sigma


def skey(sigma: Simplex) -> str:
    """A simplex as a JSON key and in certificates: "0,1,2"."""
    return ",".join(map(str, sigma))


def parse_skey(key: str) -> Simplex:
    """The simplex that ``skey`` writes as ``key``.  Any other spelling
    (spaces, leading zeros, a sign on zero, vertices out of order) is
    rejected, so each simplex has one key."""
    try:
        sigma = tuple(map(int, key.split(",")))
    except ValueError:
        sigma = None
    if sigma is None or skey(sigma) != key:
        raise ValueError(f"not a simplex key: {key!r}")
    return check_simplex(sigma)


def parity_sign(e: int) -> int:
    """(-1)**e."""
    return -1 if e % 2 else 1


def face(sigma: Simplex, positions) -> Simplex:
    """Face of ``sigma`` spanned by the given vertex positions.

    ``positions`` are indices into the vertex tuple of ``sigma`` and
    must be strictly increasing.
    """
    positions = tuple(positions)
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError(f"positions not strictly increasing: {positions}")
    for p in positions:
        if not 0 <= p < len(sigma):
            raise ValueError(f"position {p} out of range for {sigma}")
    return tuple(sigma[p] for p in positions)


def facet(sigma: Simplex, j: int) -> Simplex:
    """The facet of ``sigma`` obtained by omitting the vertex at position ``j``."""
    if not 0 <= j < len(sigma):
        raise ValueError(f"position {j} out of range for {sigma}")
    return sigma[:j] + sigma[j + 1:]


def facet_positions(k: int, j: int) -> tuple[int, ...]:
    """Vertex positions of the facet of a k-simplex omitting position j."""
    return tuple(p for p in range(k + 1) if p != j)


def boundary_chain(sigma: Simplex) -> list[tuple[int, Simplex]]:
    """Signed facet list of ``sigma``: entry j is ((-1)**j, sigma minus vertex j).

    Raises ``ValueError`` for vertices and the empty simplex, whose
    boundary is not a chain of simplices.
    """
    if dim(sigma) < 1:
        raise ValueError(f"boundary of {sigma} is not a simplex chain")
    return [((-1) ** j, facet(sigma, j)) for j in range(len(sigma))]


def face_positions(tau: Simplex, sigma: Simplex) -> tuple[int, ...]:
    """Positions of the vertices of ``tau`` inside ``sigma``.

    Raises ``ValueError`` when ``tau`` is not a face of ``sigma``.
    """
    pos = []
    j = 0
    for v in tau:
        while j < len(sigma) and sigma[j] != v:
            j += 1
        if j == len(sigma):
            raise ValueError(f"{tau} is not a face of {sigma}")
        pos.append(j)
        j += 1
    return tuple(pos)


def all_faces(sigma: Simplex):
    """All nonempty faces of ``sigma`` in (dimension, lexicographic) order."""
    return [f for size in range(1, len(sigma) + 1)
            for f in combinations(sigma, size)]


class BaseComplex:
    """A finite face-closed simplicial complex.

    Simplices are identified by their vertex tuples; ``skeleta[k]``
    lists the k-simplices in lexicographic order.
    """

    def __init__(self, simplices):
        seen: set[Simplex] = set()
        given: list[Simplex] = []
        for s in simplices:
            s = check_simplex(s)
            if s == EMPTY:
                continue
            if s in seen:
                raise ValueError(f"simplex listed twice: {s}")
            seen.add(s)
            given.append(s)
        closure: set[Simplex] = set()
        for s in given:
            for f in all_faces(s):
                closure.add(f)
        self.simplices: list[Simplex] = sorted(closure, key=lambda s: (len(s), s))
        self._members = closure
        self.dim = max((dim(s) for s in self.simplices), default=-1)
        self.skeleta: dict[int, list[Simplex]] = {}
        for s in self.simplices:
            self.skeleta.setdefault(dim(s), []).append(s)

    def __contains__(self, sigma) -> bool:
        return tuple(sigma) in self._members

    def __iter__(self):
        return iter(self.simplices)

    def __len__(self) -> int:
        return len(self.simplices)

    def require(self, sigma) -> Simplex:
        sigma = tuple(sigma)
        # (True, 2) == (1, 2), so membership alone would let a bool in
        if sigma not in self._members or any(type(v) is not int
                                             for v in sigma):
            raise ValueError(f"{sigma} is not in the complex")
        return sigma

    def vertices(self) -> list[Simplex]:
        return self.skeleta.get(0, [])

    def of_dim(self, k: int) -> list[Simplex]:
        return self.skeleta.get(k, [])
