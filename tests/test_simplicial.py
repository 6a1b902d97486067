import pytest

from flatforms.simplicial import (
    EMPTY,
    BaseComplex,
    DuplicateSimplex,
    IndexOutOfRange,
    NonIncreasingVertices,
    NotAFace,
    SimplexError,
    SimplexNotInComplex,
    ZeroDimensional,
    all_faces,
    boundary_chain,
    check_simplex,
    dim,
    face,
    face_positions,
    facet,
    facet_positions,
    parity_sign,
    parse_skey,
    skey,
)


def test_dim_and_empty():
    assert dim(EMPTY) == -1
    assert dim((5,)) == 0
    assert dim((0, 3, 7)) == 2


def test_check_simplex_rejects_bad_tuples():
    with pytest.raises(NonIncreasingVertices):
        check_simplex((0, 0))
    with pytest.raises(NonIncreasingVertices):
        check_simplex((2, 1))
    assert check_simplex([0, 4, 9]) == (0, 4, 9)


def test_face_by_positions():
    assert face((3, 5, 8), (0, 2)) == (3, 8)
    assert face((3, 5, 8), (1,)) == (5,)
    with pytest.raises(IndexOutOfRange):
        face((3, 5), (2,))
    with pytest.raises(NonIncreasingVertices):
        face((3, 5, 8), (2, 0))


def test_boundary_chain_triangle():
    assert boundary_chain((0, 1, 2)) == [(1, (1, 2)), (-1, (0, 2)), (1, (0, 1))]


def test_boundary_chain_edge_and_vertex():
    assert boundary_chain((2, 7)) == [(1, (7,)), (-1, (2,))]
    with pytest.raises(ZeroDimensional):
        boundary_chain((4,))
    with pytest.raises(ZeroDimensional):
        boundary_chain(EMPTY)


@pytest.mark.parametrize("sigma", [(0,), (0, 1), (2, 10, 11), (-1, 3)])
def test_parse_skey_inverts_skey(sigma):
    assert parse_skey(skey(sigma)) == sigma


@pytest.mark.parametrize("key", [" 0", "0, 1", "0,01", "00", "01", "+1",
                                 "-0", "1_0", "1,0", "0,0", "", "0,,1", "a"])
def test_parse_skey_rejects_every_other_spelling(key):
    with pytest.raises(SimplexError):
        parse_skey(key)


def test_facet_positions_locate_each_facet():
    sigma = (3, 5, 8, 9)
    for j in range(4):
        assert facet_positions(3, j) == face_positions(facet(sigma, j), sigma)
    assert [parity_sign(e) for e in range(-1, 3)] == [-1, 1, -1, 1]


def test_face_positions_and_not_a_face():
    assert face_positions((1, 3), (0, 1, 2, 3)) == (1, 3)
    with pytest.raises(NotAFace):
        face_positions((1, 5), (0, 1, 2, 3))


def test_all_faces_order():
    fs = all_faces((0, 1, 2))
    assert fs[0] == (0,)
    assert fs[-1] == (0, 1, 2)
    assert len(fs) == 7


def test_build_complex_closure_and_lookup():
    S = BaseComplex([(0, 1, 2), (1, 2, 3)])
    assert len(S) == 11  # 4 vertices, 5 edges, 2 triangles
    assert S.dim == 2
    assert (1, 2) in S
    assert (0, 3) not in S
    assert S.of_dim(1) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    with pytest.raises(SimplexNotInComplex):
        S.require((0, 3))


def test_build_complex_duplicate():
    with pytest.raises(DuplicateSimplex):
        BaseComplex([(0, 1), (0, 1)])
