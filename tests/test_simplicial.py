import re

import pytest

from flatforms.simplicial import (
    EMPTY,
    BaseComplex,
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
    with pytest.raises(ValueError,
                       match=r"^vertices not strictly increasing: \(0, 0\)$"):
        check_simplex((0, 0))
    with pytest.raises(ValueError,
                       match=r"^vertices not strictly increasing: \(2, 1\)$"):
        check_simplex((2, 1))
    assert check_simplex([0, 4, 9]) == (0, 4, 9)


def test_face_by_positions():
    assert face((3, 5, 8), (0, 2)) == (3, 8)
    assert face((3, 5, 8), (1,)) == (5,)
    with pytest.raises(ValueError,
                       match=r"^position 2 out of range for \(3, 5\)$"):
        face((3, 5), (2,))
    with pytest.raises(ValueError,
                       match=r"^positions not strictly increasing: \(2, 0\)$"):
        face((3, 5, 8), (2, 0))


def test_boundary_chain_triangle():
    assert boundary_chain((0, 1, 2)) == [(1, (1, 2)), (-1, (0, 2)), (1, (0, 1))]


def test_boundary_chain_edge_and_vertex():
    assert boundary_chain((2, 7)) == [(1, (7,)), (-1, (2,))]
    with pytest.raises(ValueError,
                       match=r"^boundary of \(4,\) is not a simplex chain$"):
        boundary_chain((4,))
    with pytest.raises(ValueError,
                       match=r"^boundary of \(\) is not a simplex chain$"):
        boundary_chain(EMPTY)


@pytest.mark.parametrize("sigma", [(0,), (0, 1), (2, 10, 11), (-1, 3)])
def test_parse_skey_inverts_skey(sigma):
    assert parse_skey(skey(sigma)) == sigma


@pytest.mark.parametrize("key", [" 0", "0, 1", "0,01", "00", "01", "+1",
                                 "-0", "1_0", "1,0", "0,0", "", "0,,1", "a"])
def test_parse_skey_rejects_every_other_spelling(key):
    # "1,0" and "0,0" are how skey would write a tuple that is no simplex
    message = (f"vertices not strictly increasing: {(int(key[0]), 0)}"
               if key in ("1,0", "0,0") else f"not a simplex key: {key!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_skey(key)


def test_facet_positions_locate_each_facet():
    sigma = (3, 5, 8, 9)
    for j in range(4):
        assert facet_positions(3, j) == face_positions(facet(sigma, j), sigma)
    assert [parity_sign(e) for e in range(-1, 3)] == [-1, 1, -1, 1]


def test_face_positions_and_not_a_face():
    assert face_positions((1, 3), (0, 1, 2, 3)) == (1, 3)
    with pytest.raises(ValueError,
                       match=r"^\(1, 5\) is not a face of \(0, 1, 2, 3\)$"):
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
    with pytest.raises(ValueError, match=r"^\(0, 3\) is not in the complex$"):
        S.require((0, 3))


def test_build_complex_duplicate():
    with pytest.raises(ValueError, match=r"^simplex listed twice: \(0, 1\)$"):
        BaseComplex([(0, 1), (0, 1)])
