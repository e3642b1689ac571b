import random

import pytest

from abquiver.errors import MismatchError
from abquiver.linalg import ConcreteMatrix
from abquiver.quivers import AlgebraElement, TypedMatrix, path_basis
from abquiver.representations import Fiber, Representation
from abquiver.scalars import GF, QQ, ZZ
from abquiver.subobjects import QuotientInvariants

from test_quivers import A2, SQUARE, random_element, random_typed_matrix


def a2_rep(ring, scalar):
    return Representation(
        A2, ring,
        {"1": Fiber(ring, 1), "2": Fiber(ring, 1)},
        {"a": ConcreteMatrix(ring, [[scalar]])})


def random_representation(rng, quiver, ring, max_dim=3):
    fibers = {v: Fiber(ring, rng.randint(0, max_dim)) for v in quiver.vertices}
    mats = {}
    for arrow in quiver.arrows:
        rows = fibers[arrow.tgt].dim
        cols = fibers[arrow.src].dim
        mats[arrow.name] = ConcreteMatrix(
            ring, [[rng.randint(-2, 2) for _ in range(cols)]
                   for _ in range(rows)], rows, cols)
    return Representation(quiver, ring, fibers, mats)


def test_identity_evaluates_to_identity():
    t = a2_rep(QQ, 3)
    e1 = AlgebraElement.vertex_identity(A2, QQ, "1")
    assert t.evaluate_element(e1) == ConcreteMatrix.identity(QQ, 1)


def test_scalar_scaling():
    t = a2_rep(QQ, 1)
    x = AlgebraElement.of_arrow(A2, QQ, "a", 3)
    assert t.evaluate_element(x) == ConcreteMatrix(QQ, [[3]])


def test_commutator_of_square_routes():
    rng = random.Random(21)
    t = random_representation(rng, SQUARE, QQ)
    ba = AlgebraElement.of_path(SQUARE, QQ,
                                path_basis(SQUARE, "1", "4")[0])
    dc = AlgebraElement.of_path(SQUARE, QQ,
                                path_basis(SQUARE, "1", "4")[1])
    value = t.evaluate_element(ba.sub(dc))
    first = {p.arrows: p for p in [list(ba.terms)[0]]}
    # Direct matrix computation.
    mats = {n: t.arrow_matrix(n) for n in "abcd"}
    route_ba = mats[list(ba.terms)[0].arrows[0]].mul(
        mats[list(ba.terms)[0].arrows[1]])
    route_dc = mats[list(dc.terms)[0].arrows[0]].mul(
        mats[list(dc.terms)[0].arrows[1]])
    assert value == route_ba.sub(route_dc)


def test_functoriality_random():
    rng = random.Random(22)
    for _ in range(100):
        t = random_representation(rng, SQUARE, QQ)
        s = rng.choice(SQUARE.vertices)
        mid = rng.choice(SQUARE.vertices)
        e = rng.choice(SQUARE.vertices)
        x = random_element(rng, SQUARE, QQ, mid, e)
        y = random_element(rng, SQUARE, QQ, s, mid)
        lhs = t.evaluate_element(x.multiply(y))
        rhs = t.evaluate_element(x).mul(t.evaluate_element(y))
        assert lhs == rhs


def test_evaluate_typed_matrix_blocks():
    t = a2_rep(QQ, 1)
    e1 = AlgebraElement.vertex_identity(A2, QQ, "1")
    a = AlgebraElement.of_arrow(A2, QQ, "a")
    g = TypedMatrix(A2, QQ, ("1", "2"), ("1",), [[e1], [a]])
    assert t.evaluate_typed_matrix(g) == ConcreteMatrix(QQ, [[1], [1]])


def test_evaluate_empty_typed_matrix():
    t = a2_rep(QQ, 1)
    g = TypedMatrix.zero(A2, QQ, (), ("1", "2"))
    out = t.evaluate_typed_matrix(g)
    assert (out.rows, out.cols) == (0, 2)


def test_typed_matrix_evaluation_is_functorial():
    rng = random.Random(23)
    for _ in range(50):
        t = random_representation(rng, SQUARE, QQ, max_dim=2)
        t1 = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(1, 2)))
        t2 = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(1, 2)))
        t3 = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(1, 2)))
        g = random_typed_matrix(rng, SQUARE, QQ, t1, t2)
        h = random_typed_matrix(rng, SQUARE, QQ, t2, t3)
        assert (t.evaluate_typed_matrix(g.mul(h))
                == t.evaluate_typed_matrix(g).mul(t.evaluate_typed_matrix(h)))


def test_direct_sum_dims_and_blocks():
    t1 = a2_rep(QQ, 1)
    t2 = a2_rep(QQ, 0)
    s = t1.direct_sum(t2)
    assert s.fiber("1").dim == 2
    assert s.arrow_matrix("a") == ConcreteMatrix(QQ, [[1, 0], [0, 0]])


def test_direct_sum_with_zero_rep():
    zero = Representation(A2, QQ,
                          {"1": Fiber(QQ, 0), "2": Fiber(QQ, 0)},
                          {"a": ConcreteMatrix.zeros(QQ, 0, 0)})
    t = a2_rep(QQ, 5)
    s = t.direct_sum(zero)
    assert s.fiber("1").dim == 1
    assert s.arrow_matrix("a") == t.arrow_matrix("a")


def test_presented_fibers_descend():
    # Fiber Z/2 at both ends, arrow must send 2Z into 2Z.
    fibers = {"1": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[2]])),
              "2": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[2]]))}
    Representation(A2, ZZ, fibers, {"a": ConcreteMatrix(ZZ, [[3]])})
    bad_fibers = {"1": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[2]])),
                  "2": Fiber(ZZ, 1, None)}
    with pytest.raises(MismatchError):
        Representation(A2, ZZ, bad_fibers, {"a": ConcreteMatrix(ZZ, [[1]])})
    # Z/2 -> Z/4: the relation 2 goes to 2 * arrow, which must lie in 4Z.
    cyclic = {"1": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[2]])),
              "2": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[4]]))}
    with pytest.raises(MismatchError):
        Representation(A2, ZZ, cyclic, {"a": ConcreteMatrix(ZZ, [[1]])})
    Representation(A2, ZZ, cyclic, {"a": ConcreteMatrix(ZZ, [[2]])})
    # Z/2 -> Z^2 / <(2, 2)>: images (2, 2) descend, (2, 0) does not.
    diagonal = {"1": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[2]])),
                "2": Fiber(ZZ, 2, ConcreteMatrix(ZZ, [[2], [2]]))}
    Representation(A2, ZZ, diagonal, {"a": ConcreteMatrix(ZZ, [[1], [1]])})
    with pytest.raises(MismatchError):
        Representation(A2, ZZ, diagonal,
                       {"a": ConcreteMatrix(ZZ, [[1], [0]])})


def test_fiber_invariants():
    f = Fiber(ZZ, 2, ConcreteMatrix(ZZ, [[2], [0]]))
    assert f.invariants() == QuotientInvariants(1, (2,))
    assert Fiber(QQ, 3).invariants() == QuotientInvariants(3)


def test_shape_validation():
    with pytest.raises(MismatchError):
        Representation(A2, QQ,
                       {"1": Fiber(QQ, 1), "2": Fiber(QQ, 2)},
                       {"a": ConcreteMatrix(QQ, [[1]])})


def test_ring_mismatch_rejected():
    with pytest.raises(MismatchError):
        a2_rep(QQ, 1).evaluate_element(
            AlgebraElement.of_arrow(A2, GF(2), "a"))
