import random

import pytest

from abquiver.errors import CyclicQuiverUnsupported, EngineError, MismatchError
from abquiver.quivers import AlgebraElement, Quiver, TypedMatrix, path_basis
from abquiver.scalars import GF, QQ, ZZ


A2 = Quiver(["1", "2"], [("a", "1", "2")])
SQUARE = Quiver(["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "4"),
                 ("c", "1", "3"), ("d", "3", "4")])


def elem(quiver, ring, name):
    return AlgebraElement.of_arrow(quiver, ring, name)


def test_local_identity_absorbs():
    a = elem(A2, QQ, "a")
    e2 = AlgebraElement.vertex_identity(A2, QQ, "2")
    e1 = AlgebraElement.vertex_identity(A2, QQ, "1")
    assert e2.multiply(a) == a
    assert a.multiply(e1) == a


def test_noncomposable_product_is_zero():
    a = elem(A2, QQ, "a")
    assert a.multiply(a).is_zero()


def test_bilinearity():
    q = Quiver(["1", "2", "3"],
               [("a", "2", "3"), ("b", "2", "3"), ("c", "1", "2")])
    a, b, c = (elem(q, QQ, n) for n in "abc")
    lhs = a.add(b.scale(2)).multiply(c)
    rhs = a.multiply(c).add(b.multiply(c).scale(2))
    assert lhs == rhs


def test_ring_mismatch():
    with pytest.raises(MismatchError):
        elem(A2, QQ, "a").multiply(elem(A2, ZZ, "a"))


def test_path_basis_a2():
    assert [p.arrows for p in path_basis(A2, "1", "2")] == [("a",)]
    assert path_basis(A2, "2", "1") == []


def test_path_basis_square_lists_both_routes():
    paths = path_basis(SQUARE, "1", "4")
    assert len(paths) == 2
    assert {p.arrows for p in paths} == {("b", "a"), ("d", "c")}
    assert all(len(p) == 2 for p in paths)


def test_path_order_by_length_then_arrow_index():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "1")])
    with pytest.raises(CyclicQuiverUnsupported):
        path_basis(q, "1", "2")  # b is a loop


def test_is_acyclic():
    assert A2.is_acyclic()
    loop = Quiver(["1"], [("l", "1", "1")])
    assert not loop.is_acyclic()
    cyc = Quiver(["1", "2", "3"],
                 [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    assert not cyc.is_acyclic()


def test_cycle_reported():
    cyc = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(CyclicQuiverUnsupported) as err:
        path_basis(cyc, "1", "2")
    assert err.value.cycle


def test_dimension_matches_transitive_closure_count():
    for quiver in (A2, SQUARE):
        n = len(quiver.vertices)
        # Transitive-closure path counting via adjacency powers.
        adj = [[0] * n for _ in range(n)]
        for arrow in quiver.arrows:
            adj[quiver.vertex_index(arrow.src)][quiver.vertex_index(arrow.tgt)] += 1
        total = n  # identity paths
        power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(n):
            power = [[sum(power[i][k] * adj[k][j] for k in range(n))
                      for j in range(n)] for i in range(n)]
            total += sum(sum(row) for row in power)
        assert sum(len(path_basis(quiver, s, t)) for s in quiver.vertices
                   for t in quiver.vertices) == total


def random_element(rng, quiver, ring, src, tgt):
    paths = path_basis(quiver, src, tgt)
    terms = {}
    for p in paths:
        if rng.random() < 0.6:
            terms[p] = rng.randint(-3, 3)
    return AlgebraElement(quiver, ring, src, tgt, terms)


def test_associativity_random():
    rng = random.Random(11)
    quivers = [A2, SQUARE,
               Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])]
    count = 0
    while count < 1000:
        quiver = rng.choice(quivers)
        vs = quiver.vertices
        s = rng.choice(vs)
        t = rng.choice(vs)
        u = rng.choice(vs)
        v = rng.choice(vs)
        x = random_element(rng, quiver, QQ, u, v)
        y = random_element(rng, quiver, QQ, t, u)
        z = random_element(rng, quiver, QQ, s, t)
        assert x.multiply(y).multiply(z) == x.multiply(y.multiply(z))
        count += 1


def test_local_identities_random():
    rng = random.Random(12)
    for _ in range(200):
        s = rng.choice(SQUARE.vertices)
        t = rng.choice(SQUARE.vertices)
        x = random_element(rng, SQUARE, GF(5), s, t)
        et = AlgebraElement.vertex_identity(SQUARE, GF(5), t)
        es = AlgebraElement.vertex_identity(SQUARE, GF(5), s)
        assert et.multiply(x) == x
        assert x.multiply(es) == x


def random_typed_matrix(rng, quiver, ring, row_types, col_types):
    entries = [[random_element(rng, quiver, ring, c, r) for c in col_types]
               for r in row_types]
    return TypedMatrix(quiver, ring, row_types, col_types, entries)


def test_matrix_identity_law():
    rng = random.Random(13)
    for _ in range(40):
        rt = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(0, 3)))
        ct = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(0, 3)))
        h = random_typed_matrix(rng, SQUARE, QQ, rt, ct)
        assert TypedMatrix.identity(SQUARE, QQ, rt).mul(h) == h
        assert h.mul(TypedMatrix.identity(SQUARE, QQ, ct)) == h


def test_matrix_associativity_random():
    rng = random.Random(14)
    for _ in range(60):
        t1 = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(1, 2)))
        t2 = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(1, 2)))
        t3 = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(1, 2)))
        t4 = tuple(rng.choice(SQUARE.vertices) for _ in range(rng.randint(1, 2)))
        g = random_typed_matrix(rng, SQUARE, QQ, t1, t2)
        h = random_typed_matrix(rng, SQUARE, QQ, t2, t3)
        k = random_typed_matrix(rng, SQUARE, QQ, t3, t4)
        assert g.mul(h).mul(k) == g.mul(h.mul(k))


def test_1x1_matrix_product_reduces_to_multiply():
    rng = random.Random(15)
    x = random_element(rng, A2, QQ, "1", "2")
    e1 = AlgebraElement.vertex_identity(A2, QQ, "1")
    g = TypedMatrix(A2, QQ, ("2",), ("1",), [[x]])
    h = TypedMatrix(A2, QQ, ("1",), ("1",), [[e1]])
    assert g.mul(h).entries[0][0] == x.multiply(e1)


def test_matrix_type_mismatch():
    g = TypedMatrix.identity(A2, QQ, ("1",))
    h = TypedMatrix.identity(A2, QQ, ("2",))
    with pytest.raises(MismatchError):
        g.mul(h)


def test_entry_typing_enforced():
    a = elem(A2, QQ, "a")
    with pytest.raises(MismatchError):
        TypedMatrix(A2, QQ, ("1",), ("1",), [[a]])


def test_duplicate_names_rejected():
    with pytest.raises(EngineError):
        Quiver(["1", "1"], [])
    with pytest.raises(EngineError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "1", "2")])
