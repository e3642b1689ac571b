import pytest

from abquiver.errors import EngineError
from abquiver.scalars import GF, QQ, ZZ
from abquiver.simplicial import (RelativeHomology, SimplicialComplex,
                                 SimplicialMap, SimplicialPair,
                                 boundary_matrix, chain_map_matrix,
                                 connecting_chain)
from abquiver.subobjects import QuotientInvariants

from oracles import brute_relative_homology


def circle():
    return SimplicialComplex([("v0", "v1"), ("v1", "v2"), ("v0", "v2")])


def disc():
    return SimplicialComplex.full_simplex(("v0", "v1", "v2"))


def point():
    return SimplicialComplex([("v0",)])


def klein_bottle():
    def v(i, j):
        if i == 3:
            return "k0%d" % ((-j) % 3)
        return "k%d%d" % (i % 3, j % 3)

    faces = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            faces.append((a, b, c))
            faces.append((b, c, d))
    return SimplicialComplex(faces)


def torus(m):
    def v(i, j):
        return "t%d_%d" % (i % m, j % m)

    faces = []
    for i in range(m):
        for j in range(m):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            faces.append((a, b, c))
            faces.append((b, c, d))
    loop = SimplicialComplex([(v(i, 0), v(i + 1, 0)) for i in range(m)])
    return SimplicialComplex(faces), loop


def homology(pair, degree, ring=ZZ):
    return RelativeHomology(pair, degree, ring).invariants()


def test_downward_closure():
    c = SimplicialComplex([("a", "b", "c")])
    assert len(c.faces_of_dim(1)) == 3
    assert len(c.faces_of_dim(0)) == 3


def test_subcomplex_validation():
    with pytest.raises(EngineError):
        SimplicialPair(circle(), SimplicialComplex([("x",)]))


def test_boundary_squares_to_zero():
    kb = klein_bottle()
    pair = SimplicialPair(kb, SimplicialComplex.empty())
    b2 = boundary_matrix(pair, 2, ZZ)
    b1 = boundary_matrix(pair, 1, ZZ)
    assert b1.mul(b2).is_zero()


def test_circle_homology():
    pair = SimplicialPair(circle(), SimplicialComplex.empty())
    assert homology(pair, 1) == QuotientInvariants(1)
    assert homology(pair, 0) == QuotientInvariants(1)
    assert brute_relative_homology(circle().faces, [], 1) == (1, [])


def test_disc_rel_boundary():
    pair = SimplicialPair(disc(), disc().skeleton(1))
    assert homology(pair, 2) == QuotientInvariants(1)
    assert homology(pair, 1) == QuotientInvariants(0)
    assert brute_relative_homology(disc().faces, disc().skeleton(1).faces,
                                   2) == (1, [])
    assert brute_relative_homology(disc().faces, disc().skeleton(1).faces,
                                   1) == (0, [])


def test_klein_bottle_is_closed_surface():
    kb = klein_bottle()
    assert len(kb.vertices) == 9
    assert len(kb.faces_of_dim(2)) == 18
    assert len(kb.faces_of_dim(1)) == 27
    edge_count = {}
    for tri in kb.faces_of_dim(2):
        for k in range(3):
            edge = tuple(sorted(tri[:k] + tri[k + 1:]))
            edge_count[edge] = edge_count.get(edge, 0) + 1
    assert all(c == 2 for c in edge_count.values())


def test_klein_bottle_homology():
    pair = SimplicialPair(klein_bottle(), SimplicialComplex.empty())
    assert homology(pair, 0) == QuotientInvariants(1)
    assert homology(pair, 1) == QuotientInvariants(1, (2,))
    assert homology(pair, 2) == QuotientInvariants(0)
    assert brute_relative_homology(klein_bottle().faces, [], 1) == (1, [2])
    # Over Q the torsion disappears; over F_2 it contributes ranks.
    qpair = RelativeHomology(pair, 1, QQ)
    assert qpair.invariants() == QuotientInvariants(1)
    f2pair = RelativeHomology(pair, 1, GF(2))
    assert f2pair.invariants() == QuotientInvariants(2)
    assert RelativeHomology(pair, 2, GF(2)).invariants() \
        == QuotientInvariants(1)


def test_cone_is_acyclic():
    for n in (2, 3, 4):
        cone = SimplicialComplex.full_simplex(
            tuple("v%d" % k for k in range(n + 1)))
        pair = SimplicialPair(cone, SimplicialComplex.empty())
        assert homology(pair, 0) == QuotientInvariants(1)
        for d in range(1, n + 2):
            assert homology(pair, d).is_trivial()
            assert RelativeHomology(pair, d, QQ).invariants().is_trivial()


def test_degree_outside_range_is_zero_fiber():
    pair = SimplicialPair(circle(), SimplicialComplex.empty())
    assert homology(pair, 5).is_trivial()


def test_chain_map_functoriality_on_homology():
    # Rotation of the circle: degree-preserving automorphism.
    rot = {"v0": "v1", "v1": "v2", "v2": "v0"}
    c = circle()
    pair = SimplicialPair(c, SimplicialComplex.empty())
    f = SimplicialMap(pair, pair, rot)
    h = RelativeHomology(pair, 1, ZZ)
    chain = chain_map_matrix(f, 1, ZZ)
    gens = h.generator_chains()
    # f induces the identity on H_1 of the circle (rotation is homotopic to
    # the identity), and f . f agrees with the composite chain map.
    twice = chain_map_matrix(
        SimplicialMap(pair, pair, {v: rot[rot[v]] for v in rot}), 1, ZZ)
    assert chain.mul(chain) == twice
    for gen in gens:
        # Class vectors are canonical, so equal classes compare equal.
        assert h.class_of_chain(chain.apply(gen)) == h.class_of_chain(gen)


def test_connecting_chain_rejects_non_cycles():
    pair_xy = SimplicialPair(disc(), disc().skeleton(1))
    pair_yz = SimplicialPair(disc().skeleton(1), point())
    with pytest.raises(EngineError):
        # the 2-simplex with coefficient 1 is a relative cycle; a random
        # 1-chain inside (X, Y) has no 1-faces at all, so fabricate a bad
        # vector in degree 2 of a bigger complex instead
        big = SimplicialComplex([("v0", "v1", "v2"), ("v1", "v2", "v3")])
        bad_pair = SimplicialPair(big, SimplicialComplex([("v0",)]))
        target = SimplicialPair(SimplicialComplex([("v0",)]),
                                SimplicialComplex.empty())
        connecting_chain(ZZ, bad_pair, target, (1, 0), 2)


def test_relative_homology_of_pair_over_f2():
    pair = SimplicialPair(disc(), disc().skeleton(1))
    assert RelativeHomology(pair, 2, GF(2)).invariants() \
        == QuotientInvariants(1)


def test_integer_fibers_have_one_generator_per_invariant_factor():
    # H_1 of a 4x4 torus relative to a loop is Z: its cycle space has 32
    # generators, the fiber keeps one.
    x, loop = torus(4)
    fiber = RelativeHomology(SimplicialPair(x, loop), 1, ZZ).fiber()
    assert fiber.dim == 1
    assert fiber.relations is None
    # H_1 of the Klein bottle is Z/2 + Z: the torsion coordinate first.
    pair = SimplicialPair(klein_bottle(), SimplicialComplex.empty())
    fiber = RelativeHomology(pair, 1, ZZ).fiber()
    assert fiber.dim == 2
    assert fiber.relation_columns() == [(2, 0)]


def test_generator_chains_have_unit_classes():
    x, loop = torus(3)
    empty = SimplicialComplex.empty()
    pairs = [SimplicialPair(x, loop), SimplicialPair(x, empty),
             SimplicialPair(klein_bottle(), empty),
             SimplicialPair(disc(), disc().skeleton(1)),
             SimplicialPair(circle(), point())]
    for pair in pairs:
        for ring in (ZZ, QQ, GF(2)):
            for degree in range(3):
                h = RelativeHomology(pair, degree, ring)
                gens = h.generator_chains()
                assert len(gens) == h.dim == h.fiber().dim
                for j, gen in enumerate(gens):
                    unit = tuple(ring.one() if i == j else ring.zero()
                                 for i in range(h.dim))
                    assert h.class_of_chain(gen) == unit
