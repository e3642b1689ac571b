import random

import pytest

from abquiver.errors import EngineError, MismatchError
from abquiver.formulas import (PpFormula, PpPair, conjoin, equality_graph,
                               evaluate, implies_all, is_closed, pair_value,
                               project, sum_formula)
from abquiver.linalg import ConcreteMatrix
from abquiver.quivers import AlgebraElement, TypedMatrix
from abquiver.representations import Fiber, Representation
from abquiver.scalars import GF, QQ, ZZ
from abquiver.subobjects import QuotientInvariants

from gens import (A2, A3, SQUARE, random_formula, random_formula_on_context,
                  random_representation)


def a2_rep(ring, scalar):
    return Representation(A2, ring,
                          {"1": Fiber(ring, 1), "2": Fiber(ring, 1)},
                          {"a": ConcreteMatrix(ring, [[scalar]])})


def divisibility_formula(ring):
    """EX y:1 . a*y - x = 0 on context x:2 over A2."""
    a_el = AlgebraElement.of_arrow(A2, ring, "a")
    e2 = AlgebraElement.vertex_identity(A2, ring, "2")
    mat_a = TypedMatrix(A2, ring, ("2",), ("2",), [[e2.neg()]])
    mat_b = TypedMatrix(A2, ring, ("2",), ("1",), [[a_el]])
    return PpFormula(A2, ring, (("x", "2"),), (("y", "1"),), mat_a, mat_b)


def test_trivial_formula_full_space():
    phi = PpFormula.trivial(A2, QQ, (("x", "2"),))
    t = a2_rep(QQ, 1)
    sub = evaluate(phi, t)
    assert sub.rank == 1


def test_divisibility_depends_on_arrow():
    phi = divisibility_formula(QQ)
    assert evaluate(phi, a2_rep(QQ, 1)).rank == 1
    assert evaluate(phi, a2_rep(QQ, 0)).rank == 0


def test_conjoin_with_trivial_preserves_solutions():
    rng = random.Random(31)
    for _ in range(25):
        phi = random_formula(rng, SQUARE, QQ)
        triv = PpFormula.trivial(SQUARE, QQ, phi.context)
        both = conjoin(phi, triv)
        t = random_representation(rng, SQUARE, QQ)
        assert evaluate(both, t) == evaluate(phi, t)


def test_project_full_context_is_identity_on_solutions():
    rng = random.Random(32)
    for _ in range(20):
        phi = random_formula(rng, A3, QQ, n_bound=0)
        proj = project(phi, range(len(phi.context)))
        t = random_representation(rng, A3, QQ)
        assert evaluate(proj, t) == evaluate(phi, t)


def test_projection_moves_variables_to_bound():
    phi = PpFormula.zero(A2, QQ, (("x", "1"), ("y", "2")))
    proj = project(phi, [0])
    assert proj.context == (("x", "1"),)
    assert len(proj.bound) == 1


def test_sum_formula_zero_plus_trivial_is_full():
    zero = PpFormula.zero(A2, QQ, (("x", "2"),))
    triv = PpFormula.trivial(A2, QQ, (("x", "2"),))
    total = sum_formula(zero, triv)
    for s in (0, 1, 5):
        t = a2_rep(QQ, s)
        assert evaluate(total, t) == evaluate(triv, t)


def test_sum_formula_is_subgroup_sum():
    rng = random.Random(33)
    for _ in range(20):
        ctx = (("x", rng.choice(SQUARE.vertices)),
               ("y", rng.choice(SQUARE.vertices)))
        f = random_formula_on_context(rng, SQUARE, QQ, ctx)
        g = random_formula_on_context(rng, SQUARE, QQ, ctx)
        t = random_representation(rng, SQUARE, QQ)
        total = evaluate(sum_formula(f, g), t)
        assert total == evaluate(f, t).sum(evaluate(g, t))


def test_context_mismatch_errors():
    f = PpFormula.trivial(A2, QQ, (("x", "1"),))
    g = PpFormula.trivial(A2, QQ, (("x", "2"),))
    with pytest.raises(MismatchError):
        conjoin(f, g)
    with pytest.raises(MismatchError):
        implies_all(f, g)


def test_pair_value_identity_functor():
    top = PpFormula.trivial(A2, QQ, (("x", "2"),))
    bottom = PpFormula.zero(A2, QQ, (("x", "2"),))
    pair = PpPair(top, bottom)
    assert pair_value(pair, a2_rep(QQ, 1)) == QuotientInvariants(1)


def test_pair_value_torsion_over_z():
    tz = Representation(A2, ZZ, {"1": Fiber(ZZ, 1), "2": Fiber(ZZ, 1)},
                        {"a": ConcreteMatrix(ZZ, [[1]])})
    two = AlgebraElement.vertex_identity(A2, ZZ, "2").scale(2)
    e2 = AlgebraElement.vertex_identity(A2, ZZ, "2")
    bottom = PpFormula(A2, ZZ, (("x", "2"),), (("y", "2"),),
                       TypedMatrix(A2, ZZ, ("2",), ("2",), [[e2.neg()]]),
                       TypedMatrix(A2, ZZ, ("2",), ("2",), [[two]]))
    top = PpFormula.trivial(A2, ZZ, (("x", "2"),))
    pair = PpPair(top, bottom)
    assert pair_value(pair, tz) == QuotientInvariants(0, (2,))


def test_equal_top_bottom_pair_is_closed_everywhere():
    rng = random.Random(34)
    for _ in range(10):
        phi = random_formula(rng, A3, QQ)
        pair = PpPair(phi, phi)
        t = random_representation(rng, A3, QQ)
        assert is_closed(pair, t)


def test_closedness_of_divisibility_pair():
    ring = QQ
    top = PpFormula.trivial(A2, ring, (("x", "2"),))
    pair = PpPair(top, divisibility_formula(ring))
    assert is_closed(pair, a2_rep(ring, 1))
    assert not is_closed(pair, a2_rep(ring, 0))


def test_implies_all_basics():
    phi = divisibility_formula(QQ)
    triv = PpFormula.trivial(A2, QQ, (("x", "2"),))
    zero = PpFormula.zero(A2, QQ, (("x", "2"),))
    assert implies_all(zero, phi)
    assert implies_all(phi, triv)
    assert not implies_all(triv, phi)
    assert implies_all(phi, conjoin(phi, triv))


def test_implies_all_monotone_soundness():
    rng = random.Random(35)
    checked = 0
    while checked < 25:
        quiver = rng.choice([A2, A3])
        phi = random_formula(rng, quiver, QQ)
        psi = random_formula_on_context(rng, quiver, QQ, phi.context)
        if implies_all(phi, psi):
            for _ in range(5):
                t = random_representation(rng, quiver, QQ)
                assert evaluate(psi, t).contains(evaluate(phi, t))
        checked += 1


def test_evaluate_is_subfunctor():
    # Componentwise intertwiners send solution sets into solution sets.
    rng = random.Random(36)
    for _ in range(40):
        quiver = rng.choice([A2, A3])
        t = random_representation(rng, quiver, QQ)
        phi = random_formula(rng, quiver, QQ)
        sub = evaluate(phi, t)
        # scaling by 2 is an intertwiner t -> t
        for row in sub.rows:
            doubled = tuple(x * 2 for x in row)
            assert sub.contains_vector(doubled)
        # the diagonal embedding is an intertwiner t -> t (+) t
        double_rep = t.direct_sum(t)
        sub2 = evaluate(phi, double_rep)
        offsets = {}
        pos = 0
        for _, sort in phi.context:
            offsets[pos] = t.fiber(sort).dim
            pos += 1
        for row in sub.rows:
            diag = []
            cursor = 0
            for _, sort in phi.context:
                d = t.fiber(sort).dim
                block = row[cursor:cursor + d]
                diag.extend(block + block)
                cursor += d
            assert sub2.contains_vector(tuple(diag))


def test_direct_sum_compatibility():
    rng = random.Random(37)
    for _ in range(20):
        quiver = rng.choice([A2, A3])
        t1 = random_representation(rng, quiver, QQ)
        t2 = random_representation(rng, quiver, QQ)
        phi = random_formula(rng, quiver, QQ)
        s1 = evaluate(phi, t1)
        s2 = evaluate(phi, t2)
        s12 = evaluate(phi, t1.direct_sum(t2))
        # Dimensions add: the solution space of the direct sum is the direct
        # sum of the solution spaces under the coordinate reshuffle.
        assert s12.rank == s1.rank + s2.rank


def test_equality_graph():
    g = equality_graph(A2, QQ, (("x", "2"),))
    t = a2_rep(QQ, 1)
    sub = evaluate(g, t)
    assert sub.rank == 1
    assert sub.contains_vector((3, 3))
    assert not sub.contains_vector((1, 0))


def test_empty_context_rejected():
    with pytest.raises(EngineError):
        PpFormula.trivial(A2, QQ, ())
