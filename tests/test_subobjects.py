import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from abquiver import abcat, linalg
from abquiver.abcat import DiagramEmbedding, compose
from abquiver.errors import MismatchError
from abquiver.linalg import (ConcreteMatrix, field_kernel,
                             hermite_normal_form, integer_kernel)
from abquiver.representations import Fiber, Representation
from abquiver.scalars import GF, QQ, ZZ
from abquiver.subobjects import (Ambient, QuotientInvariants,
                                 QuotientPresentation, SubobjectData,
                                 invariants_of_presentation)

from gens import A3
from oracles import abelian_invariants, rational_rank


def test_quotient_z2_by_2z_plus_z():
    # Oracle: SNF of the inclusion matrix diag(2, 1) has factors 1, 2.
    ambient = Ambient(ZZ, (2,), ("v",))
    larger = ambient.full()
    smaller = SubobjectData(ambient, [(2, 0), (0, 1)])
    inv = larger.quotient_by(smaller)
    assert inv == QuotientInvariants(0, (2,))
    free, torsion = abelian_invariants(2, [(2, 0), (0, 1)])
    assert (inv.free_rank, list(inv.torsion)) == (free, torsion)


def test_intersection_of_axes_is_zero():
    ambient = Ambient(QQ, (2,), ("v",))
    u = SubobjectData(ambient, [(1, 0)])
    w = SubobjectData(ambient, [(0, 1)])
    assert u.intersection(w) == ambient.zero_subobject()


def test_sum_of_two_lines_is_plane():
    # Oracle: the rank of the stacked generators is 2.
    assert rational_rank([[1, 1], [1, -1]]) == 2
    ambient = Ambient(QQ, (2,), ("v",))
    u = SubobjectData(ambient, [(1, 1)])
    w = SubobjectData(ambient, [(1, -1)])
    assert u.sum(w) == ambient.full()


def test_membership():
    ambient = Ambient(ZZ, (2,), ("v",))
    sub = SubobjectData(ambient, [(2, 0)])
    assert sub.contains_vector((4, 0))
    assert not sub.contains_vector((1, 0))


def test_ambient_mismatch():
    a1 = Ambient(QQ, (2,), ("v",))
    a2 = Ambient(QQ, (3,), ("v",))
    with pytest.raises(MismatchError):
        SubobjectData(a1, [(1, 0)]).sum(SubobjectData(a2, [(1, 0, 0)]))


def test_quotient_requires_containment():
    ambient = Ambient(QQ, (2,), ("v",))
    u = SubobjectData(ambient, [(1, 0)])
    w = SubobjectData(ambient, [(0, 1)])
    with pytest.raises(MismatchError):
        u.quotient_by(w)


def test_modular_law_over_fields():
    rng = random.Random(424242)
    for ring in (QQ, GF(3)):
        for _ in range(60):
            dim = rng.randint(1, 4)
            ambient = Ambient(ring, (dim,), ("v",))

            def random_sub():
                gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                        for _ in range(rng.randint(0, 3))]
                return SubobjectData(ambient, gens)

            u, w = random_sub(), random_sub()
            lhs = u.sum(w).rank + u.intersection(w).rank
            assert lhs == u.rank + w.rank


def test_quotient_matches_snf_of_presentation():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        cols = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(0, 4))]
        inv = invariants_of_presentation(n, cols)
        free, torsion = abelian_invariants(n, cols)
        assert inv.free_rank == free
        assert list(inv.torsion) == torsion


def test_subgroup_arithmetic_in_presented_ambient():
    # Ambient Z x Z/4 at one coordinate pair; the subgroup generated by
    # (0, 2) has order 2 in the quotient.
    ambient = Ambient(ZZ, (2,), ("v",), relation_rows=[(0, 4)])
    sub = SubobjectData(ambient, [(0, 2)])
    inv = sub.quotient_by(ambient.zero_subobject())
    assert inv == QuotientInvariants(0, (2,))
    full = ambient.full()
    assert full.quotient_by(sub) == QuotientInvariants(1, (2,))
    assert full.quotient_by(full).is_trivial()


def test_integer_generators_are_checked_once_coerced():
    ambient = Ambient(ZZ, (2,), ("v",))
    assert SubobjectData(ambient, [(Fraction(4, 2), 0)]) \
        == SubobjectData(ambient, [(2, 0)])
    for bad in ([(Fraction(1, 2), 0)], [(0, 0, 0)], [(1, 0), (0,)]):
        with pytest.raises(MismatchError):
            SubobjectData(ambient, bad)
        with pytest.raises(MismatchError):
            hermite_normal_form(bad, 2)


def test_projection():
    ambient = Ambient(QQ, (1, 2), ("v", "w"))
    sub = SubobjectData(ambient, [(1, 1, 0), (0, 0, 1)])
    proj = sub.project([1])
    assert proj.ambient.dims == (2,)
    assert proj.rank == 2


def test_zero_dimensional_ambient():
    ambient = Ambient(QQ, (0,), ("v",))
    assert ambient.full() == ambient.zero_subobject()
    assert ambient.full().invariants().is_trivial()


def test_ambient_kernel_matches_truncated_kernel():
    # Reference: the kernel of [matrix | target relations as columns],
    # truncated to the ambient's coordinates.
    rng = random.Random(31)
    for ring in (QQ, GF(5), ZZ):
        reference = integer_kernel if ring == ZZ else field_kernel
        for _ in range(40):
            dim = rng.randint(0, 3)
            rows = rng.randint(1, 3)
            cols = dim + rng.randint(0, 2)
            ambient = Ambient(ring, (dim,), ("x",))
            matrix = ConcreteMatrix(
                ring, [[rng.randint(-3, 3) for _ in range(cols)]
                       for _ in range(rows)], rows, cols)
            relations = []
            if ring == ZZ:
                relations = [tuple(rng.randint(-4, 4) for _ in range(rows))
                             for _ in range(rng.randint(0, 2))]
            target = Ambient(ring, (rows,), ("y",), relations)
            joined = matrix
            if relations:
                joined = matrix.hstack(
                    ConcreteMatrix.from_columns(ring, relations, rows))
            expected = SubobjectData(
                ambient, [v[:dim] for v in reference(joined)])
            assert ambient.kernel(matrix, target) == expected
            if not relations:
                assert ambient.kernel(matrix) == expected


def test_ambient_kernel_of_rowless_matrix_is_full():
    for ring in (QQ, GF(3), ZZ):
        ambient = Ambient(ring, (2, 1), ("x", "y"))
        empty = ConcreteMatrix(ring, [], 0, 4)
        assert ambient.kernel(empty) == ambient.full()
        assert ambient.kernel(empty, Ambient(ring, ())) == ambient.full()


def test_ambient_kernel_quantifies_target_relations():
    # x in Z with 2x = 0 in Z/4: x in 2Z.
    ambient = Ambient(ZZ, (1,), ("x",))
    target = Ambient(ZZ, (1,), ("y",), relation_rows=[(4,)])
    kernel = ambient.kernel(ConcreteMatrix(ZZ, [[2]]), target)
    assert kernel == SubobjectData(ambient, [(2,)])
    with pytest.raises(MismatchError):
        ambient.kernel(ConcreteMatrix(ZZ, [[2], [1]]), target)


# ---------------------------------------------------------------------------
# Coordinates, membership and classes read off the stored pivots


def combination(ring, coeffs, rows, dim):
    out = [ring.zero()] * dim
    for c, row in zip(coeffs, rows):
        out = [ring.add(a, ring.mul(ring.coerce(c), ring.coerce(b)))
               for a, b in zip(out, row)]
    return tuple(out)


def f5_span(gens, dim):
    """Every F_5 combination of the generators, by enumeration."""
    return {tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % 5
                  for i in range(dim))
            for coeffs in product(range(5), repeat=len(gens))}


def in_span_reference(ring, gens, vector, dim):
    if ring == ZZ:
        return (hermite_normal_form(list(gens) + [vector], dim)
                == hermite_normal_form(gens, dim))
    if ring == QQ:
        return rational_rank(list(gens) + [vector]) == rational_rank(gens)
    return tuple(x % 5 for x in vector) in f5_span(gens, dim)


def test_coordinates_and_membership_against_references():
    rng = random.Random(4141)
    for ring in (QQ, GF(5), ZZ):
        members = outsiders = 0
        for _ in range(80):
            dim = rng.randint(1, 4)
            ambient = Ambient(ring, (dim,), ("v",))
            gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(0, 3))]
            sub = SubobjectData(ambient, gens)
            coeffs = [rng.randint(-3, 3) for _ in sub.rows]
            assert sub.coordinates(combination(ring, coeffs, sub.rows, dim)) \
                == tuple(ring.coerce(c) for c in coeffs)
            vector = combination(
                ring, [rng.randint(-2, 2) for _ in gens], gens, dim)
            if rng.random() < 0.5:
                vector = tuple(ring.add(x, ring.coerce(rng.randint(-2, 2)))
                               for x in vector)
            expected = in_span_reference(ring, gens, vector, dim)
            assert sub.contains_vector(vector) == expected
            assert (sub.coordinates(vector) is not None) == expected
            members += expected
            outsiders += not expected
        assert members and outsiders


def test_complement_coordinates_are_classes():
    rng = random.Random(4242)
    for ring in (QQ, GF(5)):
        for _ in range(60):
            dim = rng.randint(1, 4)
            ambient = Ambient(ring, (dim,), ("v",))
            gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(0, 3))]
            sub = SubobjectData(ambient, gens)
            qp = QuotientPresentation(ambient.full(), sub)
            assert qp.class_dim == dim - sub.rank
            x, y = (tuple(ring.coerce(rng.randint(-3, 3))
                          for _ in range(dim)) for _ in range(2))
            if rng.random() < 0.5:
                y = tuple(ring.add(a, b) for a, b in zip(x, combination(
                    ring, [rng.randint(-2, 2) for _ in gens], gens, dim)))
            cx = sub.complement_coordinates(x)
            assert cx == qp.class_vector(x)
            same_class = in_span_reference(
                ring, gens, tuple(ring.sub(a, b) for a, b in zip(x, y)), dim)
            assert (cx == sub.complement_coordinates(y)) == same_class


def test_partner_completes_heads_of_the_projection():
    rng = random.Random(4343)
    for ring in (QQ, GF(5), ZZ):
        found = missing = 0
        for _ in range(80):
            k, m = rng.randint(1, 3), rng.randint(0, 3)
            relations = []
            if ring == ZZ:
                for lo, hi in ((0, k), (k, k + m)):
                    for j in range(lo, hi):
                        if rng.random() < 0.4:
                            row = [0] * (k + m)
                            row[j] = rng.randint(2, 4)
                            relations.append(tuple(row))
            ambient = Ambient(ring, (k, m), ("s", "t"), relations)
            gens = [tuple(rng.randint(-3, 3) for _ in range(k + m))
                    for _ in range(rng.randint(0, 3))]
            sub = SubobjectData(ambient, gens)
            head = combination(ring, [rng.randint(-2, 2) for _ in gens],
                               [g[:k] for g in gens], k)
            if rng.random() < 0.5:
                head = tuple(ring.add(x, ring.coerce(rng.randint(-2, 2)))
                             for x in head)
            projection = [g[:k] for g in gens] + [r[:k] for r in relations]
            expected = in_span_reference(ring, projection, head, k)
            partner = sub.partner(head)
            assert (partner is not None) == expected
            if partner is not None:
                assert len(partner) == m
                assert sub.contains_vector(tuple(head) + partner)
            found += expected
            missing += not expected
        assert found and missing


@pytest.mark.parametrize("ring", [QQ, GF(5), ZZ], ids=str)
def test_class_vectors_are_canonical(ring):
    rng = random.Random(4444)
    zero = nonzero = 0
    for _ in range(80):
        dim = rng.randint(1, 4)
        relations = []
        if ring == ZZ:  # torsion in the ambient itself
            for j in range(dim):
                if rng.random() < 0.4:
                    relations.append(tuple(rng.randint(2, 6) if i == j else 0
                                           for i in range(dim)))
        ambient = Ambient(ring, (dim,), ("v",), relations)
        larger = SubobjectData(ambient, [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(0, 3))])
        small_gens = [combination(ring, [rng.randint(-3, 3)
                                         for _ in larger.rows],
                                  larger.rows, dim)
                      for _ in range(rng.randint(0, 2))]
        smaller = SubobjectData(ambient, small_gens)
        qp = QuotientPresentation(larger, smaller)

        def element(sub):
            return combination(ring, [rng.randint(-4, 4) for _ in sub.rows],
                               sub.rows, dim)
        x = element(smaller if rng.random() < 0.4 else larger)
        s = element(smaller)
        cx = qp.class_vector(x)
        assert qp.class_vector(tuple(ring.add(a, b)
                                     for a, b in zip(x, s))) == cx
        in_smaller = in_span_reference(ring, small_gens + relations, x, dim)
        assert qp.is_zero_class(cx) == in_smaller
        assert (cx == (ring.zero(),) * qp.class_dim) == in_smaller
        zero += in_smaller
        nonzero += not in_smaller
        for k, rep in enumerate(qp.class_representatives()):
            assert qp.class_vector(rep) == tuple(
                ring.one() if i == k else ring.zero()
                for i in range(qp.class_dim))
        assert qp.invariants() == larger.quotient_by(smaller)
        assert qp.relation_rows == tuple(
            tuple(d if i == t else 0 for i in range(qp.class_dim))
            for t, d in enumerate(qp.invariants().torsion))
    assert zero and nonzero


def count_calls(monkeypatch, *names):
    """Count calls of the named ``linalg`` functions made through any
    module of the package that binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in list(sys.modules.items())
               if n == "abquiver" or n.startswith("abquiver.")]
    for name in names:
        original = getattr(linalg, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


def test_zero_classes_over_z_run_no_hermite_form(monkeypatch):
    ambient = Ambient(ZZ, (3,), ("v",))
    qp = QuotientPresentation(ambient.full(),
                              SubobjectData(ambient, [(2, 0, 0), (0, 4, 2)]))
    counts = count_calls(monkeypatch, "hermite_normal_form")
    c = qp.class_vector
    assert qp.is_zero_class(c((2, 4, 2)))
    assert not qp.is_zero_class(c((1, 0, 0)))
    assert qp.classes_equal(c((0, 5, 2)), c((0, 1, 0)))
    assert not qp.classes_equal(c((0, 2, 1)), c((0, 0, 0)))
    assert counts == {"hermite_normal_form": 0}


def test_field_membership_runs_no_elimination(monkeypatch):
    for ring in (QQ, GF(5)):
        ambient = Ambient(ring, (3,), ("v",))
        sub = SubobjectData(ambient, [(1, 2, 0), (0, 1, 1)])
        zero = ambient.zero_subobject()
        counts = count_calls(monkeypatch, "rref", "field_solve")
        assert sub.contains_vector((1, 3, 1))
        assert not sub.contains_vector((0, 0, 1))
        assert zero.contains_vector((0, 0, 0))
        assert not zero.contains_vector((0, 1, 0))
        assert counts == {"rref": 0, "field_solve": 0}
        monkeypatch.undo()


def count_theta_evaluations(monkeypatch, *thetas):
    """Count the evaluations of the given formulas made by ``abcat``."""
    counts = [0]
    original = abcat.evaluate

    def counting(formula, representation):
        counts[0] += formula in thetas
        return original(formula, representation)
    monkeypatch.setattr(abcat, "evaluate", counting)
    return counts


def uniform_representation(rng, quiver, ring, dim, relations=None):
    """Every fiber has ``dim`` generators and the same relations, so every
    arrow matrix descends."""
    fibers = {v: Fiber(ring, dim, relations) for v in quiver.vertices}
    mats = {a.name: ConcreteMatrix(
        ring, [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        for a in quiver.arrows}
    return Representation(quiver, ring, fibers, mats)


def test_pp_route_evaluates_theta_once_and_solves_nothing(monkeypatch):
    rng = random.Random(53)
    # (ring, exponent of every fiber): torsion fibers (Z/3)^dim over Z
    for ring, exponent in ((QQ, 0), (GF(5), 0), (ZZ, 0), (ZZ, 3)):
        delta = DiagramEmbedding(A3, ring)
        f = compose(delta.morphism("a"), delta.morphism("b"))
        g = compose(f, abcat.identity_morphism(f.target))
        for dim in range(1, 5):
            relations = None
            if exponent:
                relations = ConcreteMatrix.identity(ZZ, dim).scale(exponent)
            t = uniform_representation(rng, A3, ring, dim, relations)
            ba = t.arrow_matrix("b").mul(t.arrow_matrix("a"))
            counts = count_calls(monkeypatch, "field_solve", "integer_solve")
            thetas = count_theta_evaluations(monkeypatch, f.theta)
            qp_src, qp_tgt, matrix = abcat.evaluate_morphism(f, t)
            assert thetas == [1]
            thetas_fg = count_theta_evaluations(monkeypatch, f.theta,
                                                g.theta)
            assert abcat.equal_in_quotient(f, g, t)
            assert thetas_fg == [2]
            assert counts == {"field_solve": 0, "integer_solve": 0}
            monkeypatch.undo()
            assert matrix.cols == len(qp_src.class_representatives()) >= 1
            for row in qp_src.generators:
                assert qp_tgt.classes_equal(
                    matrix.apply(qp_src.class_vector(row)),
                    qp_tgt.class_vector(ba.apply(row)))
