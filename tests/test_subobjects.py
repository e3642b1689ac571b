import random
import sys
from itertools import product

import pytest

from abquiver import abcat, linalg
from abquiver.abcat import DiagramEmbedding, compose
from abquiver.errors import MismatchError
from abquiver.linalg import (ConcreteMatrix, field_kernel,
                             hermite_normal_form, integer_kernel)
from abquiver.scalars import GF, QQ, ZZ
from abquiver.subobjects import (Ambient, QuotientInvariants,
                                 QuotientPresentation, SubobjectData,
                                 invariants_of_presentation, subobject_op)

from gens import A3, random_representation
from oracles import abelian_invariants, rational_rank


def test_quotient_z2_by_2z_plus_z():
    # Oracle: SNF of the inclusion matrix diag(2, 1) has factors 1, 2.
    ambient = Ambient(ZZ, (2,), ("v",))
    larger = ambient.full()
    smaller = SubobjectData(ambient, [(2, 0), (0, 1)])
    inv = subobject_op("quotient", larger, smaller)
    assert inv == QuotientInvariants(0, (2,))
    free, torsion = abelian_invariants(2, [(2, 0), (0, 1)])
    assert (inv.free_rank, list(inv.torsion)) == (free, torsion)


def test_intersection_of_axes_is_zero():
    ambient = Ambient(QQ, (2,), ("v",))
    u = SubobjectData(ambient, [(1, 0)])
    w = SubobjectData(ambient, [(0, 1)])
    assert subobject_op("intersection", u, w) == ambient.zero_subobject()


def test_sum_of_two_lines_is_plane():
    # Oracle: the rank of the stacked generators is 2.
    assert rational_rank([[1, 1], [1, -1]]) == 2
    ambient = Ambient(QQ, (2,), ("v",))
    u = SubobjectData(ambient, [(1, 1)])
    w = SubobjectData(ambient, [(1, -1)])
    assert subobject_op("sum", u, w) == ambient.full()


def test_membership():
    ambient = Ambient(ZZ, (2,), ("v",))
    sub = SubobjectData(ambient, [(2, 0)])
    assert subobject_op("membership", sub, (4, 0))
    assert not subobject_op("membership", sub, (1, 0))


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
    assert qp.is_zero_class((2, 4, 2))
    assert not qp.is_zero_class((1, 0, 0))
    assert qp.classes_equal((0, 5, 2), (0, 1, 0))
    assert not qp.classes_equal((0, 2, 1), (0, 0, 0))
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


def test_partner_solve_computes_no_kernel(monkeypatch):
    delta = DiagramEmbedding(A3, QQ)
    f = compose(delta.morphism("a"), delta.morphism("b"))
    rng = random.Random(53)
    for _ in range(4):
        t = random_representation(rng, A3, QQ, max_dim=2)
        qp_src, qp_tgt = abcat._value_presentations(f, t)
        ba = t.arrow_matrix("b").mul(t.arrow_matrix("a"))
        counts = count_calls(monkeypatch, "kernel", "field_kernel")
        for row in qp_src.generators:
            image = abcat._partner_solve(f.theta, f.source, f.target, t, row)
            assert qp_tgt.classes_equal(qp_tgt.class_vector(image),
                                        qp_tgt.class_vector(ba.apply(row)))
        assert counts == {"kernel": 0, "field_kernel": 0}
        monkeypatch.undo()
