import random

import pytest

from abquiver.errors import MismatchError
from abquiver.linalg import ConcreteMatrix, field_kernel, integer_kernel
from abquiver.scalars import GF, QQ, ZZ
from abquiver.subobjects import (Ambient, QuotientInvariants, SubobjectData,
                                 invariants_of_presentation, subobject_op)

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
