import random
from fractions import Fraction
from itertools import product

import pytest

from abquiver.errors import MismatchError
from abquiver import linalg
from abquiver.linalg import (ConcreteMatrix, field_kernel, hermite_normal_form,
                             integer_kernel, integer_solve, lattice_member,
                             smith_normal_form, solve)
from abquiver.scalars import GF, QQ, ZZ

from oracles import int_det, invariant_factors_by_minors


def mat(ring, rows):
    return ConcreteMatrix(ring, rows)


def diagonal_of(d):
    return [d.entries[i][i] for i in range(min(d.rows, d.cols))]


def check_snf_contract(a):
    u, d, v, w = smith_normal_form(a)
    assert u.mul(a).mul(v) == d
    assert v.mul(w) == ConcreteMatrix.identity(ZZ, a.cols)
    assert abs(int_det(u.entries)) == 1
    assert abs(int_det(v.entries)) == 1
    diag = diagonal_of(d)
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # Zero diagonal entries only after all nonzero ones.
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return diag


def test_snf_zero_matrix():
    a = mat(ZZ, [[0]])
    u, d, v, _ = smith_normal_form(a)
    assert d.entries == ((0,),)
    assert u.entries == ((1,),)
    assert v.entries == ((1,),)


def test_snf_diag_2_3():
    # Oracle: determinantal divisors D_1 = gcd = 1, D_2 = det = 6.
    a = mat(ZZ, [[2, 0], [0, 3]])
    assert invariant_factors_by_minors(2, 2, a.entries) == [1, 6]
    diag = check_snf_contract(a)
    assert diag == [1, 6]


def test_snf_6_4_4_4():
    a = mat(ZZ, [[6, 4], [4, 4]])
    assert invariant_factors_by_minors(2, 2, a.entries) == [2, 4]
    diag = check_snf_contract(a)
    assert diag == [2, 4]


def test_snf_random_contract_and_oracle():
    rng = random.Random(20260808)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = mat(ZZ, [[rng.randint(-9, 9) for _ in range(cols)]
                     for _ in range(rows)])
        diag = check_snf_contract(a)
        expected = invariant_factors_by_minors(rows, cols, a.entries)
        assert [x for x in diag if x != 0] == expected


def test_snf_inverse_transform_on_seeded_matrices():
    rng = random.Random(20261021)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(200)]
    for rows, cols in shapes:
        grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            grid[rng.randrange(rows)] = [0] * cols
        if cols and rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in grid:
                row[j] = 0
        a = ConcreteMatrix(ZZ, grid, rows, cols)
        u, d, v, w = smith_normal_form(a)
        assert u.mul(a).mul(v) == d
        assert v.mul(w) == ConcreteMatrix.identity(ZZ, cols)
        assert w.mul(v) == ConcreteMatrix.identity(ZZ, cols)


def test_snf_requires_integers():
    with pytest.raises(MismatchError):
        smith_normal_form(mat(QQ, [[1]]))


def test_solve_identity_over_q():
    a = ConcreteMatrix.identity(QQ, 2)
    part, kernel = solve(a, (1, 0)), linalg.kernel(a)
    assert part == (Fraction(1), Fraction(0))
    assert kernel == []


def test_solve_parity_obstruction():
    assert solve(mat(ZZ, [[2]]), (1,)) is None


def test_solve_f2_line():
    # Oracle: enumerate all four vectors of F_2^2.
    f2 = GF(2)
    a = mat(f2, [[1, 1]])
    solutions = {x for x in product((0, 1), repeat=2)
                 if (x[0] + x[1]) % 2 == 1}
    assert solutions == {(1, 0), (0, 1)}
    part, kernel = solve(a, (1,)), linalg.kernel(a)
    assert part in solutions
    assert kernel == [(1, 1)]


def test_solve_shape_mismatch():
    with pytest.raises(MismatchError):
        solve(mat(QQ, [[1, 2]]), (1, 2))


def test_solve_soundness_random():
    rng = random.Random(99)
    for ring in (QQ, GF(5), ZZ):
        for _ in range(120):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = mat(ring, [[rng.randint(-4, 4) for _ in range(cols)]
                           for _ in range(rows)])
            x = tuple(rng.randint(-3, 3) for _ in range(cols))
            b = a.apply(x)
            part = solve(a, b)
            assert part is not None
            kernel = linalg.kernel(a)
            assert a.apply(part) == b
            zero = tuple(ring.zero() for _ in range(rows))
            for g in kernel:
                assert a.apply(g) == zero


def test_solve_completeness_f2_exhaustive_small():
    # Every solvable system up to 3x3 over F_2: the particular solution is a
    # solution and the kernel generators span exactly the solution set.
    f2 = GF(2)
    for rows in range(4):
        for cols in range(4):
            for bits in range(2 ** (rows * cols)):
                entries = [[(bits >> (i * cols + j)) & 1 for j in range(cols)]
                           for i in range(rows)]
                a = ConcreteMatrix(f2, entries, rows, cols)
                for bbits in range(2 ** rows):
                    b = tuple((bbits >> i) & 1 for i in range(rows))
                    brute = {x for x in product((0, 1), repeat=cols)
                             if a.apply(x) == b}
                    part = solve(a, b)
                    if not brute:
                        assert part is None
                        continue
                    kernel = linalg.kernel(a)
                    assert part in brute
                    spanned = {part}
                    for g in kernel:
                        spanned |= {tuple((u + v) % 2 for u, v in zip(s, g))
                                    for s in spanned}
                    assert spanned == brute


def test_integer_kernel_is_lattice_basis():
    a = mat(ZZ, [[2, 4, 6]])
    kernel = integer_kernel(a)
    assert len(kernel) == 2
    for g in kernel:
        assert a.apply(g) == (0,)
    # (1, 1, -1) lies in the kernel and must be an integer combination.
    hnf = hermite_normal_form(kernel, 3)
    assert lattice_member(hnf, (1, 1, -1))


def test_integer_solve_underdetermined():
    a = mat(ZZ, [[2, 3]])
    part = integer_solve(a, (1,))
    assert part is not None
    assert a.apply(part) == (1,)


def test_hermite_canonical_under_generator_change():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-5, 5) for _ in range(n))
                for _ in range(rng.randint(0, 4))]
        h1 = hermite_normal_form(gens, n)
        # Shuffle, duplicate and add integer combinations: same lattice.
        extra = list(gens)
        rng.shuffle(extra)
        if gens:
            coeffs = [rng.randint(-2, 2) for _ in gens]
            combo = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                          for i in range(n))
            extra.append(combo)
        h2 = hermite_normal_form(extra, n)
        assert h1 == h2


def test_hermite_membership():
    h = hermite_normal_form([(2, 0), (0, 3)], 2)
    assert lattice_member(h, (4, 3))
    assert not lattice_member(h, (1, 0))


def test_field_kernel_dimensions():
    a = mat(QQ, [[1, 2, 3], [2, 4, 6]])
    kernel = field_kernel(a)
    assert len(kernel) == 2
