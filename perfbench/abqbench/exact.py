"""Exact linear algebra used only to check the program's answers.

Nothing here calls the package under test.  Field elimination works on
lists of Python ints modulo a prime or on Fractions (``p == 0`` means Q);
integer lattices are handled by Euclidean row and column reduction.
Invariant factors come from alternating echelon forms, or from sympy for
the boundary matrices of the homology workload.
"""

from fractions import Fraction
from math import gcd


def field_rref(rows, ncols, p):
    """Reduced row echelon form over F_p (p > 0) or Q (p == 0).

    Returns (nonzero rows, pivot columns)."""
    if p:
        m = [[x % p for x in r] for r in rows]
    else:
        m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row = m[r]
        inv = pow(row[c], p - 2, p) if p else 1 / row[c]
        if p:
            row = [x * inv % p for x in row]
        else:
            row = [x * inv for x in row]
        m[r] = row
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                if p:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
                else:
                    m[i] = [x - f * y for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def field_rank(rows, ncols, p):
    return len(field_rref(rows, ncols, p)[1])


def field_nullspace(rows, ncols, p):
    """Basis of {v : M v = 0}."""
    reduced, pivots = field_rref(rows, ncols, p)
    pivot_set = set(pivots)
    one = 1 if p else Fraction(1)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = one
        for row, c in zip(reduced, pivots):
            v[c] = (-row[f]) % p if p else -row[f]
        basis.append(v)
    return basis


def field_contains(big, small, width, p):
    """Whether span(small) lies inside span(big)."""
    if not small:
        return True
    return (field_rank(list(big) + list(small), width, p)
            == field_rank(big, width, p))


# ---------------------------------------------------------------------------
# Integer lattices


def int_kernel(rows, ncols):
    """Lattice basis of {v in Z^ncols : M v = 0} by unimodular column
    reduction of M stacked over the identity."""
    cols = [([r[j] for r in rows], [1 if i == j else 0 for i in range(ncols)])
            for j in range(ncols)]
    active = list(range(ncols))
    for i in range(len(rows)):
        live = [j for j in active if cols[j][0][i] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][0][i]))
            head = live[0]
            hm, ht = cols[head]
            hv = hm[i]
            still = [head]
            for j in live[1:]:
                m, t = cols[j]
                q = m[i] // hv
                cols[j] = ([a - q * b for a, b in zip(m, hm)],
                           [a - q * b for a, b in zip(t, ht)])
                if cols[j][0][i] != 0:
                    still.append(j)
            live = still
        if live:
            active.remove(live[0])
    return [cols[j][1] for j in active]


def int_echelon(generators, width):
    """Row echelon basis of the lattice spanned by the generators."""
    work = [list(g) for g in generators if any(g)]
    basis = []
    for c in range(width):
        live = [r for r in work if r[c] != 0]
        rest = [r for r in work if r[c] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            head = live[0]
            still = [head]
            for r in live[1:]:
                q = r[c] // head[c]
                r = [a - q * b for a, b in zip(r, head)]
                if r[c] != 0:
                    still.append(r)
                elif any(r):
                    rest.append(r)
            live = still
        if live:
            basis.append(live[0])
        work = rest
        if not work:
            break
    return basis


def int_coordinates(basis, vector):
    """Integer coordinates of the vector in an echelon basis, or None."""
    v = list(vector)
    coords = []
    for row in basis:
        c = next(k for k, x in enumerate(row) if x != 0)
        if v[c] % row[c] != 0:
            return None
        q = v[c] // row[c]
        coords.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return coords if not any(v) else None


def lattice_contains(big_gens, small_gens, width):
    basis = int_echelon(big_gens, width)
    return all(int_coordinates(basis, g) is not None for g in small_gens)


def invariant_factors(columns, n):
    """(free rank, torsion) of Z^n modulo the span of the given columns."""
    if not columns or n == 0:
        return n, ()
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors as sym_if
    mat = Matrix([[col[i] for col in columns] for i in range(n)])
    factors = [int(f) for f in sym_if(mat, domain=ZZ)]
    nonzero = [f for f in factors if f != 0]
    return n - len(nonzero), tuple(f for f in nonzero if f > 1)


def diagonal_invariants(columns, n):
    """(free rank, torsion) of Z^n modulo the span of the columns, by
    alternating row and column echelon forms until the matrix is diagonal,
    then gcd/lcm exchanges of the diagonal entries."""
    rows = [list(c) for c in columns if any(c)]
    width = n
    while True:
        rows = int_echelon(rows, width)
        cols = int_echelon([list(c) for c in zip(*rows)], len(rows)) \
            if rows else []
        if all(sum(1 for x in c if x) == 1 for c in cols):
            break
        rows, width = [list(r) for r in zip(*cols)], len(cols)
    diag = [abs(next(x for x in c if x)) for c in cols]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return n - len(diag), tuple(d for d in diag if d > 1)


def lattice_quotient(larger_gens, smaller_gens, width):
    """(free rank, torsion) of larger / smaller, two lattices in Z^width
    given by generators; raises ValueError unless smaller lies in larger."""
    basis = int_echelon(larger_gens, width)
    coords = []
    for g in smaller_gens:
        c = int_coordinates(basis, g)
        if c is None:
            raise ValueError("smaller lattice not contained in larger")
        if any(c):
            coords.append(c)
    return diagonal_invariants(coords, len(basis))
