"""Independent brute-force oracles used by the test suite.

Nothing here imports algorithmic code from the package under test beyond
plain data containers; every computation follows a different route than the
implementation it checks (determinantal divisors instead of elimination,
exhaustive enumeration instead of solving, bitmask elimination over F_2).
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd


# ---------------------------------------------------------------------------
# Integer matrices as plain lists of lists


def int_det(rows):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invariant_factors_by_minors(rows, cols, entries):
    """Invariant factors via determinantal divisors: d_k = D_k / D_{k-1}
    where D_k is the gcd of all k x k minors."""
    divisors = []
    k = 1
    while k <= min(rows, cols):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                minor = int_det([[entries[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor)
        if g == 0:
            break
        divisors.append(g)
        k += 1
    factors = []
    prev = 1
    for d in divisors:
        factors.append(d // prev)
        prev = d
    return factors


def abelian_invariants(n_generators, relation_columns):
    """(free_rank, torsion list) of Z^n / <columns>, via minors."""
    if not relation_columns:
        return n_generators, []
    entries = [[col[i] for col in relation_columns]
               for i in range(n_generators)]
    factors = invariant_factors_by_minors(
        n_generators, len(relation_columns), entries)
    return n_generators - len(factors), [f for f in factors if f > 1]


# ---------------------------------------------------------------------------
# Rational matrices


def rational_rank(entries):
    m = [[Fraction(x) for x in row] for row in entries]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for c in range(cols):
        piv = None
        for i in range(row, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][c]
        m[row] = [x * inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# F_2 vectors as bitmasks: a matrix is a list of row masks plus a width.


def f2_eliminate(rows, width):
    """Row echelon over F_2; returns (reduced rows, pivot columns)."""
    rows = [r for r in rows]
    pivots = []
    reduced = []
    for c in range(width):
        bit = 1 << c
        piv = None
        for i, r in enumerate(rows):
            if r & bit:
                piv = i
                break
        if piv is None:
            continue
        head = rows.pop(piv)
        rows = [r ^ head if r & bit else r for r in rows]
        reduced = [r ^ head if r & bit else r for r in reduced]
        reduced.append(head)
        pivots.append(c)
    return reduced, pivots


def f2_solve_mask(rows, width, rhs_bits):
    """Solve A x = b over F_2 where rows are bitmask rows of A and rhs_bits
    is a list of 0/1.  Returns one solution mask or None."""
    aug = []
    for r, b in zip(rows, rhs_bits):
        aug.append(r | (b << width))
    reduced, pivots = f2_eliminate(aug, width + 1)
    if width in pivots:
        return None
    x = 0
    for r in reduced:
        lead = (r & -r).bit_length() - 1
        if lead < width and (r >> width) & 1:
            x |= 1 << lead
    return x


def f2_nullspace(rows, width):
    """Basis of the nullspace of bitmask rows, one vector per free column."""
    reduced, pivots = f2_eliminate(list(rows), width)
    pivot_set = set(pivots)
    basis = []
    for c in range(width):
        if c in pivot_set:
            continue
        vec = 1 << c
        for r in reduced:
            lead = (r & -r).bit_length() - 1
            if (r >> c) & 1:
                vec |= 1 << lead
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Bitmask matrices over F_2 and brute-force pp evaluation


class F2Matrix:
    __slots__ = ("rows", "cols", "masks")

    def __init__(self, rows, cols, masks):
        self.rows = rows
        self.cols = cols
        self.masks = tuple(masks)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [0] * rows)

    def matmul(self, other):
        assert self.cols == other.rows
        out = []
        for mask in self.masks:
            acc = 0
            m = mask
            while m:
                k = (m & -m).bit_length() - 1
                acc ^= other.masks[k]
                m &= m - 1
            out.append(acc)
        return F2Matrix(self.rows, other.cols, out)

    def add(self, other):
        return F2Matrix(self.rows, self.cols,
                        [a ^ b for a, b in zip(self.masks, other.masks)])


def f2_evaluate_element(element, rep_dims, rep_arrows):
    """Evaluate an algebra element on a bitmask representation."""
    d_src = rep_dims[element.src]
    d_tgt = rep_dims[element.tgt]
    total = F2Matrix.zero(d_tgt, d_src)
    for path, coeff in element.terms.items():
        if int(coeff) % 2 == 0:
            continue
        mat = F2Matrix.identity(d_src)
        for name in reversed(path.arrows):
            mat = rep_arrows[name].matmul(mat)
        total = total.add(mat)
    return total


def f2_formula_system(formula, rep_dims, rep_arrows):
    """(row masks, ctx_dim, total width) of the combined linear system."""
    ctx_sorts = formula.context_sorts
    bound_sorts = formula.bound_sorts
    offsets = []
    pos = 0
    for s in ctx_sorts + bound_sorts:
        offsets.append(pos)
        pos += rep_dims[s]
    width = pos
    ctx_dim = sum(rep_dims[s] for s in ctx_sorts)
    rows = []
    for j, eq_sort in enumerate(formula.equation_sorts):
        d_eq = rep_dims[eq_sort]
        block_rows = [0] * d_eq
        for col in range(len(ctx_sorts) + len(bound_sorts)):
            if col < len(ctx_sorts):
                element = formula.matrix_a.entries[j][col]
            else:
                element = formula.matrix_b.entries[j][col - len(ctx_sorts)]
            block = f2_evaluate_element(element, rep_dims, rep_arrows)
            for i in range(d_eq):
                block_rows[i] |= block.masks[i] << offsets[col]
        rows.extend(block_rows)
    return rows, ctx_dim, width


def f2_solution_generators(formula, rep_dims, rep_arrows):
    rows, ctx_dim, width = f2_formula_system(formula, rep_dims, rep_arrows)
    kernel = f2_nullspace(rows, width)
    mask = (1 << ctx_dim) - 1
    return [k & mask for k in kernel], ctx_dim


def f2_implication_holds(phi, psi, rep_dims, rep_arrows):
    """Every generator of phi's solutions satisfies psi: psi's system,
    built once, is solvable in its bound variables with the generator as
    context."""
    gens, _ = f2_solution_generators(phi, rep_dims, rep_arrows)
    rows, ctx_dim, width = f2_formula_system(psi, rep_dims, rep_arrows)
    ctx_mask = (1 << ctx_dim) - 1
    a_parts = [r & ctx_mask for r in rows]
    b_parts = [r >> ctx_dim for r in rows]
    for g in gens:
        rhs = [bin(a & g).count("1") % 2 for a in a_parts]
        if f2_solve_mask(b_parts, width - ctx_dim, rhs) is None:
            return False
    return True


def all_f2_bitmask_representations(quiver, max_dim):
    """Every (dims, arrow matrices) assignment with fiber dims <= max_dim."""
    verts = quiver.vertices
    for dims_tuple in product(range(max_dim + 1), repeat=len(verts)):
        rep_dims = dict(zip(verts, dims_tuple))
        slots = []
        for arrow in quiver.arrows:
            rows = rep_dims[arrow.tgt]
            cols = rep_dims[arrow.src]
            options = [F2Matrix(rows, cols, masks) for masks in
                       product(range(1 << cols), repeat=rows)]
            slots.append([(arrow.name, m) for m in options])
        for combo in product(*slots):
            yield rep_dims, dict(combo)


# ---------------------------------------------------------------------------
# Naive Smith reduction (independent of the package's pivot strategy)


def naive_invariant_factors(entries):
    """Invariant factors by plain repeated row/column reduction; suitable
    for matrices too large for the determinantal-divisor route."""
    m = [list(r) for r in entries]
    rows = len(m)
    cols = len(m[0]) if m else 0
    factors = []
    t = 0
    while True:
        # find any nonzero entry in the trailing block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0:
                    if pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[t], m[i0] = m[i0], m[t]
        for r in m:
            r[t], r[j0] = r[j0], r[t]
        while True:
            again = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        again = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for r in m:
                        r[j] -= q * r[t]
                    if m[t][j] != 0:
                        for r in m:
                            r[t], r[j] = r[j], r[t]
                        again = True
            if not again:
                break
        # force divisibility into the rest
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            continue
        factors.append(abs(m[t][t]))
        t += 1
        if t >= min(rows, cols):
            break
    return factors


# ---------------------------------------------------------------------------
# Simplicial homology from scratch (boundary matrices + naive SNF)


def brute_relative_homology(faces_x, faces_y, degree):
    """(free_rank, torsion) of H_degree(X, Y) over Z, computed directly from
    relative boundary matrices and naive Smith reduction.

    ``faces_x``/``faces_y``: iterables of vertex tuples (all faces, closed
    downward), vertices comparable.
    """
    x_by_dim = {}
    for f in faces_x:
        x_by_dim.setdefault(len(f) - 1, set()).add(tuple(sorted(f)))
    y_set = {tuple(sorted(f)) for f in faces_y}

    def rel_basis(d):
        return sorted(f for f in x_by_dim.get(d, ()) if f not in y_set)

    def boundary(d):
        rows = rel_basis(d - 1)
        cols = rel_basis(d)
        index = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, face in enumerate(cols):
            for k in range(len(face)):
                sub = face[:k] + face[k + 1:]
                if sub in index:
                    mat[index[sub]][j] += (-1) ** k
        return mat, len(rows), len(cols)

    bd_n, rows_n, cols_n = boundary(degree)        # C_d -> C_{d-1}
    bd_up, rows_up, cols_up = boundary(degree + 1)  # C_{d+1} -> C_d
    n_d = cols_n
    if n_d == 0:
        return 0, []
    rank_dn = len(naive_invariant_factors(bd_n)) if rows_n and cols_n else 0
    factors_up = naive_invariant_factors(bd_up) if rows_up and cols_up else []
    rank_up = len(factors_up)
    free = n_d - rank_dn - rank_up
    torsion = [f for f in factors_up if f > 1]
    return free, torsion
