"""Exact dense linear algebra over Q, F_p and Z.

Everything here is deterministic: eliminations pick the smallest row index,
then the smallest column index, among minimal-absolute-value nonzero entries
(integer case) or the first nonzero entry in column order (field case).
Matrices are immutable; vectors are plain tuples of scalars.
"""

from .errors import EngineError, MismatchError
from .scalars import ZZ, check_same_ring


class ConcreteMatrix:
    """A rows x cols matrix with entries in a ScalarRing."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, entries, rows=None, cols=None):
        entries = tuple(tuple(ring.coerce(x) for x in row) for row in entries)
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise MismatchError(
                "entry grid does not match declared shape %dx%d" % (rows, cols))
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _computed(cls, ring, grid, rows, cols):
        """A rows x cols matrix on a grid of scalars of ``ring`` that this
        module computed itself: no coercion and no shape check."""
        matrix = object.__new__(cls)
        matrix.ring = ring
        matrix.rows = rows
        matrix.cols = cols
        matrix.entries = tuple(map(tuple, grid))
        return matrix

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one(), ring.zero()
        return cls._computed(ring, [[one if i == j else zero
                                     for j in range(n)] for i in range(n)],
                             n, n)

    @classmethod
    def zeros(cls, ring, rows, cols):
        zero = ring.zero()
        return cls._computed(ring, [(zero,) * cols] * rows, rows, cols)

    @classmethod
    def from_columns(cls, ring, columns, rows):
        return cls(ring, [[col[i] for col in columns] for i in range(rows)],
                   rows, len(columns))

    def __eq__(self, other):
        return (isinstance(other, ConcreteMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        return "ConcreteMatrix(%s, %dx%d)" % (self.ring, self.rows, self.cols)

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        grid = zip(*self.entries) if self.rows else [()] * self.cols
        return ConcreteMatrix._computed(self.ring, grid, self.cols, self.rows)

    def is_zero(self):
        z = self.ring.is_zero
        return all(z(x) for row in self.entries for x in row)

    def add(self, other):
        self._check_same_shape(other)
        add = self.ring.add
        return ConcreteMatrix._computed(
            self.ring, [[add(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)],
            self.rows, self.cols)

    def neg(self):
        neg = self.ring.neg
        return ConcreteMatrix._computed(
            self.ring, [[neg(x) for x in row] for row in self.entries],
            self.rows, self.cols)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        c = self.ring.coerce(c)
        mul = self.ring.mul
        return ConcreteMatrix._computed(
            self.ring, [[mul(c, x) for x in row] for row in self.entries],
            self.rows, self.cols)

    def mul(self, other):
        check_same_ring(self.ring, other.ring)
        if self.cols != other.rows:
            raise MismatchError("shape mismatch: %dx%d times %dx%d"
                                % (self.rows, self.cols, other.rows, other.cols))
        ring = self.ring
        add, mul, zero = ring.add, ring.mul, ring.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = add(acc, mul(self.entries[i][k], other.entries[k][j]))
                row.append(acc)
            out.append(row)
        return ConcreteMatrix._computed(ring, out, self.rows, other.cols)

    def __matmul__(self, other):
        return self.mul(other)

    def apply(self, vector):
        """Matrix times column vector (a tuple of length ``cols``)."""
        if len(vector) != self.cols:
            raise MismatchError("vector length %d, expected %d"
                                % (len(vector), self.cols))
        ring = self.ring
        vector = tuple(ring.coerce(x) for x in vector)
        add, mul, zero = ring.add, ring.mul, ring.zero()
        out = []
        for i in range(self.rows):
            acc = zero
            for x, v in zip(self.entries[i], vector):
                acc = add(acc, mul(x, v))
            out.append(acc)
        return tuple(out)

    def hstack(self, other):
        self._check(other.rows == self.rows, "row count mismatch in hstack")
        check_same_ring(self.ring, other.ring)
        return ConcreteMatrix._computed(
            self.ring, [a + b for a, b in zip(self.entries, other.entries)],
            self.rows, self.cols + other.cols)

    def vstack(self, other):
        self._check(other.cols == self.cols, "column count mismatch in vstack")
        check_same_ring(self.ring, other.ring)
        return ConcreteMatrix._computed(
            self.ring, self.entries + other.entries, self.rows + other.rows,
            self.cols)

    def take_columns(self, indices):
        return ConcreteMatrix._computed(
            self.ring, [[row[j] for j in indices] for row in self.entries],
            self.rows, len(indices))

    def _check_same_shape(self, other):
        check_same_ring(self.ring, other.ring)
        self._check(self.rows == other.rows and self.cols == other.cols,
                    "shape mismatch")

    @staticmethod
    def _check(cond, msg):
        if not cond:
            raise MismatchError(msg)


def block_diagonal(ring, blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    zero = ring.zero()
    grid = [[zero] * cols for _ in range(rows)]
    r = c = 0
    for b in blocks:
        check_same_ring(ring, b.ring)
        for i in range(b.rows):
            for j in range(b.cols):
                grid[r + i][c + j] = b.entries[i][j]
        r += b.rows
        c += b.cols
    return ConcreteMatrix._computed(ring, grid, rows, cols)


# ---------------------------------------------------------------------------
# Field elimination


def rref(matrix):
    """Reduced row echelon form.  Returns (rows as lists, pivot columns)."""
    ring = matrix.ring
    if not ring.is_field:
        raise EngineError("rref requires a field, got %s" % ring)
    rows = [list(r) for r in matrix.entries]
    m, n = matrix.rows, matrix.cols
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if not ring.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ring.invert(rows[r][c])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not ring.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [ring.sub(x, ring.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def field_kernel(matrix):
    """Basis of {x : A x = 0} over a field, one vector per free column."""
    ring = matrix.ring
    reduced, pivots = rref(matrix)
    n = matrix.cols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [ring.zero()] * n
        vec[f] = ring.one()
        for r, p in enumerate(pivots):
            vec[p] = ring.neg(reduced[r][f])
        basis.append(tuple(vec))
    return basis


def field_solve(matrix, b):
    """Particular solution of A x = b over a field, or None."""
    ring = matrix.ring
    if len(b) != matrix.rows:
        raise MismatchError("rhs length %d, expected %d" % (len(b), matrix.rows))
    aug = matrix.hstack(ConcreteMatrix(ring, [[v] for v in b], matrix.rows, 1))
    reduced, pivots = rref(aug)
    n = matrix.cols
    if n in pivots:
        return None
    x = [ring.zero()] * n
    for r, p in enumerate(pivots):
        x[p] = reduced[r][n]
    return tuple(x)


# ---------------------------------------------------------------------------
# Integer elimination: Smith and Hermite normal forms


def _snf_pivot(entries, m, n, t):
    """Position of the minimal-|value| nonzero entry of the trailing block,
    ties broken by smallest row index then smallest column index.  The scan
    runs in that order, so the first unit found is the answer."""
    best = None
    for i in range(t, m):
        row = entries[i]
        for j in range(t, n):
            v = row[j]
            if v and (best is None or abs(v) < best[0]):
                if v in (1, -1):
                    return i, j
                best = (abs(v), i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix.

    Returns (U, D, V, W) with U*A*V = D, U and V unimodular, W the inverse
    of V, and D diagonal with each diagonal entry dividing the next.  Total
    on integer matrices.
    """
    if matrix.ring != ZZ:
        raise MismatchError("Smith normal form requires integer entries")
    m, n = matrix.rows, matrix.cols
    d = [list(r) for r in matrix.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = [list(row) for row in v]  # stays the inverse of v

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [a - q * b for a, b in zip(d[i], d[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j; inversely row_j += q * row_i
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        w[j] = [a + q * b for a, b in zip(w[j], w[i])]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
            w[i], w[j] = w[j], w[i]

    t = 0
    while True:
        pos = _snf_pivot(d, m, n, t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # Clear column t below the pivot.
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # Pivot must divide every remaining entry; fold offenders in.
            if d[t][t] in (1, -1):
                break
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    computed = ConcreteMatrix._computed
    return (computed(ZZ, u, m, m), computed(ZZ, d, m, n),
            computed(ZZ, v, n, n), computed(ZZ, w, n, n))


def integer_kernel(matrix):
    """Basis of the kernel lattice {x in Z^n : A x = 0} (list of tuples)."""
    if matrix.ring != ZZ:
        raise MismatchError("integer kernel requires integer entries")
    _, d, v, _ = smith_normal_form(matrix)
    m, n = matrix.rows, matrix.cols
    basis = []
    for j in range(n):
        if j >= m or d.entries[j][j] == 0:
            basis.append(v.column(j))
    return basis


def integer_solve(matrix, b):
    """Particular solution of A x = b over Z, or None when unsolvable."""
    if matrix.ring != ZZ:
        raise MismatchError("integer solve requires integer entries")
    if len(b) != matrix.rows:
        raise MismatchError("rhs length %d, expected %d" % (len(b), matrix.rows))
    u, d, v, _ = smith_normal_form(matrix)
    c = u.apply(tuple(int(x) for x in b))
    m, n = matrix.rows, matrix.cols
    y = [0] * n
    for i in range(m):
        di = d.entries[i][i] if i < n else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return v.apply(tuple(y))


def kernel(matrix):
    """Generators of {x : A x = 0}: a basis over a field, a lattice basis
    over Z."""
    if matrix.ring.is_field:
        return field_kernel(matrix)
    return integer_kernel(matrix)


def solve(matrix, b):
    """A particular solution of A x = b, or ``None`` when there is none.

    Every solution is the particular one plus an element of
    ``kernel(matrix)``.
    """
    b = tuple(matrix.ring.coerce(x) for x in b)
    if matrix.ring.is_field:
        return field_solve(matrix, b)
    return integer_solve(matrix, b)


def hermite_normal_form(rows, width):
    """Canonical row-style Hermite normal form of the lattice spanned by
    ``rows`` inside Z^width.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped.  Two generating sets span the same lattice iff
    their HNFs are equal.
    """
    work = [list(int(x) for x in r) for r in rows if any(r)]
    for r in work:
        if len(r) != width:
            raise MismatchError("row length %d, expected %d" % (len(r), width))
    result = []
    col = 0
    while col < width and work:
        active = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not active:
            col += 1
            continue
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            head = active[0]
            new_active = [head]
            for r in active[1:]:
                q = r[col] // head[col]
                reduced = [a - q * b for a, b in zip(r, head)]
                if reduced[col] != 0:
                    new_active.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            if len(new_active) == 1:
                active = new_active
                break
            active = new_active
        pivot_row = active[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        result.append(pivot_row)
        work = rest
        col += 1
    # Reduce entries above each pivot.
    pivots = []
    for row in result:
        lead = next(j for j, x in enumerate(row) if x != 0)
        pivots.append(lead)
    for i in range(len(result)):
        for k in range(i + 1, len(result)):
            p = pivots[k]
            if result[i][p] != 0:
                q = result[i][p] // result[k][p]
                result[i] = [a - q * b for a, b in zip(result[i], result[k])]
    return tuple(tuple(r) for r in result)


def lattice_member(hnf_rows, vector):
    """Membership of ``vector`` in the lattice given by HNF ``hnf_rows``."""
    return lattice_coordinates(ZZ, hnf_rows, vector) is not None


def lattice_coordinates(ring, rows, vector):
    """Coordinates of ``vector`` in the span of canonical echelon ``rows``
    (RREF rows over a field, HNF rows over Z), or None outside the span.

    Each row's coordinate is the vector's entry at the row's pivot divided
    exactly by the pivot, and that multiple of the row is subtracted.  Over
    a field the pivot is 1; over Z a nonzero remainder rejects the vector.
    Entries are scalars of ``ring``.
    """
    field = ring.is_field
    sub, mul = ring.sub, ring.mul
    v = list(vector)
    coords = []
    lead = -1
    for row in rows:
        lead += 1
        while not row[lead]:  # pivots move strictly right down the rows
            lead += 1
        if field:
            q = v[lead]
        else:
            q, r = divmod(v[lead], row[lead])
            if r:
                return None
        coords.append(q)
        if not q:
            continue
        if field:
            v = [sub(a, mul(q, b)) for a, b in zip(v, row)]
        else:
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(coords)
