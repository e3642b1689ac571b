"""Subspace and subgroup arithmetic inside finite products of fibers, and
kernels of matrices into such products.

Over a field, a subobject is a subspace stored by its reduced row echelon
basis.  Over Z the ambient is a finitely presented abelian group Z^n / L
(L the relation lattice) and a subobject is stored as the Hermite normal
form of the lattice generated by its generators together with L, so equality
of stored lattices is equality of subgroups of the quotient.

Either way the stored rows are canonical echelon rows with known pivots, and
every question about an element is read off them: its coordinates (None
outside the subobject), hence membership, over a field its class modulo
the subspace, and for a vector of the leading coordinates a partner that
completes it to an element.

``QuotientPresentation`` is the one presentation of a subquotient
larger/smaller over either ring, in canonical class coordinates: the
complement of the relations' RREF pivots over a field, and over Z the
coordinates of the relations' Smith form whose invariant factor is not 1,
torsion first and reduced modulo its factor.  Equal classes have equal
class vectors, so comparing classes runs no elimination.

Every value computed at a representation is one kernel: the vectors x of an
ambient for which a matrix sends (x, y) to zero in a presented target, for
some y.  ``Ambient.kernel`` joins the target's relations to the matrix as
extra columns and projects the kernel onto the ambient's coordinates.
"""

from .errors import EngineError, MismatchError
from .linalg import (ConcreteMatrix, hermite_normal_form, kernel,
                     lattice_coordinates, rref, smith_normal_form)
from .scalars import ZZ


class QuotientInvariants:
    """Isomorphism invariants of a quotient: free rank plus invariant
    factors d_1 | d_2 | ... (torsion is always empty over a field)."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        torsion = tuple(int(t) for t in torsion)
        if free_rank < 0:
            raise EngineError("negative free rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise EngineError("invariant factors %r violate divisibility"
                                  % (torsion,))
        if any(t <= 1 for t in torsion):
            raise EngineError("invariant factors must exceed 1")
        self.free_rank = free_rank
        self.torsion = torsion

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __eq__(self, other):
        return (isinstance(other, QuotientInvariants)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        if not self.torsion:
            return "QuotientInvariants(free_rank=%d)" % self.free_rank
        return ("QuotientInvariants(free_rank=%d, torsion=%s)"
                % (self.free_rank, list(self.torsion)))


def invariants_of_presentation(n_generators, relation_columns):
    """Invariants of Z^n / <relation columns> via Smith normal form."""
    if not relation_columns:
        return QuotientInvariants(n_generators)
    mat = ConcreteMatrix(ZZ, [[col[i] for col in relation_columns]
                              for i in range(n_generators)])
    _, d, _, _ = smith_normal_form(mat)
    rank = 0
    torsion = []
    for i in range(min(d.rows, d.cols)):
        di = d.entries[i][i]
        if di == 0:
            break
        rank += 1
        if di > 1:
            torsion.append(di)
    return QuotientInvariants(n_generators - rank, torsion)


class Ambient:
    """A product of fibers: per-coordinate dimensions and labels, plus the
    relation lattice rows over Z (empty tuple when the ambient is free)."""

    __slots__ = ("ring", "dims", "labels", "relation_rows", "dim")

    def __init__(self, ring, dims, labels=None, relation_rows=()):
        self.ring = ring
        self.dims = tuple(int(d) for d in dims)
        self.labels = tuple(labels) if labels is not None else tuple(
            str(i) for i in range(len(self.dims)))
        if len(self.labels) != len(self.dims):
            raise MismatchError("label/dimension count mismatch")
        self.dim = sum(self.dims)
        relation_rows = tuple(tuple(int(x) for x in r) for r in relation_rows)
        if relation_rows and ring.is_field:
            raise MismatchError("relation rows only make sense over Z")
        for r in relation_rows:
            if len(r) != self.dim:
                raise MismatchError("relation row length mismatch")
        self.relation_rows = relation_rows

    def offsets(self):
        out = []
        pos = 0
        for d in self.dims:
            out.append(pos)
            pos += d
        return out

    def full(self):
        basis = ConcreteMatrix.identity(self.ring, self.dim)
        return SubobjectData(self, basis.entries)

    def zero_subobject(self):
        return SubobjectData(self, ())

    def kernel(self, matrix, target=None):
        """{x : matrix (x, y) = 0 in the target for some y}, where x runs
        over this ambient and y over the remaining columns of the matrix.

        The rows of the matrix are the target's coordinates; over Z the
        target's relation rows join the matrix as extra columns, so they
        are existentially quantified like y.  A matrix without rows imposes
        nothing."""
        if matrix.rows == 0:
            return self.full()
        if target is not None:
            if matrix.rows != target.dim:
                raise MismatchError("matrix has %d rows, target dimension %d"
                                    % (matrix.rows, target.dim))
            if target.relation_rows:
                matrix = matrix.hstack(ConcreteMatrix.from_columns(
                    self.ring, target.relation_rows, matrix.rows))
        return SubobjectData(self, [v[:self.dim] for v in kernel(matrix)])

    def __eq__(self, other):
        return (isinstance(other, Ambient) and self.ring == other.ring
                and self.dims == other.dims and self.labels == other.labels
                and self.relation_rows == other.relation_rows)

    def __hash__(self):
        return hash((self.ring, self.dims, self.labels, self.relation_rows))

    def __repr__(self):
        return "Ambient(%s, dims=%s)" % (self.ring, list(self.dims))


class SubobjectData:
    """A subobject of an ambient product, in canonical form: echelon rows
    and the column of each row's pivot."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient, generator_rows):
        self.ambient = ambient
        ring = ambient.ring
        if ring.is_field:
            reduced, pivots = rref(
                ConcreteMatrix(ring, generator_rows, cols=ambient.dim))
            self.rows = tuple(tuple(r) for r in reduced)
            self.pivots = tuple(pivots)
        else:
            self.rows = hermite_normal_form(
                [*generator_rows, *ambient.relation_rows], ambient.dim)
            self.pivots = tuple(next(j for j, x in enumerate(r) if x != 0)
                                for r in self.rows)

    @property
    def rank(self):
        return len(self.rows)

    def coordinates(self, vector):
        """Coordinates of an ambient vector in the stored rows, read off
        their pivots, or None when the vector lies outside."""
        ring = self.ambient.ring
        if len(vector) != self.ambient.dim:
            raise MismatchError("vector length %d, ambient dimension %d"
                                % (len(vector), self.ambient.dim))
        return lattice_coordinates(ring, self.rows,
                                   [ring.coerce(x) for x in vector])

    def contains_vector(self, vector):
        return self.coordinates(vector) is not None

    def partner(self, head):
        """Some tail w with (head, w) in this subobject, where head fills
        the first len(head) coordinates, or None when there is none.

        The stored rows whose pivot lies among those coordinates come
        first, and restricted to them they are echelon rows spanning the
        projection; head's coordinates in them, applied to the rest of the
        same rows, give w."""
        ring = self.ambient.ring
        k = len(head)
        rows = self.rows[:sum(1 for p in self.pivots if p < k)]
        coords = lattice_coordinates(ring, [r[:k] for r in rows],
                                     [ring.coerce(x) for x in head])
        if coords is None:
            return None
        tail = [ring.zero()] * (self.ambient.dim - k)
        for q, row in zip(coords, rows):
            if not ring.is_zero(q):
                tail = [ring.add(a, ring.mul(q, b))
                        for a, b in zip(tail, row[k:])]
        return tuple(tail)

    def complement_coordinates(self, vector):
        """Over a field, the class of an ambient vector modulo this
        subspace: the vector reduced by the stored rows, at the columns
        that are not pivots."""
        ring = self.ambient.ring
        v = list(vector)
        for row, p in zip(self.rows, self.pivots):
            q = v[p]
            if not ring.is_zero(q):
                v = [ring.sub(a, ring.mul(q, b)) for a, b in zip(v, row)]
        pivots = set(self.pivots)
        return tuple(x for j, x in enumerate(v) if j not in pivots)

    def contains(self, other):
        self._check_ambient(other)
        return all(self.contains_vector(r) for r in other.rows)

    def sum(self, other):
        self._check_ambient(other)
        return SubobjectData(self.ambient, self.rows + other.rows)

    def intersection(self, other):
        self._check_ambient(other)
        ring = self.ambient.ring
        if not self.rows or not other.rows:
            return self.ambient.zero_subobject()
        # x in U cap W  <=>  x = a . U = b . W; solve for (a, b).
        u = ConcreteMatrix(ring, self.rows).transpose()
        w = ConcreteMatrix(ring, other.rows).transpose()
        stacked = u.hstack(w.neg())
        gens = [u.apply(vec[:u.cols]) for vec in kernel(stacked)]
        return SubobjectData(self.ambient, gens)

    def quotient_by(self, smaller):
        """Invariants of self / smaller; raises unless smaller is contained."""
        self._check_ambient(smaller)
        coords = [self.coordinates(row) for row in smaller.rows]
        if any(c is None for c in coords):
            raise MismatchError("quotient: smaller subobject not contained")
        if self.ambient.ring.is_field:
            return QuotientInvariants(self.rank - smaller.rank)
        return invariants_of_presentation(self.rank, coords)

    def project(self, coordinate_indices):
        """Image under projection onto a subset of ambient coordinates."""
        amb = self.ambient
        keep = list(coordinate_indices)
        offs = amb.offsets()
        cols = []
        dims = []
        labels = []
        for idx in keep:
            cols.extend(range(offs[idx], offs[idx] + amb.dims[idx]))
            dims.append(amb.dims[idx])
            labels.append(amb.labels[idx])
        rel = []
        if not amb.ring.is_field:
            rel = _project_relations(amb, keep, cols)
        target = Ambient(amb.ring, dims, labels, rel)
        gens = [tuple(row[c] for c in cols) for row in self.rows]
        return SubobjectData(target, gens)

    def invariants(self):
        """Invariants of this subobject as an abstract group/space."""
        ring = self.ambient.ring
        if ring.is_field:
            return QuotientInvariants(self.rank)
        return self.quotient_by(SubobjectData(self.ambient, ()))

    def _check_ambient(self, other):
        if not isinstance(other, SubobjectData):
            raise MismatchError("expected a SubobjectData")
        if self.ambient != other.ambient:
            raise MismatchError("ambient mismatch")

    def __eq__(self, other):
        return (isinstance(other, SubobjectData)
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return "SubobjectData(%s, %d generators)" % (self.ambient, len(self.rows))


def _project_relations(ambient, keep, cols):
    """Relation rows of the projected ambient: the per-block relations of the
    kept coordinates (relations never mix blocks)."""
    out = []
    offs = ambient.offsets()
    width = sum(ambient.dims[i] for i in keep)
    for row in ambient.relation_rows:
        support = [i for i, d in enumerate(ambient.dims)
                   if any(row[offs[i] + j] != 0 for j in range(d))]
        if len(support) > 1:
            raise EngineError("ambient relations must be blockwise")
        if not support:
            continue
        if support[0] in keep:
            out.append(tuple(row[c] for c in cols))
    return [r for r in out if any(r)]


class QuotientPresentation:
    """The subquotient larger/smaller in canonical class coordinates.

    The rows of the smaller subobject, written in the stored rows of the
    larger one (``generators``), are the relations.  Over a field a class
    is its coordinates reduced by the relations' RREF, read at the columns
    that are not pivots.  Over Z the relation matrix R has Smith form
    U R V = D: a class with coordinates c is c V, the coordinates whose d
    is 1 are dropped, the torsion ones come first and are reduced into
    [0, d).  Either way equal classes have equal class vectors, each class
    representative has a unit class vector, and ``relation_rows`` has one
    diagonal row per invariant factor d > 1 (``torsion``).
    """

    __slots__ = ("ambient", "larger", "smaller", "generators", "torsion",
                 "relation_rows", "class_dim", "_relations", "_class_columns",
                 "_representatives")

    def __init__(self, larger, smaller):
        if larger.ambient != smaller.ambient:
            raise MismatchError("ambient mismatch")
        coords = [larger.coordinates(row) for row in smaller.rows]
        if any(c is None for c in coords):
            raise MismatchError("quotient: smaller subobject not contained")
        self.ambient = larger.ambient
        self.larger = larger
        self.smaller = smaller
        ring = self.ambient.ring
        self.generators = larger.rows
        k = len(self.generators)
        if ring.is_field:
            self._relations = SubobjectData(Ambient(ring, (k,)), coords)
            pivots = set(self._relations.pivots)
            self._representatives = [g for j, g in enumerate(self.generators)
                                     if j not in pivots]
            self.torsion = ()
        else:
            _, d, v, v_inv = smith_normal_form(
                ConcreteMatrix._computed(ZZ, coords, len(coords), k))
            diagonal = [d[i, i] for i in range(min(d.rows, k))]
            units = diagonal.count(1)
            self.torsion = tuple(x for x in diagonal[units:] if x)
            self._class_columns = [v.column(j) for j in range(units, k)]
            columns = list(zip(*self.generators))
            self._representatives = [
                tuple(sum(a * b for a, b in zip(v_inv.row(j), col))
                      for col in columns)
                for j in range(units, k)]
        self.class_dim = len(self._representatives)
        self.relation_rows = tuple(
            tuple(x if i == t else 0 for i in range(self.class_dim))
            for t, x in enumerate(self.torsion))

    def class_vector(self, vector):
        """The canonical class vector of an ambient vector of the larger
        subobject."""
        coords = self.larger.coordinates(vector)
        if coords is None:
            raise EngineError("vector outside the larger subobject")
        if self.ambient.ring.is_field:
            return self._relations.complement_coordinates(coords)
        out = [sum(a * b for a, b in zip(coords, col))
               for col in self._class_columns]
        for t, x in enumerate(self.torsion):
            out[t] %= x
        return tuple(out)

    def class_representatives(self):
        """One ambient vector per class coordinate: applying class_vector to
        the k-th representative yields the k-th unit class vector."""
        return self._representatives

    def is_zero_class(self, class_vector):
        """Whether every coordinate is 0 once each torsion coordinate is
        reduced modulo its invariant factor."""
        t = len(self.torsion)
        return not (any(x % d for x, d in zip(class_vector, self.torsion))
                    or any(class_vector[t:]))

    def classes_equal(self, first, second):
        diff = tuple(self.ambient.ring.sub(a, b)
                     for a, b in zip(first, second))
        return self.is_zero_class(diff)

    def invariants(self):
        return QuotientInvariants(self.class_dim - len(self.torsion),
                                  self.torsion)
