"""Subspace and subgroup arithmetic inside finite products of fibers, and
kernels of matrices into such products.

Over a field, a subobject is a subspace stored by its reduced row echelon
basis.  Over Z the ambient is a finitely presented abelian group Z^n / L
(L the relation lattice) and a subobject is stored as the Hermite normal
form of the lattice generated by its generators together with L, so equality
of stored lattices is equality of subgroups of the quotient.

Either way the stored rows are canonical echelon rows with known pivots, and
every question about an element is read off them: its coordinates (None
outside the subobject), hence membership, and over a field its class modulo
the subspace.  ``QuotientPresentation`` stores its relations the same way,
once, so class vectors and zero tests run no further elimination.

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
    _, d, _ = smith_normal_form(mat)
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

    def with_relations(self, matrix):
        """The matrix with this ambient's relation rows appended as columns
        (over Z, a solution may then differ from zero by a relation)."""
        if matrix.rows != self.dim:
            raise MismatchError("matrix has %d rows, ambient dimension %d"
                                % (matrix.rows, self.dim))
        if not self.relation_rows:
            return matrix
        return matrix.hstack(ConcreteMatrix.from_columns(
            self.ring, self.relation_rows, matrix.rows))

    def kernel(self, matrix, target=None):
        """{x : matrix (x, y) = 0 in the target for some y}, where x runs
        over this ambient and y over the remaining columns of the matrix.

        The rows of the matrix are the target's coordinates; over Z the
        target's relations are existentially quantified like y.  A matrix
        without rows imposes nothing."""
        if matrix.rows == 0:
            return self.full()
        if target is not None:
            matrix = target.with_relations(matrix)
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
        gens = ConcreteMatrix(ring, generator_rows, cols=ambient.dim)
        if ring.is_field:
            reduced, pivots = rref(gens)
            self.rows = tuple(tuple(r) for r in reduced)
            self.pivots = tuple(pivots)
        else:
            self.rows = hermite_normal_form(
                gens.entries + ambient.relation_rows, ambient.dim)
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
    """Explicit coordinates on larger/smaller: a generator basis (the rows of
    the larger subobject) plus relation rows expressing the smaller one in
    those coordinates, stored once in canonical form as ``relations``.
    Supplies class vectors for concrete elements so that induced maps
    between quotients become honest matrices."""

    __slots__ = ("ambient", "larger", "smaller", "generators",
                 "relation_rows", "relations", "class_dim")

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
        self.relations = SubobjectData(
            Ambient(ring, (len(self.generators),)), coords)
        if ring.is_field:
            self.relation_rows = self.relations.rows
            self.class_dim = len(self.generators) - self.relations.rank
        else:
            self.relation_rows = tuple(coords)
            self.class_dim = len(self.generators)

    def class_vector(self, vector):
        """Coordinates of the class of an ambient vector of the larger
        subobject: reduced coordinates over a field, raw generator
        coordinates over Z (compare modulo relation_rows)."""
        coords = self.larger.coordinates(vector)
        if coords is None:
            raise EngineError("vector outside the larger subobject")
        if self.ambient.ring.is_field:
            return self.relations.complement_coordinates(coords)
        return coords

    def class_representatives(self):
        """One ambient vector per class coordinate: applying class_vector to
        the k-th representative yields the k-th unit class vector."""
        if not self.ambient.ring.is_field:
            return list(self.generators)
        pivots = set(self.relations.pivots)
        return [g for k, g in enumerate(self.generators) if k not in pivots]

    def is_zero_class(self, class_vector):
        ring = self.ambient.ring
        if ring.is_field:
            return all(ring.is_zero(x) for x in class_vector)
        return self.relations.contains_vector(class_vector)

    def classes_equal(self, first, second):
        diff = tuple(self.ambient.ring.sub(a, b)
                     for a, b in zip(first, second))
        return self.is_zero_class(diff)

    def invariants(self):
        ring = self.ambient.ring
        if ring.is_field:
            return QuotientInvariants(self.class_dim)
        return invariants_of_presentation(self.class_dim, self.relation_rows)


def subobject_op(kind, *args):
    """Dispatching front door: sum, intersection, quotient or membership."""
    if kind == "sum":
        first, second = args
        return first.sum(second)
    if kind == "intersection":
        first, second = args
        return first.intersection(second)
    if kind == "quotient":
        larger, smaller = args
        return larger.quotient_by(smaller)
    if kind == "membership":
        sub, vector = args
        return sub.contains_vector(vector)
    raise EngineError("unknown subobject operation %r" % (kind,))
