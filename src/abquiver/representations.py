"""Concrete quiver representations and evaluation of path-algebra data.

A representation assigns to each vertex a finite-dimensional space (field
case) or a finitely presented abelian group given as the cokernel of an
integer matrix whose columns are the relations (integer case), and to each
arrow a concrete matrix on generators.  Evaluation extends multiplicatively
along paths and linearly across terms, and blockwise over typed matrices.
"""

from .errors import EngineError, MismatchError
from .linalg import ConcreteMatrix, block_diagonal
from .scalars import ZZ, check_same_ring
from .subobjects import Ambient, QuotientInvariants, invariants_of_presentation


class Fiber:
    """The value of a representation at one vertex."""

    __slots__ = ("ring", "dim", "relations")

    def __init__(self, ring, dim, relations=None):
        self.ring = ring
        self.dim = int(dim)
        if self.dim < 0:
            raise EngineError("negative fiber dimension")
        if relations is not None:
            if ring.is_field:
                raise MismatchError("presented fibers only exist over Z")
            if relations.rows != self.dim:
                raise MismatchError("presentation has %d rows, fiber has %d "
                                    "generators" % (relations.rows, self.dim))
            check_same_ring(relations.ring, ring)
        self.relations = relations

    def relation_columns(self):
        if self.relations is None:
            return []
        return self.relations.columns()

    def invariants(self):
        if self.ring.is_field:
            return QuotientInvariants(self.dim)
        return invariants_of_presentation(self.dim, self.relation_columns())

    def __eq__(self, other):
        return (isinstance(other, Fiber) and self.ring == other.ring
                and self.dim == other.dim and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ring, self.dim, self.relations))

    def __repr__(self):
        if self.relations is None:
            return "Fiber(%s, dim=%d)" % (self.ring, self.dim)
        return "Fiber(%s, %d generators, %d relations)" % (
            self.ring, self.dim, self.relations.cols)


class FiberProduct:
    """An ordered product of fibers, coordinates typed by vertices."""

    __slots__ = ("ring", "sorts", "fibers")

    def __init__(self, ring, sorts, fibers):
        self.ring = ring
        self.sorts = tuple(sorts)
        self.fibers = tuple(fibers)
        if len(self.sorts) != len(self.fibers):
            raise MismatchError("sort/fiber count mismatch")

    @property
    def dim(self):
        return sum(f.dim for f in self.fibers)

    def dims(self):
        return tuple(f.dim for f in self.fibers)

    def ambient(self):
        relation_rows = []
        if not self.ring.is_field:
            offsets = []
            pos = 0
            for f in self.fibers:
                offsets.append(pos)
                pos += f.dim
            total = pos
            for off, f in zip(offsets, self.fibers):
                for col in f.relation_columns():
                    row = [0] * total
                    for i, x in enumerate(col):
                        row[off + i] = x
                    relation_rows.append(tuple(row))
        return Ambient(self.ring, self.dims(), self.sorts, relation_rows)


class Representation:
    """An assignment of fibers to vertices and matrices to arrows."""

    def __init__(self, quiver, ring, fibers, arrow_matrices):
        self.quiver = quiver
        self.ring = ring
        self.fibers = dict(fibers)
        self.arrow_matrices = dict(arrow_matrices)
        for v in quiver.vertices:
            if v not in self.fibers:
                raise MismatchError("missing fiber at vertex %r" % v)
            check_same_ring(self.fibers[v].ring, ring)
        for a in quiver.arrows:
            if a.name not in self.arrow_matrices:
                raise MismatchError("missing matrix for arrow %r" % a.name)
            mat = self.arrow_matrices[a.name]
            check_same_ring(mat.ring, ring)
            if (mat.rows != self.fibers[a.tgt].dim
                    or mat.cols != self.fibers[a.src].dim):
                raise MismatchError(
                    "arrow %s: matrix is %dx%d but fibers need %dx%d"
                    % (a.name, mat.rows, mat.cols,
                       self.fibers[a.tgt].dim, self.fibers[a.src].dim))
            if not ring.is_field:
                self._check_descends(a, mat)

    def _check_descends(self, arrow, mat):
        """Over Z the arrow matrix must send source relations into the
        relation lattice of the target fiber."""
        src_rel = self.fibers[arrow.src].relation_columns()
        if not src_rel:
            return
        zero = self.fiber_product((arrow.tgt,)).ambient().zero_subobject()
        for col in src_rel:
            if not zero.contains_vector(mat.apply(col)):
                raise MismatchError(
                    "arrow %s does not descend to the presented fibers"
                    % arrow.name)

    def fiber(self, vertex):
        return self.fibers[self.quiver.check_vertex(vertex)]

    def arrow_matrix(self, name):
        return self.arrow_matrices[name]

    def fiber_product(self, sorts):
        return FiberProduct(self.ring, sorts,
                            [self.fiber(s) for s in sorts])

    def evaluate_path(self, path):
        mat = ConcreteMatrix.identity(self.ring, self.fiber(path.src).dim)
        for name in reversed(path.arrows):
            mat = self.arrow_matrices[name].mul(mat)
        return mat

    def evaluate_element(self, element):
        if element.quiver != self.quiver:
            raise MismatchError("element over a different quiver")
        check_same_ring(element.ring, self.ring)
        out = ConcreteMatrix.zeros(self.ring, self.fiber(element.tgt).dim,
                                   self.fiber(element.src).dim)
        for path, coeff in element.terms.items():
            out = out.add(self.evaluate_path(path).scale(coeff))
        return out

    def evaluate_typed_matrix(self, tm):
        """Block matrix of entrywise evaluations; offsets follow fiber
        dimensions in type-list order."""
        if tm.quiver != self.quiver:
            raise MismatchError("typed matrix over a different quiver")
        check_same_ring(tm.ring, self.ring)
        row_dims = [self.fiber(v).dim for v in tm.row_types]
        col_dims = [self.fiber(v).dim for v in tm.col_types]
        total_rows = sum(row_dims)
        total_cols = sum(col_dims)
        zero = self.ring.zero()
        grid = [[zero] * total_cols for _ in range(total_rows)]
        roff = 0
        for j, rdim in enumerate(row_dims):
            coff = 0
            for i, cdim in enumerate(col_dims):
                block = self.evaluate_element(tm.entries[j][i])
                for r in range(rdim):
                    for c in range(cdim):
                        grid[roff + r][coff + c] = block.entries[r][c]
                coff += cdim
            roff += rdim
        return ConcreteMatrix(self.ring, grid, total_rows, total_cols)

    def direct_sum(self, other):
        if self.quiver != other.quiver:
            raise MismatchError("quiver mismatch in direct sum")
        check_same_ring(self.ring, other.ring)
        fibers = {}
        for v in self.quiver.vertices:
            a, b = self.fibers[v], other.fibers[v]
            relations = None
            if not self.ring.is_field:
                blocks = [f.relations for f in (a, b) if f.relations is not None]
                if blocks:
                    padded = [f.relations if f.relations is not None
                              else ConcreteMatrix.zeros(ZZ, f.dim, 0)
                              for f in (a, b)]
                    relations = block_diagonal(ZZ, padded)
            fibers[v] = Fiber(self.ring, a.dim + b.dim, relations)
        matrices = {}
        for arrow in self.quiver.arrows:
            matrices[arrow.name] = block_diagonal(
                self.ring, [self.arrow_matrices[arrow.name],
                            other.arrow_matrices[arrow.name]])
        return Representation(self.quiver, self.ring, fibers, matrices)

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.quiver == other.quiver and self.ring == other.ring
                and self.fibers == other.fibers
                and self.arrow_matrices == other.arrow_matrices)

    def __hash__(self):
        return hash((self.quiver, self.ring,
                     tuple(sorted(self.fibers.items())),
                     tuple(sorted(self.arrow_matrices.items()))))

    def __repr__(self):
        dims = ",".join("%s:%d" % (v, self.fibers[v].dim)
                        for v in self.quiver.vertices)
        return "Representation(%s; %s)" % (self.ring, dims)
