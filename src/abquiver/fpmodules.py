"""Finitely presented modules over the path algebra of an acyclic quiver.

A module is the cokernel of the map between representable projectives induced
by a typed relation matrix H: columns name the generators (with their
sorts), rows are the relations.  For an acyclic quiver every such module has
finite underlying data obtained by enumerating (generator, path) pairs and
quotienting by the translated relation rows, which turns Hom computation,
satisfaction and implication into exact linear algebra.
"""

from .errors import EngineError, MismatchError
from .linalg import ConcreteMatrix, field_kernel
from .quivers import AlgebraElement, Path, TypedMatrix, path_basis
from .representations import Fiber, Representation
from .scalars import check_same_ring
from .subobjects import Ambient, SubobjectData
from .formulas import evaluate


class FpModule:
    """coker of the projective map induced by the relation matrix."""

    __slots__ = ("quiver", "ring", "presentation")

    def __init__(self, quiver, ring, presentation):
        if presentation.quiver != quiver:
            raise MismatchError("presentation over a different quiver")
        check_same_ring(ring, presentation.ring)
        self.quiver = quiver
        self.ring = ring
        self.presentation = presentation

    @classmethod
    def representable(cls, quiver, ring, vertex):
        quiver.check_vertex(vertex)
        h = TypedMatrix.zero(quiver, ring, (), (vertex,))
        return cls(quiver, ring, h)

    @classmethod
    def zero(cls, quiver, ring):
        return cls(quiver, ring, TypedMatrix.zero(quiver, ring, (), ()))

    @property
    def generator_sorts(self):
        return self.presentation.col_types

    @property
    def relation_sorts(self):
        return self.presentation.row_types

    def __eq__(self, other):
        return (isinstance(other, FpModule) and self.quiver == other.quiver
                and self.ring == other.ring
                and self.presentation == other.presentation)

    def __hash__(self):
        return hash((self.ring, self.presentation))

    def __repr__(self):
        return "FpModule(%d generators, %d relations)" % (
            len(self.generator_sorts), len(self.relation_sorts))


class ElementTuple:
    """A tuple of module elements, one per declared sort, each written as an
    algebra-element column over the generators."""

    __slots__ = ("module", "coords")

    def __init__(self, module, coords):
        if coords.col_types != module.generator_sorts:
            raise MismatchError("coordinate columns must match the generators")
        check_same_ring(module.ring, coords.ring)
        self.module = module
        self.coords = coords

    @property
    def sorts(self):
        return self.coords.row_types

    def __eq__(self, other):
        return (isinstance(other, ElementTuple) and self.module == other.module
                and self.coords == other.coords)

    def __repr__(self):
        return "ElementTuple(sorts=%s)" % (list(self.sorts),)


class UnderlyingData:
    """Finite presentation of a module's fibers: a coordinate list of
    (generator, path) pairs per vertex, the relation subobject of each free
    fiber (over a field, fiber coordinates are the classes modulo it), and
    a Representation carrying the arrow actions."""

    def __init__(self, module):
        quiver, ring = module.quiver, module.ring
        quiver.require_acyclic()
        self.module = module
        h = module.presentation
        gens = module.generator_sorts

        self.coords = {}
        self.coord_index = {}
        for w in quiver.vertices:
            lst = []
            for i, sort in enumerate(gens):
                for p in path_basis(quiver, sort, w):
                    lst.append((i, p))
            self.coords[w] = lst
            self.coord_index[w] = {c: k for k, c in enumerate(lst)}

        self.relation_vectors = {w: [] for w in quiver.vertices}
        for j, rel_sort in enumerate(module.relation_sorts):
            for w in quiver.vertices:
                for q in path_basis(quiver, rel_sort, w):
                    q_elt = AlgebraElement.of_path(quiver, ring, q)
                    vec = [ring.zero()] * len(self.coords[w])
                    for i in range(len(gens)):
                        translated = q_elt.multiply(h.entries[j][i])
                        for path, coeff in translated.terms.items():
                            k = self.coord_index[w][(i, path)]
                            vec[k] = ring.add(vec[k], coeff)
                    self.relation_vectors[w].append(tuple(vec))

        self.relations = {}
        self.basis_coords = {}
        fibers = {}
        for w in quiver.vertices:
            n = len(self.coords[w])
            rels = self.relation_vectors[w]
            self.relations[w] = SubobjectData(Ambient(ring, (n,)), rels)
            if ring.is_field:
                pivots = set(self.relations[w].pivots)
                self.basis_coords[w] = [k for k in range(n)
                                        if k not in pivots]
                fibers[w] = Fiber(ring, len(self.basis_coords[w]))
            else:
                self.basis_coords[w] = list(range(n))
                relations = None
                if rels:
                    relations = ConcreteMatrix.from_columns(ring, rels, n)
                fibers[w] = Fiber(ring, n, relations)

        matrices = {}
        for arrow in quiver.arrows:
            cols = []
            for k in self.basis_coords[arrow.src]:
                i, p = self.coords[arrow.src][k]
                longer = Path((arrow.name,) + p.arrows, p.src, arrow.tgt)
                free = [ring.zero()] * len(self.coords[arrow.tgt])
                free[self.coord_index[arrow.tgt][(i, longer)]] = ring.one()
                cols.append(self.reduce(arrow.tgt, free))
            matrices[arrow.name] = ConcreteMatrix.from_columns(
                ring, cols, fibers[arrow.tgt].dim)
        self.representation = Representation(quiver, ring, fibers, matrices)

    def reduce(self, vertex, free_vector):
        """Fiber coordinates of a vector given on the free (gen, path) grid."""
        if not self.module.ring.is_field:
            return tuple(free_vector)
        return self.relations[vertex].complement_coordinates(free_vector)

    def fiber_dim(self, vertex):
        return self.representation.fiber(vertex).dim

    def dimension_vector(self):
        if not self.module.ring.is_field:
            raise EngineError("dimension vector is a field-case notion")
        return tuple(self.fiber_dim(w) for w in self.module.quiver.vertices)

    def generator_vector(self, index):
        """Fiber coordinates of the image of the index-th generator."""
        sort = self.module.generator_sorts[index]
        free = [self.module.ring.zero()] * len(self.coords[sort])
        free[self.coord_index[sort][(index, Path.identity(sort))]] = \
            self.module.ring.one()
        return self.reduce(sort, free)

    def element_value(self, element_tuple):
        """Concatenated fiber coordinates of an element tuple."""
        ring = self.module.ring
        rep = self.representation
        gen_vectors = [self.generator_vector(i)
                       for i in range(len(self.module.generator_sorts))]
        out = []
        for r, sort in enumerate(element_tuple.coords.row_types):
            acc = tuple([ring.zero()] * self.fiber_dim(sort))
            for i in range(len(gen_vectors)):
                action = rep.evaluate_element(
                    element_tuple.coords.entries[r][i])
                img = action.apply(gen_vectors[i])
                acc = tuple(ring.add(x, y) for x, y in zip(acc, img))
            out.extend(acc)
        return tuple(out)


class FpMorphism:
    """A module morphism given on generators; construction certifies that the
    matrix maps relations into relations via a lifting solve."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, _certified=False):
        if source.quiver != target.quiver:
            raise MismatchError("modules over different quivers")
        check_same_ring(source.ring, target.ring, matrix.ring)
        if matrix.row_types != source.generator_sorts:
            raise MismatchError("matrix rows must match the source generators")
        if matrix.col_types != target.generator_sorts:
            raise MismatchError("matrix columns must match the target "
                                "generators")
        self.source = source
        self.target = target
        self.matrix = matrix
        if not _certified and not _maps_relations_into_relations(
                source, target, matrix):
            raise EngineError("matrix does not send relations into relations")

    @classmethod
    def identity(cls, module):
        return cls(module, module,
                   TypedMatrix.identity(module.quiver, module.ring,
                                        module.generator_sorts),
                   _certified=True)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   TypedMatrix.zero(source.quiver, source.ring,
                                    source.generator_sorts,
                                    target.generator_sorts),
                   _certified=True)

    def then(self, other):
        """Diagrammatic composition: self followed by other."""
        if self.target != other.source:
            raise MismatchError("endpoint mismatch in composition")
        return FpMorphism(self.source, other.target,
                          self.matrix.mul(other.matrix), _certified=True)

    def apply_to_tuple(self, element_tuple):
        """Push an element tuple of the source forward along the morphism."""
        if element_tuple.module != self.source:
            raise MismatchError("tuple does not live in the source module")
        return ElementTuple(self.target,
                            element_tuple.coords.mul(self.matrix))

    def __eq__(self, other):
        return (isinstance(other, FpMorphism) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return "FpMorphism(%r -> %r)" % (self.source, self.target)


def _maps_relations_into_relations(source, target, matrix):
    """Each source relation, pushed through the matrix, must land in the
    relation submodule of the target's free cover."""
    data = UnderlyingData(target)
    ring = source.ring
    image = source.presentation.mul(matrix)
    for j, rel_sort in enumerate(source.relation_sorts):
        free = [ring.zero()] * len(data.coords[rel_sort])
        for l in range(len(target.generator_sorts)):
            for path, coeff in image.entries[j][l].terms.items():
                k = data.coord_index[rel_sort][(l, path)]
                free[k] = ring.add(free[k], coeff)
        if not data.relations[rel_sort].contains_vector(free):
            return False
    return True


def hom_basis(source, target):
    """A basis of Hom(source, target) over a field coefficient ring."""
    if not source.ring.is_field:
        raise EngineError("hom_basis requires a field coefficient ring")
    check_same_ring(source.ring, target.ring)
    if source.quiver != target.quiver:
        raise MismatchError("modules over different quivers")
    source.quiver.require_acyclic()
    ring = source.ring
    data = UnderlyingData(target)
    gens = source.generator_sorts
    dims = [data.fiber_dim(s) for s in gens]
    offsets = []
    pos = 0
    for d in dims:
        offsets.append(pos)
        pos += d
    total = pos
    rows = []
    h = source.presentation
    for j, rel_sort in enumerate(source.relation_sorts):
        d_out = data.fiber_dim(rel_sort)
        blocks = [data.representation.evaluate_element(h.entries[j][i])
                  for i in range(len(gens))]
        for r in range(d_out):
            row = [ring.zero()] * total
            for i, block in enumerate(blocks):
                for c in range(dims[i]):
                    row[offsets[i] + c] = block.entries[r][c]
            rows.append(row)
    system = ConcreteMatrix(ring, rows, len(rows), total)
    kernel = field_kernel(system)
    out = []
    for vec in kernel:
        entries = []
        for i, sort in enumerate(gens):
            row = [AlgebraElement.zero(source.quiver, ring, tsort, sort)
                   for tsort in target.generator_sorts]
            for c in range(dims[i]):
                coeff = vec[offsets[i] + c]
                if ring.is_zero(coeff):
                    continue
                l, path = data.coords[sort][data.basis_coords[sort][c]]
                term = AlgebraElement.of_path(source.quiver, ring, path, coeff)
                row[l] = row[l].add(term)
            entries.append(row)
        matrix = TypedMatrix(source.quiver, ring, gens,
                             target.generator_sorts, entries)
        # The field kernel above already certifies that the element sends
        # every source relation to zero in the target.
        out.append(FpMorphism(source, target, matrix, _certified=True))
    return out


def free_realization(formula):
    """The module presented by the formula's combined equations on
    variable-indexed generators, with the canonical witness tuple.

    For every module M the solution set of the formula equals the set of
    images of the witness under module morphisms into M.
    """
    formula.quiver.require_acyclic()
    h = formula.matrix_a.hstack(formula.matrix_b)
    module = FpModule(formula.quiver, formula.ring, h)
    quiver, ring = formula.quiver, formula.ring
    n_ctx = len(formula.context)
    n_total = len(module.generator_sorts)
    entries = []
    for r, (_, sort) in enumerate(formula.context):
        row = []
        for i in range(n_total):
            gsort = module.generator_sorts[i]
            if i == r:
                row.append(AlgebraElement.vertex_identity(quiver, ring, sort))
            else:
                row.append(AlgebraElement.zero(quiver, ring, gsort, sort))
        entries.append(row)
    coords = TypedMatrix(quiver, ring, formula.context_sorts,
                         module.generator_sorts, entries)
    return module, ElementTuple(module, coords)


def element_satisfies(module, element_tuple, formula):
    """Whether the tuple lies in the formula's solution set in the module."""
    if element_tuple.module != module:
        raise MismatchError("tuple does not live in the module")
    if element_tuple.sorts != formula.context_sorts:
        raise MismatchError("context mismatch: tuple sorts %s, formula %s"
                            % (element_tuple.sorts, formula.context_sorts))
    module.quiver.require_acyclic()
    data = UnderlyingData(module)
    value = data.element_value(element_tuple)
    solutions = evaluate(formula, data.representation)
    return solutions.contains_vector(value)
