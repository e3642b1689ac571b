"""Finite abstract simplicial complexes, pairs, maps and exact relative
homology.

Faces are stored as frozensets of vertex labels, closed downward; chain
bases order the d-faces by their sorted vertex tuples and the boundary of an
ordered face alternates signs (-1)^k on vertex deletion.  Homology of a pair
is the subquotient cycles/boundaries of the relative chain spaces (faces of
X not in Y), carried around in the class coordinates that
``subobjects.QuotientPresentation`` gives it over either ring: one
generator cycle per coordinate and the canonical class vector of any
relative cycle.  Over Z there is one coordinate per invariant factor other
than 1, torsion first, so a fiber is presented by its invariant factors
alone, with one diagonal relation per torsion factor.
"""

from .errors import EngineError
from .linalg import ConcreteMatrix
from .representations import Fiber
from .subobjects import Ambient, QuotientPresentation, SubobjectData


class SimplicialComplex:
    """A finite abstract simplicial complex over sortable vertex labels."""

    __slots__ = ("vertices", "faces")

    def __init__(self, faces, vertices=None):
        closed = set()
        for face in faces:
            face = tuple(face)
            if not face:
                continue
            if len(set(face)) != len(face):
                raise EngineError("face with repeated vertices: %r" % (face,))
            closed.add(frozenset(face))
        # downward closure
        stack = list(closed)
        while stack:
            face = stack.pop()
            for v in face:
                sub = face - {v}
                if sub and sub not in closed:
                    closed.add(sub)
                    stack.append(sub)
        if vertices is not None:
            seen = set()
            for face in closed:
                seen |= face
            if not seen <= set(vertices):
                raise EngineError("faces mention undeclared vertices")
            for v in vertices:
                closed.add(frozenset({v}))
        self.faces = frozenset(closed)
        seen = set()
        for face in closed:
            seen |= face
        self.vertices = tuple(sorted(seen, key=str))

    @classmethod
    def full_simplex(cls, labels):
        labels = tuple(labels)
        return cls([labels], labels)

    @classmethod
    def empty(cls):
        return cls([], ())

    def dim(self):
        return max((len(f) - 1 for f in self.faces), default=-1)

    def faces_of_dim(self, d):
        if d < 0:
            return []
        out = [tuple(sorted(f, key=str)) for f in self.faces
               if len(f) == d + 1]
        out.sort(key=lambda face: tuple(str(v) for v in face))
        return out

    def skeleton(self, k):
        return SimplicialComplex([f for f in self.faces if len(f) <= k + 1],
                                 self.vertices)

    def contains(self, other):
        return other.faces <= self.faces

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.faces == other.faces)

    def __hash__(self):
        return hash((self.vertices, self.faces))

    def __repr__(self):
        return "SimplicialComplex(%d vertices, dim %d)" % (
            len(self.vertices), self.dim())


class SimplicialPair:
    """A complex with a distinguished subcomplex."""

    __slots__ = ("space", "sub")

    def __init__(self, space, sub):
        if not space.contains(sub):
            raise EngineError("second complex is not a subcomplex")
        self.space = space
        self.sub = sub

    def relative_faces(self, d):
        sub_faces = {f for f in self.sub.faces}
        return [f for f in self.space.faces_of_dim(d)
                if frozenset(f) not in sub_faces]

    def __eq__(self, other):
        return (isinstance(other, SimplicialPair) and self.space == other.space
                and self.sub == other.sub)

    def __hash__(self):
        return hash((self.space, self.sub))

    def __repr__(self):
        return "SimplicialPair(%r, %r)" % (self.space, self.sub)


class SimplicialMap:
    """A vertex map inducing a map of pairs."""

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        vertex_map = dict(vertex_map)
        for v in source.space.vertices:
            if v not in vertex_map:
                raise EngineError("vertex %r has no image" % (v,))
        self.vertex_map = {v: vertex_map[v] for v in source.space.vertices}
        for face in source.space.faces:
            image = frozenset(self.vertex_map[v] for v in face)
            if image not in target.space.faces:
                raise EngineError("image of face %r is not a face"
                                  % (sorted(face, key=str),))
        for face in source.sub.faces:
            image = frozenset(self.vertex_map[v] for v in face)
            if image not in target.sub.faces:
                raise EngineError("map does not preserve the subcomplexes")

    def is_identity_inclusion(self):
        return all(self.vertex_map[v] == v
                   for v in self.source.space.vertices)

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.source == other.source
                and self.target == other.target
                and self.vertex_map == other.vertex_map)

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(sorted(self.vertex_map.items(), key=str))))

    def __repr__(self):
        return "SimplicialMap(%d vertices)" % len(self.vertex_map)


def _permutation_sign(values):
    sign = 1
    values = list(values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[j] < values[i]:
                sign = -sign
    return sign


def boundary_matrix(pair, d, ring):
    """Relative boundary C_d(X, Y) -> C_{d-1}(X, Y)."""
    rows = pair.relative_faces(d - 1)
    cols = pair.relative_faces(d)
    index = {f: i for i, f in enumerate(rows)}
    zero = ring.zero()
    grid = [[zero] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for k in range(len(face)):
            sub = face[:k] + face[k + 1:]
            if sub in index:
                grid[index[sub]][j] = ring.add(grid[index[sub]][j],
                                               ring.from_int((-1) ** k))
    return ConcreteMatrix._computed(ring, grid, len(rows), len(cols))


def chain_map_matrix(smap, d, ring):
    """Induced map on relative d-chains of a simplicial map of pairs."""
    cols = smap.source.relative_faces(d)
    rows = smap.target.relative_faces(d)
    index = {f: i for i, f in enumerate(rows)}
    zero = ring.zero()
    grid = [[zero] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        images = [smap.vertex_map[v] for v in face]
        if len(set(images)) != len(images):
            continue  # degenerate image contributes zero
        sign = _permutation_sign([str(v) for v in images])
        sorted_face = tuple(sorted(images, key=str))
        if sorted_face in index:
            i = index[sorted_face]
            grid[i][j] = ring.add(grid[i][j], ring.from_int(sign))
    return ConcreteMatrix._computed(ring, grid, len(rows), len(cols))


class RelativeHomology:
    """H_d of a pair: the subquotient cycles/boundaries of the relative
    d-chains, in the class coordinates of its ``QuotientPresentation``;
    ``dim`` counts the coordinates."""

    def __init__(self, pair, degree, ring):
        self.pair = pair
        self.degree = degree
        self.ring = ring
        n = len(pair.relative_faces(degree))
        ambient = Ambient(ring, (n,), ("chains",))
        cycles = ambient.kernel(boundary_matrix(pair, degree, ring))
        bd_up = boundary_matrix(pair, degree + 1, ring)
        boundaries = SubobjectData(ambient, bd_up.transpose().entries)
        self._presentation = QuotientPresentation(cycles, boundaries)
        self.dim = self._presentation.class_dim

    def fiber(self):
        rows = self._presentation.relation_rows
        relations = (ConcreteMatrix.from_columns(self.ring, rows, self.dim)
                     if rows else None)
        return Fiber(self.ring, self.dim, relations)

    def generator_chains(self):
        """One representative cycle per class coordinate: its class is the
        unit vector of that coordinate."""
        return self._presentation.class_representatives()

    def class_of_chain(self, vector):
        """Class vector of a relative cycle, canonical on its class."""
        return self._presentation.class_vector(vector)

    def invariants(self):
        return self._presentation.invariants()


def connecting_chain(ring, pair_xy, pair_yz, cycle_vector, degree):
    """The boundary of a relative cycle of (X, Y), read as a relative chain
    of (Y, Z): lift, apply the boundary of X, project."""
    x_faces = pair_xy.relative_faces(degree)
    target_faces = pair_yz.relative_faces(degree - 1)
    index = {f: i for i, f in enumerate(target_faces)}
    y_faces = pair_xy.sub.faces
    out = [ring.zero()] * len(target_faces)
    leftover = {}
    for coeff, face in zip(cycle_vector, x_faces):
        if ring.is_zero(coeff):
            continue
        for k in range(len(face)):
            sub = face[:k] + face[k + 1:]
            if not sub:
                continue
            contribution = ring.mul(ring.from_int((-1) ** k), coeff)
            if frozenset(sub) in y_faces:
                if sub in index:
                    out[index[sub]] = ring.add(out[index[sub]], contribution)
            else:
                leftover[sub] = ring.add(leftover.get(sub, ring.zero()),
                                         contribution)
    if any(not ring.is_zero(v) for v in leftover.values()):
        raise EngineError("input chain is not a relative cycle")
    return tuple(out)
