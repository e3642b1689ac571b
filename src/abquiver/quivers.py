"""Quivers, paths and the typed matrix completion of the path algebra.

A path is written alpha_n ... alpha_1 (rightmost arrow acts first), so the
product of two basis paths p * q is "q then p": the concatenation p.arrows +
q.arrows when src(p) = tgt(q), and zero otherwise.  Elements of the path
algebra carry a single (src, tgt) pair of endpoints; general sums across
types never arise because every element lives inside a typed matrix.
"""

from .errors import CyclicQuiverUnsupported, EngineError, MismatchError
from .scalars import check_same_ring


class Arrow:
    __slots__ = ("name", "src", "tgt")

    def __init__(self, name, src, tgt):
        self.name = name
        self.src = src
        self.tgt = tgt

    def __eq__(self, other):
        return (isinstance(other, Arrow) and self.name == other.name
                and self.src == other.src and self.tgt == other.tgt)

    def __hash__(self):
        return hash((self.name, self.src, self.tgt))

    def __repr__(self):
        return "Arrow(%s: %s -> %s)" % (self.name, self.src, self.tgt)


class Quiver:
    """A finite directed graph with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a)
                            for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise EngineError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise EngineError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.src not in vset or a.tgt not in vset:
                raise EngineError("arrow %s references unknown vertex" % a.name)
        self._arrow_by_name = {a.name: a for a in self.arrows}
        self._arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._acyclic = None

    def arrow(self, name):
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise EngineError("unknown arrow %r" % name)

    def has_vertex(self, v):
        return v in self._vertex_index

    def check_vertex(self, v):
        if v not in self._vertex_index:
            raise EngineError("unknown vertex %r" % v)
        return v

    def arrow_index(self, name):
        return self._arrow_index[name]

    def vertex_index(self, v):
        return self._vertex_index[v]

    def arrows_from(self, v):
        return [a for a in self.arrows if a.src == v]

    def is_acyclic(self):
        if self._acyclic is None:
            self._acyclic = self._find_cycle() is None
        return self._acyclic

    def _find_cycle(self):
        color = {v: 0 for v in self.vertices}  # 0 new, 1 active, 2 done
        stack_path = []

        def visit(v):
            color[v] = 1
            stack_path.append(v)
            for a in self.arrows_from(v):
                w = a.tgt
                if color[w] == 1:
                    return stack_path[stack_path.index(w):] + [w]
                if color[w] == 0:
                    found = visit(w)
                    if found:
                        return found
            stack_path.pop()
            color[v] = 2
            return None

        for v in self.vertices:
            if color[v] == 0:
                found = visit(v)
                if found:
                    return found
        return None

    def require_acyclic(self):
        cycle = None if self.is_acyclic() else self._find_cycle()
        if cycle is not None:
            raise CyclicQuiverUnsupported(cycle)

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self.vertices),
                                                   len(self.arrows))


class Path:
    """A composable arrow sequence, stored leftmost-acts-last; the empty
    path at a vertex is that vertex's local identity."""

    __slots__ = ("arrows", "src", "tgt")

    def __init__(self, arrows, src, tgt):
        self.arrows = tuple(arrows)
        self.src = src
        self.tgt = tgt

    @classmethod
    def identity(cls, vertex):
        return cls((), vertex, vertex)

    @classmethod
    def of_arrow(cls, arrow):
        return cls((arrow.name,), arrow.src, arrow.tgt)

    @classmethod
    def from_arrow_names(cls, quiver, names):
        """Build a path from names listed leftmost-acts-last, validating
        composability against the quiver."""
        arrows = [quiver.arrow(n) for n in names]
        if not arrows:
            raise EngineError("empty arrow list; use Path.identity")
        for late, early in zip(arrows, arrows[1:]):
            if late.src != early.tgt:
                raise EngineError("path not composable at %s * %s"
                                  % (late.name, early.name))
        return cls(tuple(a.name for a in arrows), arrows[-1].src, arrows[0].tgt)

    def __len__(self):
        return len(self.arrows)

    def compose(self, earlier):
        """self * earlier ("earlier then self"); None when not composable."""
        if self.src != earlier.tgt:
            return None
        return Path(self.arrows + earlier.arrows, earlier.src, self.tgt)

    def sort_key(self, quiver):
        return (len(self.arrows),
                tuple(quiver.arrow_index(a) for a in self.arrows))

    def __eq__(self, other):
        return (isinstance(other, Path) and self.arrows == other.arrows
                and self.src == other.src and self.tgt == other.tgt)

    def __hash__(self):
        return hash((self.arrows, self.src, self.tgt))

    def __repr__(self):
        if not self.arrows:
            return "e_%s" % (self.src,)
        return "*".join(self.arrows)


def path_basis(quiver, src, tgt):
    """All paths from src to tgt, ordered by length then lexicographically
    by arrow index.  Raises CyclicQuiverUnsupported on cyclic quivers."""
    quiver.check_vertex(src)
    quiver.check_vertex(tgt)
    quiver.require_acyclic()
    found = []
    frontier = [Path.identity(src)]
    while frontier:
        next_frontier = []
        for p in frontier:
            if p.tgt == tgt:
                found.append(p)
            for a in quiver.arrows_from(p.tgt):
                next_frontier.append(Path((a.name,) + p.arrows, p.src, a.tgt))
        frontier = next_frontier
    found.sort(key=lambda p: p.sort_key(quiver))
    return found


class AlgebraElement:
    """A finite k-linear combination of paths sharing src and tgt."""

    __slots__ = ("quiver", "ring", "src", "tgt", "terms")

    def __init__(self, quiver, ring, src, tgt, terms):
        quiver.check_vertex(src)
        quiver.check_vertex(tgt)
        clean = {}
        for path, coeff in terms.items():
            coeff = ring.coerce(coeff)
            if ring.is_zero(coeff):
                continue
            if path.src != src or path.tgt != tgt:
                raise MismatchError("path %r typed %s->%s inside element typed "
                                    "%s->%s" % (path, path.src, path.tgt,
                                                src, tgt))
            clean[path] = coeff
        self.quiver = quiver
        self.ring = ring
        self.src = src
        self.tgt = tgt
        self.terms = clean

    @classmethod
    def zero(cls, quiver, ring, src, tgt):
        return cls(quiver, ring, src, tgt, {})

    @classmethod
    def vertex_identity(cls, quiver, ring, vertex):
        return cls(quiver, ring, vertex, vertex,
                   {Path.identity(vertex): ring.one()})

    @classmethod
    def of_arrow(cls, quiver, ring, arrow_name, coeff=1):
        a = quiver.arrow(arrow_name)
        return cls(quiver, ring, a.src, a.tgt, {Path.of_arrow(a): coeff})

    @classmethod
    def of_path(cls, quiver, ring, path, coeff=1):
        return cls(quiver, ring, path.src, path.tgt, {path: coeff})

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if self.quiver != other.quiver:
            raise MismatchError("elements over different quivers")
        check_same_ring(self.ring, other.ring)

    def add(self, other):
        self._check_compatible(other)
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise MismatchError("adding elements with different endpoints")
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = self.ring.add(terms.get(p, self.ring.zero()), c)
        return AlgebraElement(self.quiver, self.ring, self.src, self.tgt, terms)

    def neg(self):
        return AlgebraElement(self.quiver, self.ring, self.src, self.tgt,
                              {p: self.ring.neg(c) for p, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, coeff):
        coeff = self.ring.coerce(coeff)
        return AlgebraElement(self.quiver, self.ring, self.src, self.tgt,
                              {p: self.ring.mul(coeff, c)
                               for p, c in self.terms.items()})

    def multiply(self, other):
        """self * other: "other acts first".  Zero when endpoints mismatch."""
        self._check_compatible(other)
        result_src, result_tgt = other.src, self.tgt
        terms = {}
        if self.src == other.tgt:
            ring = self.ring
            for p, cp in self.terms.items():
                for q, cq in other.terms.items():
                    pq = p.compose(q)
                    coeff = ring.mul(cp, cq)
                    terms[pq] = ring.add(terms.get(pq, ring.zero()), coeff)
        return AlgebraElement(self.quiver, self.ring, result_src, result_tgt,
                              terms)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: item[0].sort_key(self.quiver))

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.quiver == other.quiver and self.ring == other.ring
                and self.src == other.src and self.tgt == other.tgt
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.src, self.tgt,
                     frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0[%s->%s]" % (self.src, self.tgt)
        bits = ["%s*%r" % (c, p) for p, c in self.sorted_terms()]
        return " + ".join(bits)


class TypedMatrix:
    """A rectangular matrix over the path algebra with vertex-typed rows and
    columns: the entry at (j, i) has src = col_types[i], tgt = row_types[j].
    Composable typed matrices are the arrows of the additive completion."""

    __slots__ = ("quiver", "ring", "row_types", "col_types", "entries")

    def __init__(self, quiver, ring, row_types, col_types, entries):
        row_types = tuple(row_types)
        col_types = tuple(col_types)
        for v in row_types + col_types:
            quiver.check_vertex(v)
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != len(row_types) or any(
                len(r) != len(col_types) for r in entries):
            raise MismatchError("entry grid does not match type lists")
        for j, row in enumerate(entries):
            for i, x in enumerate(row):
                if not isinstance(x, AlgebraElement):
                    raise MismatchError("entries must be AlgebraElements")
                check_same_ring(ring, x.ring)
                if x.src != col_types[i] or x.tgt != row_types[j]:
                    raise MismatchError(
                        "entry (%d,%d) typed %s->%s, expected %s->%s"
                        % (j, i, x.src, x.tgt, col_types[i], row_types[j]))
        self.quiver = quiver
        self.ring = ring
        self.row_types = row_types
        self.col_types = col_types
        self.entries = entries

    @classmethod
    def zero(cls, quiver, ring, row_types, col_types):
        entries = [[AlgebraElement.zero(quiver, ring, c, r)
                    for c in col_types] for r in row_types]
        return cls(quiver, ring, row_types, col_types, entries)

    @classmethod
    def identity(cls, quiver, ring, types):
        entries = [[AlgebraElement.vertex_identity(quiver, ring, r) if i == j
                    else AlgebraElement.zero(quiver, ring, c, r)
                    for i, c in enumerate(types)]
                   for j, r in enumerate(types)]
        return cls(quiver, ring, types, types, entries)

    @property
    def rows(self):
        return len(self.row_types)

    @property
    def cols(self):
        return len(self.col_types)

    def entry(self, j, i):
        return self.entries[j][i]

    def mul(self, other):
        """self @ other, defined when col_types(self) == row_types(other)."""
        if self.quiver != other.quiver:
            raise MismatchError("matrices over different quivers")
        check_same_ring(self.ring, other.ring)
        if self.col_types != other.row_types:
            raise MismatchError("type-list mismatch: %s vs %s"
                                % (self.col_types, other.row_types))
        out = []
        for j in range(self.rows):
            row = []
            for i in range(other.cols):
                acc = AlgebraElement.zero(self.quiver, self.ring,
                                          other.col_types[i], self.row_types[j])
                for k in range(self.cols):
                    acc = acc.add(self.entries[j][k].multiply(
                        other.entries[k][i]))
                row.append(acc)
            out.append(row)
        return TypedMatrix(self.quiver, self.ring, self.row_types,
                           other.col_types, out)

    def __matmul__(self, other):
        return self.mul(other)

    def add(self, other):
        if (self.row_types != other.row_types
                or self.col_types != other.col_types):
            raise MismatchError("type-list mismatch in add")
        out = [[a.add(b) for a, b in zip(ra, rb)]
               for ra, rb in zip(self.entries, other.entries)]
        return TypedMatrix(self.quiver, self.ring, self.row_types,
                           self.col_types, out)

    def neg(self):
        out = [[x.neg() for x in row] for row in self.entries]
        return TypedMatrix(self.quiver, self.ring, self.row_types,
                           self.col_types, out)

    def hstack(self, other):
        if self.row_types != other.row_types:
            raise MismatchError("row type mismatch in hstack")
        out = [ra + rb for ra, rb in zip(self.entries, other.entries)]
        return TypedMatrix(self.quiver, self.ring, self.row_types,
                           self.col_types + other.col_types, out)

    def vstack(self, other):
        if self.col_types != other.col_types:
            raise MismatchError("column type mismatch in vstack")
        return TypedMatrix(self.quiver, self.ring,
                           self.row_types + other.row_types, self.col_types,
                           self.entries + other.entries)

    def take_columns(self, indices):
        out = [[row[i] for i in indices] for row in self.entries]
        return TypedMatrix(self.quiver, self.ring, self.row_types,
                           tuple(self.col_types[i] for i in indices), out)

    def take_rows(self, indices):
        out = [self.entries[j] for j in indices]
        return TypedMatrix(self.quiver, self.ring,
                           tuple(self.row_types[j] for j in indices),
                           self.col_types, out)

    def is_zero(self):
        return all(x.is_zero() for row in self.entries for x in row)

    def __eq__(self, other):
        return (isinstance(other, TypedMatrix)
                and self.quiver == other.quiver and self.ring == other.ring
                and self.row_types == other.row_types
                and self.col_types == other.col_types
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.row_types, self.col_types, self.entries))

    def __repr__(self):
        return "TypedMatrix(%s <- %s)" % (list(self.row_types),
                                          list(self.col_types))

