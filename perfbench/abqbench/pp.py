"""The benchmark's own copy of quivers, pp formulas and representations.

Every formula the program receives is generated here, kept as plain
equations and rendered to the program's formula language.  The same data
are evaluated here, apart from the program, to check its answers:
solution sets come from the block matrices [A_T | B_T] assembled from the
arrow matrices, with ranks, kernels and lattices from ``exact``.

A path is a tuple of arrow names listed leftmost-acts-last, as in the
formula language; the empty tuple is the identity at a vertex.  A term is
(coefficient, path, variable index), variables being the context followed
by the bound variables.  A ring is a prime p, 0 for Q, or None for Z.
"""

from . import exact


class Quiver:
    """Vertices and named arrows of an acyclic quiver, with all paths."""

    def __init__(self, name, vertices, arrows):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)            # (name, src, tgt)
        self.src = {a: s for a, s, _ in arrows}
        self.tgt = {a: t for a, _, t in arrows}
        self.paths = {(v, w): [] for v in vertices for w in vertices}
        frontier = [((), v, v) for v in vertices]
        while frontier:
            nxt = []
            for path, s, t in frontier:
                self.paths[(s, t)].append(path)
                for a, src, tgt in arrows:
                    if src == t:
                        nxt.append(((a,) + path, s, tgt))
            frontier = nxt

    def text(self):
        arrows = ", ".join("{name: %s, src: %s, tgt: %s}" % a
                           for a in self.arrows)
        return "vertices: [%s]\narrows: [%s]\n" % (", ".join(self.vertices),
                                                    arrows)


def compose(later, earlier):
    """The path 'earlier then later'."""
    return tuple(later) + tuple(earlier)


class Formula:
    """EX bound . sum of terms = 0 per equation, on a context of sorts."""

    __slots__ = ("ctx", "bound", "eqs")

    def __init__(self, ctx, bound, eqs):
        self.ctx = tuple(ctx)
        self.bound = tuple(bound)
        self.eqs = tuple((s, tuple(terms)) for s, terms in eqs)

    @property
    def sorts(self):
        return self.ctx + self.bound

    def reindexed(self, var_map, ctx, bound):
        eqs = [(s, [(c, p, var_map[v]) for c, p, v in terms])
               for s, terms in self.eqs]
        return Formula(ctx, bound, eqs)


def conjoin(first, second):
    """Both systems on the shared context; bound variables kept apart."""
    assert first.ctx == second.ctx
    n, k = len(first.ctx), len(first.bound)
    var_map = {v: (v if v < n else v + k) for v in range(len(second.sorts))}
    moved = second.reindexed(var_map, first.ctx, first.bound + second.bound)
    return Formula(first.ctx, first.bound + second.bound,
                   first.eqs + moved.eqs)


def project(formula, keep):
    """Existentially quantify the context variables outside ``keep``."""
    n = len(formula.ctx)
    dropped = [i for i in range(n) if i not in keep]
    order = list(keep) + dropped + list(range(n, len(formula.sorts)))
    var_map = {old: new for new, old in enumerate(order)}
    return formula.reindexed(
        var_map, [formula.ctx[i] for i in keep],
        [formula.ctx[i] for i in dropped] + list(formula.bound))


def lift(formula, new_ctx, positions):
    """Read the formula on a larger context; variable i goes to positions[i]."""
    n = len(formula.ctx)
    var_map = {i: positions[i] for i in range(n)}
    for b in range(len(formula.bound)):
        var_map[n + b] = len(new_ctx) + b
    return formula.reindexed(var_map, new_ctx, formula.bound)


def substitute_zero(formula, zero):
    """Set the listed context variables to 0 and drop them."""
    keep = [i for i in range(len(formula.ctx)) if i not in zero]
    order = keep + list(range(len(formula.ctx), len(formula.sorts)))
    var_map = {old: new for new, old in enumerate(order)}
    eqs = [(s, [(c, p, var_map[v]) for c, p, v in terms if v in var_map])
           for s, terms in formula.eqs]
    return Formula([formula.ctx[i] for i in keep], formula.bound, eqs)


def trivial(ctx):
    return Formula(ctx, (), ())


def zero(ctx):
    return Formula(ctx, (), [(s, [(1, (), i)]) for i, s in enumerate(ctx)])


def render(formula, names=None):
    """Formula-language text; bound variables are named y0, y1, ..."""
    if names is None:
        names = ["x%d" % i for i in range(len(formula.ctx))]
    var_names = list(names) + ["y%d" % i for i in range(len(formula.bound))]
    head = ", ".join("%s:%s" % (n, s) for n, s in zip(names, formula.ctx))
    head += " |"
    if formula.bound:
        head += " EX " + ", ".join(
            "%s:%s" % (var_names[len(names) + i], s)
            for i, s in enumerate(formula.bound)) + " ."
    eqs = []
    for _, terms in formula.eqs:
        bits = []
        for c, path, v in terms:
            body = " * ".join(list(path) + [var_names[v]])
            mag = abs(c)
            if mag != 1:
                body = "%d * %s" % (mag, body)
            if not bits:
                bits.append(("- " if c < 0 else "") + body)
            else:
                bits.append(("- " if c < 0 else "+ ") + body)
        if bits:
            eqs.append(" ".join(bits) + " = 0")
    if not eqs:
        eqs = ["0 * %s = 0" % names[0]]
    return head + " " + " & ".join(eqs)


# ---------------------------------------------------------------------------
# Representations and evaluation


class Rep:
    """Fibers (Z^n modulo relation columns over Z) and arrow matrices."""

    def __init__(self, quiver, ring, dims, arrows, relations=None):
        self.quiver = quiver
        self.ring = ring
        self.dims = dict(dims)
        self.arrows = dict(arrows)             # name -> list of rows
        self.relations = dict(relations or {})  # vertex -> list of columns
        self._paths = {}

    def path_matrix(self, path, src):
        key = (path, src)
        mat = self._paths.get(key)
        if mat is None:
            n = self.dims[src]
            mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for a in reversed(path):
                mat = _matmul(self.arrows[a], mat, n, self.ring)
            self._paths[key] = mat
        return mat

    def text(self):
        tag = {None: "Z", 0: "Q"}.get(self.ring, "Fp(%s)" % self.ring)
        lines = ["ring: %s" % tag]
        for v in self.quiver.vertices:
            rel = self.relations.get(v)
            if rel:
                rows = [[col[i] for col in rel] for i in range(self.dims[v])]
                lines.append("fiber %s: presentation %s" % (v, _lit(rows)))
            else:
                lines.append("fiber %s: dim %d" % (v, self.dims[v]))
        for a, _, _ in self.quiver.arrows:
            lines.append("arrow %s: matrix %s" % (a, _lit(self.arrows[a])))
        return "\n".join(lines) + "\n"


def _lit(rows):
    return "[%s]" % ", ".join("[%s]" % ", ".join(str(x) for x in r)
                              for r in rows)


def _matmul(a, b, width, ring):
    """a times b, where b has ``width`` columns."""
    cols = list(zip(*b)) if b else []
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols]
           if cols else [0] * width for row in a]
    if ring:
        out = [[x % ring for x in r] for r in out]
    return out


def system(formula, rep):
    """The evaluated matrix [A_T | B_T | R] of a formula, its column split
    (context width, bound width) and, over Z, the context relation rows."""
    dims = rep.dims
    sorts = formula.sorts
    offsets = []
    pos = 0
    for s in sorts:
        offsets.append(pos)
        pos += dims[s]
    width = pos
    n_ctx = sum(dims[s] for s in formula.ctx)
    rows = []
    rel_blocks = []
    for s, terms in formula.eqs:
        block = [[0] * width for _ in range(dims[s])]
        for c, path, v in terms:
            off = offsets[v]
            for i, mrow in enumerate(rep.path_matrix(path, sorts[v])):
                brow = block[i]
                for j, x in enumerate(mrow):
                    if x:
                        brow[off + j] += c * x
        rel_blocks.append((len(rows), rep.relations.get(s, [])))
        rows.extend(block)
    if rep.ring is None:
        n_rel = sum(len(cols) for _, cols in rel_blocks)
        for r in rows:
            r.extend([0] * n_rel)
        k = width
        for start, cols in rel_blocks:
            for col in cols:
                for i, x in enumerate(col):
                    rows[start + i][k] = x
                k += 1
        width += n_rel
    elif rep.ring:
        rows = [[x % rep.ring for x in r] for r in rows]
    return rows, width, n_ctx


def context_relations(ctx, rep):
    """Relation rows of the product of the context fibers (over Z)."""
    width = sum(rep.dims[s] for s in ctx)
    out = []
    pos = 0
    for s in ctx:
        for col in rep.relations.get(s, []):
            row = [0] * width
            row[pos:pos + len(col)] = col
            out.append(row)
        pos += rep.dims[s]
    return out


def solutions(formula, rep):
    """Generators of the solution set in the product of the context fibers:
    a spanning set over a field, lattice generators (relations included)
    over Z."""
    rows, width, n_ctx = system(formula, rep)
    if rep.ring is None:
        gens = [v[:n_ctx] for v in exact.int_kernel(rows, width)]
        return gens + context_relations(formula.ctx, rep)
    if not rows:
        basis = [[1 if i == j else 0 for j in range(n_ctx)]
                 for i in range(n_ctx)]
        return basis
    return [v[:n_ctx] for v in exact.field_nullspace(rows, width, rep.ring)]


def dimension(formula, rep):
    """dim phi(T) = n_ctx - rank [A_T | B_T] + rank B_T over a field."""
    rows, width, n_ctx = system(formula, rep)
    p = rep.ring
    return (n_ctx - exact.field_rank(rows, width, p)
            + exact.field_rank([r[n_ctx:] for r in rows], width - n_ctx, p))


def contains(big, small, ctx, rep):
    """Whether the solution set of ``small`` lies in that of ``big``."""
    width = sum(rep.dims[s] for s in ctx)
    if rep.ring is None:
        return exact.lattice_contains(solutions(big, rep),
                                      solutions(small, rep), width)
    return exact.field_contains(solutions(big, rep), solutions(small, rep),
                                width, rep.ring)


def pair_value(top, bottom, rep):
    """(free rank, torsion) of top(T) / (bottom AND top)(T)."""
    lower = conjoin(bottom, top)
    if rep.ring is not None:
        return dimension(top, rep) - dimension(lower, rep), ()
    width = sum(rep.dims[s] for s in top.ctx)
    return exact.lattice_quotient(solutions(top, rep), solutions(lower, rep),
                                  width)


# ---------------------------------------------------------------------------
# Free realizations (field case)


def free_realization(formula, quiver, p):
    """The representation underlying the module presented by the formula's
    equations on all its variables, and the coordinates of the context
    generators.  Returns (Rep, witness vectors, coordinate data)."""
    sorts = formula.sorts
    coords = {}
    index = {}
    for w in quiver.vertices:
        lst = [(i, path) for i, s in enumerate(sorts)
               for path in quiver.paths[(s, w)]]
        coords[w] = lst
        index[w] = {c: k for k, c in enumerate(lst)}
    reduction = {}
    dims = {}
    for w in quiver.vertices:
        rels = []
        for s, terms in formula.eqs:
            for q in quiver.paths[(s, w)]:
                vec = [0] * len(coords[w])
                for c, path, v in terms:
                    k = index[w][(v, compose(q, path))]
                    vec[k] = (vec[k] + c) % p
                rels.append(vec)
        reduced, pivots = exact.field_rref(rels, len(coords[w]), p)
        pivot_set = set(pivots)
        basis = [k for k in range(len(coords[w])) if k not in pivot_set]
        reduction[w] = (reduced, pivots, basis)
        dims[w] = len(basis)

    def reduce(w, vec):
        reduced, pivots, basis = reduction[w]
        vec = list(vec)
        for row, c in zip(reduced, pivots):
            f = vec[c] % p
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, row)]
        return [vec[k] % p for k in basis]

    arrows = {}
    for a, s, t in quiver.arrows:
        cols = []
        for k in reduction[s][2]:
            i, path = coords[s][k]
            free = [0] * len(coords[t])
            free[index[t][(i, (a,) + path)]] = 1
            cols.append(reduce(t, free))
        arrows[a] = [[col[r] for col in cols] for r in range(dims[t])]
    rep = Rep(quiver, p, dims, arrows)
    witness = []
    for i, s in enumerate(formula.ctx):
        free = [0] * len(coords[s])
        free[index[s][(i, ())]] = 1
        witness.append(reduce(s, free))
    return rep, witness, (index, reduce)
