"""Workload ``nori_integer``: homology representations of Nori diagrams
over Z.

Each input is a triangulated closed surface X with a loop Y in it and a
point P on the loop, listed as the triple (X, Y, P) with its three pairs
and the two identity inclusions.  One operation builds the diagram with
degrees 0..2, populates it with relative integer homology and checks the
long exact sequence of the triple.  Every surface of the pool is labelled
LABELINGS times, each time by another seeded permutation of its vertices,
so that the chain bases differ by labelling; all of them are parsed at
set-up.  Round r runs every surface once, in a seeded order, under the
labelling r mod LABELINGS.  The cost of one surface depends on its
labelling (some labellings make the integer normal forms work harder), so a
run sees many labellings rather than one per seed.
"""

import random

from abquiver import formats, nori
from abquiver.scalars import ZZ

from . import exact

# (surface, mesh size); an m-mesh has 2 m^2 triangles (4 m^2 for the
# sphere).  The costs fall in three groups of surfaces of like cost: two
# small ones (a fifth of the operations), six 4-meshes (each surface twice)
# and two 5-meshes (a fifth).  The median then falls in the middle of the
# 4-meshes and the 90th percentile in the middle of the 5-meshes, so that
# either moves only when more than half of its group slows down, never by
# a jump across a gap between two groups.
POOL = (("sphere", 2), ("rp2", 3),
        ("rp2", 4), ("torus", 4), ("klein", 4),
        ("rp2", 4), ("torus", 4), ("klein", 4),
        ("torus", 5), ("klein", 5))
LABELINGS = 20  # more than the rounds of a 30 s run

EULER = {"torus": 0, "klein": 0, "rp2": 1, "sphere": 2}
DMAX = 2


def _squares(m, label, rim=lambda i, j: False):
    """Two triangles per square of an m x m grid, split along the diagonal
    that keeps every triangle off the rim, where the rim is glued."""
    tris = []
    for i in range(m):
        for j in range(m):
            a, b = (i, j), (i + 1, j)
            c, d = (i, j + 1), (i + 1, j + 1)
            pair = [(a, b, c), (b, c, d)]
            if any(all(rim(*v) for v in t) for t in pair):
                pair = [(a, b, d), (a, c, d)]
            tris += [tuple(label(*v) for v in t) for t in pair]
    return tris


def surface(kind, m):
    """(triangles, loop edges, base point) on canonical vertex keys."""
    def on_rim(i, j):
        return i in (0, m) or j in (0, m)

    if kind == "torus":
        def label(i, j):
            return (i % m, j % m)
        tris = _squares(m, label)
        loop = [(label(i, 0), label(i + 1, 0)) for i in range(m)]
    elif kind == "klein":
        def label(i, j):
            if j == m:
                return ((-i) % m, 0)
            return (i % m, j)
        tris = _squares(m, label)
        loop = [(label(i, 0), label(i + 1, 0)) for i in range(m)]
    elif kind == "rp2":  # a square with antipodal points of its rim glued
        def label(i, j):
            if on_rim(i, j):
                return min((i, j), (m - i, m - j))
            return (i, j)
        tris = _squares(m, label, on_rim)
        half = [(i, 0) for i in range(m)] + [(m, j) for j in range(m + 1)]
        loop = [(label(*half[k]), label(*half[k + 1]))
                for k in range(len(half) - 1)]
    else:  # sphere: two squares glued along their rims
        def upper(i, j):
            return ("r", i, j) if on_rim(i, j) else ("u", i, j)

        def lower(i, j):
            return ("r", i, j) if on_rim(i, j) else ("d", i, j)
        tris = _squares(m, upper, on_rim) + _squares(m, lower, on_rim)
        rim = ([(i, 0) for i in range(m)] + [(m, j) for j in range(m)]
               + [(m - i, m) for i in range(m)]
               + [(0, m - j) for j in range(m)])
        loop = [(upper(*rim[k]), upper(*rim[(k + 1) % len(rim)]))
                for k in range(len(rim))]
    return tris, loop, loop[0][0]


class Complex:
    """The benchmark's own chain data: faces by dimension, sorted."""

    def __init__(self, top_faces):
        faces = set()
        for f in top_faces:
            f = tuple(sorted(f))
            for k in range(1, 2 ** len(f)):
                faces.add(tuple(v for i, v in enumerate(f) if (k >> i) & 1))
        self.faces = faces
        self.by_dim = {}
        for f in sorted(faces):
            self.by_dim.setdefault(len(f) - 1, []).append(f)


def relative_boundary(x, y, d):
    """Boundary C_d(X, Y) -> C_{d-1}(X, Y) as a list of columns."""
    rows = [f for f in x.by_dim.get(d - 1, []) if f not in y.faces]
    cols = [f for f in x.by_dim.get(d, []) if f not in y.faces]
    index = {f: i for i, f in enumerate(rows)}
    out = []
    for f in cols:
        col = [0] * len(rows)
        for k in range(len(f)):
            sub = f[:k] + f[k + 1:]
            if sub in index:
                col[index[sub]] += (-1) ** k
        out.append(col)
    return out, len(rows), len(cols)


def relative_homology(x, y):
    """[(free rank, torsion)] of H_i(X, Y) for i = 0..DMAX, and the
    relative face counts, from invariant factors of boundary matrices."""
    ranks, torsion, counts = {}, {}, {}
    for d in range(DMAX + 2):
        cols, n_rows, n_cols = relative_boundary(x, y, d)
        counts[d] = n_cols
        free, tors = exact.invariant_factors(cols, n_rows) if cols else (
            n_rows, ())
        ranks[d] = n_rows - free
        torsion[d] = tors
    return [(counts[i] - ranks[i] - ranks[i + 1], torsion[i + 1])
            for i in range(DMAX + 1)], [counts[i] for i in range(DMAX + 1)]


class Item:
    __slots__ = ("name", "surface", "text", "x", "y", "p", "data")
    kind = "homology"

    def __init__(self, name, surface, text, x, y, p):
        self.name = name
        self.surface = surface
        self.text = text
        self.x, self.y, self.p = x, y, p
        self.data = None


def _literal(faces):
    return "[%s]" % ", ".join("[%s]" % ", ".join(f) for f in faces)


def make_item(rng, kind, m, index):
    tris, loop, point = surface(kind, m)
    keys = sorted({v for t in tris for v in t})
    numbers = list(range(len(keys)))
    rng.shuffle(numbers)
    name = {k: "v%d" % n for k, n in zip(keys, numbers)}
    tris = [tuple(name[v] for v in t) for t in tris]
    loop = [tuple(name[v] for v in e) for e in loop]
    point = name[point]
    x, y, p = Complex(tris), Complex(loop), Complex([(point,)])
    if len(set(frozenset(t) for t in tris)) != len(tris) or any(
            len(set(t)) != 3 for t in tris):
        raise ValueError("%s %d is not a simplicial surface" % (kind, m))
    edges = x.by_dim[1]
    sides = {}
    for t in x.by_dim[2]:
        for k in range(3):
            side = t[:k] + t[k + 1:]
            sides[side] = sides.get(side, 0) + 1
    if any(sides.get(e) != 2 for e in edges):
        raise ValueError("%s %d is not a closed surface" % (kind, m))
    if len(x.by_dim[0]) - len(edges) + len(x.by_dim[2]) != EULER[kind]:
        raise ValueError("%s %d has the wrong Euler characteristic"
                         % (kind, m))
    identity = lambda c: ", ".join("%s: %s" % (v[0], v[0])
                                   for v in c.by_dim[0])
    text = "\n".join([
        "complex X: %s" % _literal(tris),
        "complex Y: %s" % _literal(loop),
        "complex P: [[%s]]" % point,
        "pair XY: (X, Y)", "pair XP: (X, P)", "pair YP: (Y, P)",
        "map incl: YP -> XP {%s}" % identity(y),
        "map quot: XP -> XY {%s}" % identity(x),
        "triple t: (X, Y, P)"]) + "\n"
    return Item("%s%d.%d" % (kind, m, index), kind, text, x, y, p)


class Workload:
    name = "nori_integer"
    deferred_checks = True  # sympy is imported after peak memory is read

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        self.labelings = [[make_item(rng, kind, m, k)
                           for k, (kind, m) in enumerate(POOL)]
                          for _ in range(LABELINGS)]
        for n, items in enumerate(self.labelings):
            for item in items:
                item.name += ".L%d" % n
        self._expected = {}

    def setup(self):
        """Parse every labelled surface's pairs-category file through
        formats."""
        for items in self.labelings:
            for item in items:
                item.data = formats.parse_pairs_category(item.text)

    def warmup_ops(self):
        """Operations run once after set-up, before timing."""
        return self.labelings[0][:1]  # the smallest surface

    def make_round(self, index):
        order = list(self.labelings[index % LABELINGS])
        random.Random(self.seed * 1000003 + index).shuffle(order)
        return order

    def execute(self, item):
        diagram = nori.build_nori_diagram(item.data, DMAX)
        rep = nori.homology_representation(item.data, diagram, ZZ)
        verdict = nori.check_les_exactness(rep, item.data, diagram, "t",
                                           range(DMAX + 1))
        return rep, verdict

    @staticmethod
    def plain(output):
        """Each fiber as (generators, relation columns), and the verdict."""
        rep, verdict = output
        fibers = {v: (f.dim, [] if f.relations is None
                      else [list(c) for c in f.relations.columns()])
                  for v, f in rep.fibers.items()}
        return fibers, verdict

    def check(self, item, output):
        fibers, verdict = output
        if verdict is not True:
            return "%s: long exact sequence verdict %r" % (item.name, verdict)
        if item.name not in self._expected:
            self._expected[item.name] = {
                name: relative_homology(a, b)
                for name, a, b in (("XY", item.x, item.y),
                                   ("XP", item.x, item.p),
                                   ("YP", item.y, item.p))}
        for pair, (groups, counts) in self._expected[item.name].items():
            got = []
            for i in range(DMAX + 1):
                dim, cols = fibers["%s_h%d" % (pair, i)]
                got.append(exact.invariant_factors(cols, dim))
            if got != groups:
                return "%s: H(%s) = %r, expected %r" % (item.name, pair, got,
                                                        groups)
            euler = sum((-1) ** i * g[0] for i, g in enumerate(got))
            if euler != sum((-1) ** i * c for i, c in enumerate(counts)):
                return "%s: Euler characteristic of %s" % (item.name, pair)
        return None
