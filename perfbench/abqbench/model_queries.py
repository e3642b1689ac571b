"""Workload ``model_queries``: queries about a fixed pool of representations.

This is the side of the Serre quotient A(T): every answer depends on one
concrete representation T.  A round holds a fixed mix of query kinds, each
sent to the representations in turn, and a quarter of its queries repeat an
earlier query of the same round verbatim.  Queries arrive as text and are
parsed by the program's formula parser inside the timed operation.
"""

import random
from math import gcd

from abquiver import abcat, dsl, formats, formulas, fpmodules, quivers

from . import pp

QUIVERS = (
    pp.Quiver("A4", ["1", "2", "3", "4"],
              [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]),
    pp.Quiver("SQ", ["1", "2", "3", "4"],
              [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"),
               ("d", "3", "4")]),
    pp.Quiver("KR", ["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")]),
)

# (name suffix, ring, torsion, fiber dimensions by vertex): ring 0 is Q, a
# prime is F_p, None is Z.  The dimensions are fixed so that runs with
# different seeds do the same amount of work.  Integer fibers stay small:
# beyond four generators the program's Smith normal form meets coefficient
# explosion and single queries take seconds to minutes.
RINGS = (("Q", 0, False, (5, 7, 4, 6)), ("F7", 7, False, (8, 10, 6, 9)),
         ("Z", None, False, (3, 4, 2, 4)), ("Zt", None, True, (3, 4, 3, 2)))
TORSION_ORDERS = (2, 3, 4, 6)
REPS_PER_RING = 3

# Fresh queries per round, by kind; REPEATS more repeat earlier ones, a
# quarter of the round.  The pair-like kinds cycle through all rings;
# the two morphism kinds are the costly tail, a fifth of the round, so that
# the median falls inside the F_7 pair queries and the 90th percentile
# inside the morphism queries rather than between two kinds of query.
MIX = (("pair_value", 14), ("in_kernel", 7), ("evaluate_object", 7),
       ("check_morphism", 5), ("equal_in_quotient", 3))
REPEATS = 12
# Morphism queries conjoin and lift their formulas into larger systems;
# over Z these meet the same coefficient explosion.  check_morphism goes
# to the Q representations and equal_in_quotient, which evaluates two
# morphisms, to the F_7 ones: the two then cost about the same.
MORPHISM_RING = {"check_morphism": 0, "equal_in_quotient": 7}


class Query:
    __slots__ = ("kind", "text", "spec")

    def __init__(self, kind, text, spec):
        self.kind = kind
        self.text = text
        self.spec = spec


def random_rep(rng, quiver, ring, torsion, sizes):
    dims = dict(zip(quiver.vertices, sizes))
    orders = {}
    for v in quiver.vertices:
        order = [0] * dims[v]
        if torsion and rng.random() < 0.75:
            for i in rng.sample(range(dims[v]), rng.randint(1, 2)):
                order[i] = rng.choice(TORSION_ORDERS)
        orders[v] = order
    arrows = {}
    for a, s, t in quiver.arrows:
        rows = []
        for k in range(dims[t]):
            row = []
            for i in range(dims[s]):
                x = rng.randint(-2, 2)
                d, e = orders[s][i], orders[t][k]
                if d:  # a torsion generator must land in the relations
                    x = 0 if e == 0 else x * (e // gcd(e, d))
                row.append(x % ring if ring else x)
            rows.append(row)
        arrows[a] = rows
    relations = {}
    for v, order in orders.items():
        cols = []
        for i, d in enumerate(order):
            if d:
                col = [0] * dims[v]
                col[i] = d
                cols.append(col)
        if cols:
            relations[v] = cols
    return pp.Rep(quiver, ring, dims, arrows, relations)


def random_element(rng, quiver, v, w, max_terms=2):
    """(coefficient, path) terms of a nonzero element, or [] if no path."""
    paths = quiver.paths[(v, w)]
    if not paths:
        return []
    chosen = rng.sample(paths, rng.randint(1, min(max_terms, len(paths))))
    return [(rng.choice((-2, -1, 1, 2, 3)), p) for p in chosen]


def linked_pairs(quiver):
    """Vertex pairs (v, w) joined by a path of positive length."""
    return sorted(k for k, paths in quiver.paths.items() if any(paths))


def random_formula(rng, quiver, ctx, n_bound, n_eq):
    bound = [rng.choice(quiver.vertices) for _ in range(n_bound)]
    sorts = list(ctx) + bound
    eqs = []
    for _ in range(n_eq):
        targets = [w for w in quiver.vertices
                   if any(quiver.paths[(s, w)] for s in sorts)]
        w = rng.choice(targets)
        reach = [v for v, s in enumerate(sorts) if quiver.paths[(s, w)]]
        used = [v for v in reach if rng.random() < 0.6] or [rng.choice(reach)]
        terms = [(c, p, v) for v in used
                 for c, p in random_element(rng, quiver, sorts[v], w)]
        eqs.append((w, terms))
    return pp.Formula(ctx, bound, eqs)


def graph(rng, quiver, src_ctx, tgt_ctx, matrix=None):
    """Equations z_k = sum_i E_ki x_i on the joined context (x, z), and E."""
    ns = len(src_ctx)
    if matrix is None:
        matrix = [[random_element(rng, quiver, s, t) if rng.random() < 0.7
                   else [] for s in src_ctx] for t in tgt_ctx]
    eqs = []
    for k, t in enumerate(tgt_ctx):
        terms = [(1, (), ns + k)]
        for i, elt in enumerate(matrix[k]):
            terms.extend((-c, p, i) for c, p in elt)
        eqs.append((t, terms))
    return pp.Formula(list(src_ctx) + list(tgt_ctx), (), eqs), matrix


def direct_sum(pairs):
    ctx = [s for top, _ in pairs for s in top.ctx]
    out_top = out_bottom = None
    pos = 0
    for top, bottom in pairs:
        positions = list(range(pos, pos + len(top.ctx)))
        pos += len(top.ctx)
        t = pp.lift(top, ctx, positions)
        b = pp.lift(bottom, ctx, positions)
        out_top = t if out_top is None else pp.conjoin(out_top, t)
        out_bottom = b if out_bottom is None else pp.conjoin(out_bottom, b)
    return out_top, out_bottom


def element_formula(src, tgt, elt):
    """x0:src | e * x0 = 0, the carrier of an algebra element in text."""
    return pp.Formula([src], [], [(tgt, [(c, p, 0) for c, p in elt])])


def sequents(src, tgt, theta):
    """The four functionality sequents of a pp-defined map, as (a, b)
    meaning a implies b."""
    (s_top, s_bot), (t_top, t_bot) = src, tgt
    ns, nt = len(s_top.ctx), len(t_top.ctx)
    ctx = theta.ctx
    left, right = list(range(ns)), list(range(ns, ns + nt))
    psi_s = pp.conjoin(s_bot, s_top)
    psi_t = pp.conjoin(t_bot, t_top)
    return [(theta, pp.conjoin(pp.lift(s_top, ctx, left),
                               pp.lift(t_top, ctx, right))),
            (s_top, pp.project(theta, left)),
            (pp.conjoin(pp.lift(psi_s, ctx, left), theta),
             pp.lift(psi_t, ctx, right)),
            (pp.substitute_zero(theta, left), psi_t)]


def difference_formula(src_ctx, tgt_ctx, theta_f, theta_g):
    """{z' - z'' : theta_f(x, z'), theta_g(x, z'')} on the target context."""
    ns, nt = len(src_ctx), len(tgt_ctx)
    big = list(tgt_ctx) + list(src_ctx) + list(tgt_ctx) + list(tgt_ctx)
    xs = list(range(nt, nt + ns))
    z1 = list(range(nt + ns, nt + ns + nt))
    z2 = list(range(nt + ns + nt, nt + ns + 2 * nt))
    f = pp.lift(theta_f, big, xs + z1)
    g = pp.lift(theta_g, big, xs + z2)
    diff = pp.Formula(big, (), [(t, [(1, (), k), (-1, (), z1[k]),
                                     (1, (), z2[k])])
                                for k, t in enumerate(tgt_ctx)])
    return pp.project(pp.conjoin(pp.conjoin(f, g), diff), list(range(nt)))


class Workload:
    name = "model_queries"

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        self.spec_reps = {}
        for copy in range(REPS_PER_RING):
            for quiver in QUIVERS:
                for suffix, ring, torsion, sizes in RINGS:
                    name = "%s_%s%d" % (quiver.name, suffix, copy)
                    self.spec_reps[name] = random_rep(rng, quiver, ring,
                                                      torsion, sizes)
        self.rep_names = list(self.spec_reps)

    def setup(self):
        """Parse the quivers and the representation pool through formats."""
        self.quivers = {q.name: formats.parse_quiver(q.text())
                        for q in QUIVERS}
        self.reps = {}
        for name, spec in self.spec_reps.items():
            self.reps[name] = formats.parse_representation(
                spec.text(), self.quivers[spec.quiver.name])

    # -- generation ---------------------------------------------------------

    def warmup_ops(self):
        """Operations run once after set-up, before timing."""
        return self.make_round(-1)[:4]

    def make_round(self, index):
        rng = random.Random(self.seed * 1000003 + index)
        fresh = []
        slot = index
        for kind, count in MIX:
            names = self.rep_names
            if kind in MORPHISM_RING:
                names = [n for n in names
                         if self.spec_reps[n].ring == MORPHISM_RING[kind]]
            for _ in range(count):
                name = names[slot % len(names)]
                slot += 1
                fresh.append(getattr(self, "_gen_" + kind)(rng, name))
        queries = list(fresh)
        for _ in range(REPEATS):
            queries.insert(rng.randint(1, len(queries)),
                           None)  # placeholder, filled below
        seen = []
        out = []
        for q in queries:
            if q is None:
                q = rng.choice(seen)
            else:
                seen.append(q)
            out.append(q)
        return out

    def _rep(self, name):
        return self.spec_reps[name]

    def _pair(self, rng, quiver, ctx):
        top = random_formula(rng, quiver, ctx, rng.randint(0, 2),
                             rng.randint(0, 2))
        bottom = random_formula(rng, quiver, ctx, rng.randint(0, 2),
                                rng.randint(1, 2))
        return top, bottom

    def _ctx(self, rng, quiver):
        return [rng.choice(quiver.vertices) for _ in range(rng.randint(1, 2))]

    def _gen_pair_value(self, rng, name, kind="pair_value"):
        quiver = self._rep(name).quiver
        top, bottom = self._pair(rng, quiver, self._ctx(rng, quiver))
        text = "kind: %s\nrep: %s\ntop: %s\nbottom: %s" % (
            kind, name, pp.render(top), pp.render(bottom))
        return Query(kind, text, (name, top, bottom))

    def _gen_in_kernel(self, rng, name):
        return self._gen_pair_value(rng, name, "in_kernel")

    def _summand(self, rng, quiver):
        """A presented object: (line of text, (top, bottom))."""
        kind = rng.choice(("delta", "ker", "coker"))
        if kind == "delta":
            v = rng.choice(quiver.vertices)
            return "delta %s" % v, (pp.trivial([v]), pp.zero([v]))
        v, w = rng.choice(linked_pairs(quiver))
        elt = random_element(rng, quiver, v, w)
        text = "%s %s" % (kind, pp.render(element_formula(v, w, elt)))
        if kind == "ker":
            return text, (pp.Formula([v], [], [(w, [(c, p, 0)
                                                    for c, p in elt])]),
                          pp.zero([v]))
        bottom = pp.Formula([w], [v], [(w, [(1, (), 0)]
                                        + [(-c, p, 1) for c, p in elt])])
        return text, (pp.trivial([w]), bottom)

    def _gen_evaluate_object(self, rng, name):
        quiver = self._rep(name).quiver
        parts = [self._summand(rng, quiver)
                 for _ in range(rng.randint(1, 2))]
        text = "kind: evaluate_object\nrep: %s\n" % name + "\n".join(
            "summand: %s" % t for t, _ in parts)
        return Query("evaluate_object", text,
                     (name, direct_sum([p for _, p in parts])))

    def _endpoint(self, rng, quiver, role):
        """A source or target pair: a sum of deltas, a kernel or cokernel
        of an element, or a random pair."""
        kind = rng.choice(("delta", "element", "random"))
        if kind == "delta":
            ctx = self._ctx(rng, quiver)
            return pp.trivial(ctx), pp.zero(ctx)
        if kind == "element":
            v, w = rng.choice(linked_pairs(quiver))
            elt = random_element(rng, quiver, v, w)
            if role == "source":
                return (pp.Formula([v], [], [(w, [(c, p, 0)
                                                  for c, p in elt])]),
                        pp.zero([v]))
            return pp.trivial([w]), pp.Formula(
                [w], [v], [(w, [(1, (), 0)] + [(-c, p, 1) for c, p in elt])])
        return self._pair(rng, quiver, self._ctx(rng, quiver))

    def _morphism_text(self, name, kind, src, tgt, thetas):
        ns, nt = len(src[0].ctx), len(tgt[0].ctx)
        xs = ["x%d" % i for i in range(ns)]
        zs = ["z%d" % i for i in range(nt)]
        lines = ["kind: %s" % kind, "rep: %s" % name,
                 "source_top: %s" % pp.render(src[0], xs),
                 "source_bottom: %s" % pp.render(src[1], xs),
                 "target_top: %s" % pp.render(tgt[0], zs),
                 "target_bottom: %s" % pp.render(tgt[1], zs)]
        lines += ["theta: %s" % pp.render(t, xs + zs) for t in thetas]
        return "\n".join(lines)

    def _gen_check_morphism(self, rng, name):
        quiver = self._rep(name).quiver
        src = self._endpoint(rng, quiver, "source")
        tgt = self._endpoint(rng, quiver, "target")
        g, _ = graph(rng, quiver, src[0].ctx, tgt[0].ctx)
        ns = len(src[0].ctx)
        theta = pp.conjoin(g, pp.lift(src[0], g.ctx, list(range(ns))))
        if rng.random() < 0.25:  # drop a graph equation: seldom functional
            theta = pp.Formula(theta.ctx, theta.bound, theta.eqs[1:])
        text = self._morphism_text(name, "check_morphism", src, tgt, [theta])
        return Query("check_morphism", text, (name, src, tgt, theta))

    def _gen_equal_in_quotient(self, rng, name):
        """f, g: a sum of deltas -> coker(e); g = f + e.F (equal in the
        quotient) or f + R (in general not)."""
        quiver = self._rep(name).quiver
        src_ctx = self._ctx(rng, quiver)
        v, w = rng.choice(linked_pairs(quiver))
        elt = random_element(rng, quiver, v, w)
        tgt = (pp.trivial([w]), pp.Formula(
            [w], [v], [(w, [(1, (), 0)] + [(-c, p, 1) for c, p in elt])]))
        src = (pp.trivial(src_ctx), pp.zero(src_ctx))
        f, mat = graph(rng, quiver, src_ctx, [w])
        if rng.random() < 0.5:
            extra = [[(c * d, pp.compose(p, q))
                      for c, p in elt
                      for d, q in random_element(rng, quiver, s, v)]
                     for s in src_ctx]
        else:
            extra = [random_element(rng, quiver, s, w) for s in src_ctx]
        g, _ = graph(rng, quiver, src_ctx, [w],
                     [[mat[0][i] + extra[i] for i in range(len(src_ctx))]])
        text = self._morphism_text(name, "equal_in_quotient", src, tgt,
                                   [f, g])
        return Query("equal_in_quotient", text, (name, src, tgt, f, g))

    # -- the program side -----------------------------------------------------

    def execute(self, query):
        fields = {}
        summands = []
        thetas = []
        for line in query.text.split("\n"):
            key, value = line.split(": ", 1)
            if key == "summand":
                summands.append(value)
            elif key == "theta":
                thetas.append(value)
            else:
                fields[key] = value
        rep = self.reps[fields["rep"]]
        quiver, ring = rep.quiver, rep.ring

        def formula(text):
            return dsl.parse_formula(text, quiver, ring)

        def pair(prefix):
            return abcat.AbObject(formulas.PpPair(
                formula(fields[prefix + "top"]),
                formula(fields[prefix + "bottom"])))

        kind = fields["kind"]
        if kind == "pair_value":
            return _invariants(formulas.pair_value(pair("").pair, rep))
        if kind == "in_kernel":
            return abcat.in_kernel(pair(""),
                                   abcat.SerreKernelOracle.model(rep))
        if kind == "evaluate_object":
            obj = None
            for text in summands:
                part = self._presented(text, quiver, ring, formula)
                obj = part if obj is None else abcat.direct_sum(obj, part)
            return (_invariants(abcat.evaluate_object(obj, rep, "pp")),
                    _invariants(abcat.evaluate_object(obj, rep,
                                                      "presentation")))
        src, tgt = pair("source_"), pair("target_")
        if kind == "check_morphism":
            return abcat.check_morphism(formula(thetas[0]), src, tgt, rep)
        f = abcat.AbMorphism(src, tgt, formula(thetas[0]), rep)
        g = abcat.AbMorphism(src, tgt, formula(thetas[1]), rep)
        return abcat.equal_in_quotient(f, g, rep)

    @staticmethod
    def _presented(text, quiver, ring, formula):
        kind, body = text.split(" ", 1)
        if kind == "delta":
            return abcat.DiagramEmbedding(quiver, ring).object(body)
        phi = formula(body)
        if kind == "ker":
            module, _ = fpmodules.free_realization(phi)
            g = fpmodules.FpMorphism.zero(module,
                                          fpmodules.FpModule.zero(quiver,
                                                                  ring))
            return abcat.object_from_presentation(g)
        v, w = phi.context_sorts[0], phi.equation_sorts[0]
        g = fpmodules.FpMorphism(
            fpmodules.FpModule.representable(quiver, ring, w),
            fpmodules.FpModule.representable(quiver, ring, v),
            quivers.TypedMatrix(quiver, ring, (w,), (v,),
                                [[phi.matrix_a.entries[0][0]]]))
        return abcat.object_from_presentation(g)

    @staticmethod
    def plain(output):
        """Answers are already plain data."""
        return output

    # -- checks apart from the program ----------------------------------------

    def check(self, query, output):
        """None when the output is right, else a description."""
        expected = self.expected(query)
        if output != expected:
            return "%s: got %r, expected %r" % (query.kind, output, expected)
        return None

    def expected(self, query):
        kind, spec = query.kind, query.spec
        rep = self.spec_reps[spec[0]]
        if kind == "pair_value":
            return pp.pair_value(spec[1], spec[2], rep)
        if kind == "in_kernel":
            value = pp.pair_value(spec[1], spec[2], rep)
            return "yes" if value == (0, ()) else "no"
        if kind == "evaluate_object":
            value = pp.pair_value(spec[1][0], spec[1][1], rep)
            return value, value
        if kind == "check_morphism":
            _, src, tgt, theta = spec
            return all(pp.contains(b, a, a.ctx, rep)
                       for a, b in sequents(src, tgt, theta))
        _, src, tgt, f, g = spec
        diff = difference_formula(src[0].ctx, tgt[0].ctx, f, g)
        return pp.contains(pp.conjoin(tgt[1], tgt[0]), diff, diff.ctx, rep)


def _invariants(value):
    return value.free_rank, tuple(value.torsion)
