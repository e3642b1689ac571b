"""Workload ``all_modules``: decisions over all modules, with no
representation given.

This is the free abelian category itself.  Every answer is decided through
free realizations over F_5 on acyclic quivers of growing path count, so the
work goes to finite module data, path bases and path-algebra arithmetic.
Every round draws fresh formulas: no module or representation repeats, so a
cache keyed on representations has nothing to reuse here.
"""

import random

from abquiver import abcat, dsl, formats, formulas, fpmodules

from . import pp
from .model_queries import (Query, linked_pairs, random_element,
                            random_formula, sequents)

P = 5


def _line(n):
    vs = [str(i) for i in range(1, n + 1)]
    return pp.Quiver("A%d" % n, vs, [("a%d" % i, str(i), str(i + 1))
                                     for i in range(1, n)])


def _grid(rows, cols):
    vs = ["g%d%d" % (i, j) for i in range(rows) for j in range(cols)]
    arrows = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                arrows.append(("r%d%d" % (i, j), "g%d%d" % (i, j),
                               "g%d%d" % (i, j + 1)))
            if i + 1 < rows:
                arrows.append(("d%d%d" % (i, j), "g%d%d" % (i, j),
                               "g%d%d" % (i + 1, j)))
    return pp.Quiver("G%d%d" % (rows, cols), vs, arrows)


QUIVERS = (_line(3), _line(4), _line(5), _line(6), _grid(2, 2), _grid(2, 3))

# Fresh queries per round, by kind.
MIX = (("implies_all", 12), ("hom_basis", 6), ("check_morphism", 8),
       ("serre_search", 4))

# Generating pairs of the Serre searches, by arrow property.
PROPERTIES = ("injective", "surjective", "zero")

MODEL_SAMPLES = 3


def property_pair(quiver, arrow, prop):
    """The pair that is closed exactly where the arrow has the property."""
    s, t = quiver.src[arrow], quiver.tgt[arrow]
    a = [(1, (arrow,), 0)]
    if prop == "injective":
        return pp.Formula([s], [], [(t, a)]), pp.zero([s])
    if prop == "surjective":
        return pp.trivial([t]), pp.Formula([t], [s], [(t, [(1, (), 0),
                                                          (-1, (arrow,), 1)])])
    return pp.trivial([s]), pp.Formula([s], [], [(t, a)])


def axiom_sets(quiver):
    """Per quiver: the arrows each given one property, in turn."""
    out = []
    for k, prop in enumerate(PROPERTIES):
        chosen = [(a, PROPERTIES[(k + i) % 3])
                  for i, (a, _, _) in enumerate(quiver.arrows)]
        out.append(chosen)
    return out


def sample_rep(rng, quiver, props=None, max_dim=2):
    """A random representation over F_5 whose arrows have the given
    properties (injective, surjective or zero)."""
    props = dict(props or {})
    while True:
        dims = {v: rng.randint(0, max_dim) for v in quiver.vertices}
        ok = True
        for a, s, t in quiver.arrows:
            if props.get(a) == "injective" and dims[s] > dims[t]:
                ok = False
            if props.get(a) == "surjective" and dims[s] < dims[t]:
                ok = False
        if ok:
            break
    arrows = {}
    for a, s, t in quiver.arrows:
        while True:
            mat = [[rng.randrange(P) for _ in range(dims[s])]
                   for _ in range(dims[t])]
            if props.get(a) == "zero":
                mat = [[0] * dims[s] for _ in range(dims[t])]
            rank = pp.exact.field_rank(mat, dims[s], P)
            if (props.get(a) == "injective" and rank < dims[s]
                    or props.get(a) == "surjective" and rank < dims[t]):
                continue
            break
        arrows[a] = mat
    return pp.Rep(quiver, P, dims, arrows)


def consequence(rng, quiver, phi):
    """A formula implied by phi over all modules: path multiples of its
    equations, summed, under the same quantifiers."""
    eqs = []
    for _ in range(rng.randint(1, 2)):
        targets = [w for w in quiver.vertices
                   if any(quiver.paths[(s, w)] for s, _ in phi.eqs)]
        w = rng.choice(targets)
        terms = []
        for s, eq_terms in phi.eqs:
            for c, q in random_element(rng, quiver, s, w):
                terms.extend((c * d, pp.compose(q, p), v)
                             for d, p, v in eq_terms)
        eqs.append((w, terms))
    return pp.Formula(phi.ctx, phi.bound, eqs)


class Workload:
    name = "all_modules"

    def __init__(self, seed):
        self.seed = seed
        self.spec_axioms = {}
        for q in QUIVERS:
            for k, chosen in enumerate(axiom_sets(q)):
                self.spec_axioms["%s_%d" % (q.name, k)] = (q, chosen)

    def setup(self):
        """Parse the quivers and the generating pairs through formats."""
        self.quivers = {q.name: formats.parse_quiver(q.text())
                        for q in QUIVERS}
        self.ring = formats.ring_from_tag("Fp(%d)" % P)
        self.axioms = {}
        for name, (q, chosen) in self.spec_axioms.items():
            text = "".join("pair %s_%s:\ntop: %s\nbottom: %s\n" % (
                a, prop, pp.render(top), pp.render(bottom))
                for a, prop in chosen
                for top, bottom in [property_pair(q, a, prop)])
            self.axioms[name] = formats.parse_pair_list(
                text, self.quivers[q.name], self.ring)

    # -- generation ---------------------------------------------------------

    def warmup_ops(self):
        """Operations run once after set-up, before timing."""
        return self.make_round(-1)[:4]

    def make_round(self, index):
        rng = random.Random(self.seed * 1000003 + index)
        out = []
        slot = index
        for kind, count in MIX:
            for _ in range(count):
                quiver = QUIVERS[slot % len(QUIVERS)]
                slot += 1
                out.append(getattr(self, "_gen_" + kind)(rng, quiver))
        rng.shuffle(out)
        return out

    def _formula(self, rng, quiver, n_eq_min=1):
        ctx = [rng.choice(quiver.vertices) for _ in range(rng.randint(1, 3))]
        return random_formula(rng, quiver, ctx, rng.randint(0, 2),
                              rng.randint(n_eq_min, 3))

    def _gen_implies_all(self, rng, quiver):
        phi = self._formula(rng, quiver)
        if rng.random() < 0.5:
            psi = consequence(rng, quiver, phi)
        else:
            psi = random_formula(rng, quiver, phi.ctx, rng.randint(0, 1),
                                 rng.randint(1, 2))
        text = "kind: implies_all\nquiver: %s\nphi: %s\npsi: %s" % (
            quiver.name, pp.render(phi), pp.render(psi))
        return Query("implies_all", text, (quiver, phi, psi,
                                           rng.getrandbits(32)))

    def _gen_hom_basis(self, rng, quiver):
        first, second = self._formula(rng, quiver), self._formula(rng, quiver)
        text = "kind: hom_basis\nquiver: %s\nsource: %s\ntarget: %s" % (
            quiver.name, pp.render(first), pp.render(second))
        return Query("hom_basis", text, (quiver, first, second))

    def _gen_check_morphism(self, rng, quiver):
        """An embedded arrow, kernel inclusion, cokernel projection or
        composite, or one of two broken variants of an embedded arrow."""
        v, w = rng.choice(linked_pairs(quiver))
        elt = random_element(rng, quiver, v, w)
        image = [(-c, p, 0) for c, p in elt]
        delta_v = (pp.trivial([v]), pp.zero([v]))
        delta_w = (pp.trivial([w]), pp.zero([w]))
        kind = rng.choice(("arrow", "kernel", "cokernel", "composite",
                           "not_functional", "not_total"))
        if kind == "arrow":
            src, tgt = delta_v, delta_w
            theta = pp.Formula([v, w], [], [(w, [(1, (), 1)] + image)])
        elif kind == "kernel":
            kernel = pp.Formula([v], [], [(w, [(c, p, 0) for c, p in elt])])
            src, tgt = (kernel, pp.zero([v])), delta_v
            theta = pp.Formula([v, v], [], [(v, [(1, (), 1), (-1, (), 0)]),
                                            (w, [(c, p, 0) for c, p in elt])])
        elif kind == "cokernel":
            bottom = pp.Formula([w], [v], [(w, [(1, (), 0)]
                                            + [(-c, p, 1) for c, p in elt])])
            src, tgt = delta_w, (pp.trivial([w]), bottom)
            theta = pp.Formula([w, w], [], [(w, [(1, (), 1), (-1, (), 0)])])
        elif kind == "composite":
            u = rng.choice([t for (s, t) in linked_pairs(quiver) if s == w]
                           or [w])
            second = random_element(rng, quiver, w, u)
            src, tgt = delta_v, (pp.trivial([u]), pp.zero([u]))
            theta = pp.Formula([v, u], [w], [
                (w, [(1, (), 2)] + image),
                (u, [(1, (), 1)] + [(-c, p, 2) for c, p in second])])
        elif kind == "not_functional":
            src, tgt = delta_v, delta_w
            theta = pp.Formula([v, w], [], [(w, [(0, (), 1)])])
        else:
            src, tgt = delta_v, delta_w
            theta = pp.Formula([v, w], [], [(w, [(1, (), 1)] + image),
                                            (w, [(c, p, 0) for c, p in elt])])
        theta = pp.Formula(theta.ctx, theta.bound,
                           [(s, [t for t in terms if t[0]])
                            for s, terms in theta.eqs])
        ns, nt = len(src[0].ctx), len(tgt[0].ctx)
        xs = ["x%d" % i for i in range(ns)]
        zs = ["z%d" % i for i in range(nt)]
        text = "\n".join([
            "kind: check_morphism", "quiver: %s" % quiver.name,
            "source_top: %s" % pp.render(src[0], xs),
            "source_bottom: %s" % pp.render(src[1], xs),
            "target_top: %s" % pp.render(tgt[0], zs),
            "target_bottom: %s" % pp.render(tgt[1], zs),
            "theta: %s" % pp.render(theta, xs + zs)])
        return Query("check_morphism", text, (quiver, src, tgt, theta,
                                              rng.getrandbits(32)))

    def _gen_serre_search(self, rng, quiver):
        """A pair the generating pairs should make closed, or a random one;
        budget 1 or 2."""
        k = rng.randrange(len(PROPERTIES))
        name = "%s_%d" % (quiver.name, k)
        chosen = self.spec_axioms[name][1]
        a, prop = rng.choice(chosen)
        top, bottom = property_pair(quiver, a, prop)
        if rng.random() < 0.5:  # a scaled copy of a generating pair
            c = rng.randint(2, P - 1)
            top = pp.Formula(top.ctx, top.bound,
                             [(s, [(c * d, p, v) for d, p, v in terms])
                              for s, terms in top.eqs])
        else:
            top, bottom = (self._formula(rng, quiver, 0),
                           None)
            bottom = random_formula(rng, quiver, top.ctx, rng.randint(0, 1),
                                    rng.randint(1, 2))
        budget = rng.randint(1, 2)
        text = "kind: serre_search\naxioms: %s\nbudget: %d\ntop: %s\n" \
               "bottom: %s" % (name, budget, pp.render(top),
                               pp.render(bottom))
        return Query("serre_search", text, (quiver, dict(chosen), top, bottom,
                                            rng.getrandbits(32)))

    # -- the program side -----------------------------------------------------

    def execute(self, query):
        fields = dict(line.split(": ", 1) for line in query.text.split("\n"))
        kind = fields["kind"]
        if kind == "serre_search":
            pairs = self.axioms[fields["axioms"]]
            quiver = pairs[0][1].quiver
        else:
            quiver = self.quivers[fields["quiver"]]

        def formula(key):
            return dsl.parse_formula(fields[key], quiver, self.ring)

        if kind == "implies_all":
            return formulas.implies_all(formula("phi"), formula("psi"))
        if kind == "hom_basis":
            source, _ = fpmodules.free_realization(formula("source"))
            target, _ = fpmodules.free_realization(formula("target"))
            return fpmodules.hom_basis(source, target)
        if kind == "serre_search":
            oracle = abcat.SerreKernelOracle.axioms(
                [p for _, p in pairs], int(fields["budget"]))
            obj = abcat.AbObject(formulas.PpPair(formula("top"),
                                                 formula("bottom")))
            return abcat.in_kernel(obj, oracle)
        src = abcat.AbObject(formulas.PpPair(formula("source_top"),
                                             formula("source_bottom")))
        tgt = abcat.AbObject(formulas.PpPair(formula("target_top"),
                                             formula("target_bottom")))
        return abcat.check_morphism(formula("theta"), src, tgt)

    @staticmethod
    def plain(output):
        """A Hom basis as nested lists of {path: coefficient}; other answers
        are plain already."""
        if isinstance(output, list):
            return [[[{p.arrows: c for p, c in elt.terms.items()}
                      for elt in row] for row in m.matrix.entries]
                    for m in output]
        return output

    # -- checks apart from the program ----------------------------------------

    def check(self, query, output):
        return getattr(self, "_check_" + query.kind)(query.spec, output)

    @staticmethod
    def _implication(quiver, phi, psi, verdict, seed):
        """A true verdict must hold on sampled representations and on the
        free realization of phi; a false one must fail on the latter."""
        rep, _, _ = pp.free_realization(phi, quiver, P)
        holds = pp.contains(psi, phi, phi.ctx, rep)
        if not verdict:
            return not holds
        rng = random.Random(seed)
        return holds and all(
            pp.contains(psi, phi, phi.ctx, sample_rep(rng, quiver))
            for _ in range(MODEL_SAMPLES))

    def _check_implies_all(self, spec, output):
        quiver, phi, psi, seed = spec
        if output not in (True, False):
            return "implies_all: verdict %r" % (output,)
        if not self._implication(quiver, phi, psi, output, seed):
            return "implies_all: verdict %r refuted" % (output,)
        return None

    def _check_check_morphism(self, spec, output):
        quiver, src, tgt, theta, seed = spec
        seqs = sequents(src, tgt, theta)
        if output is True:
            ok = all(self._implication(quiver, a, b, True, seed)
                     for a, b in seqs)
        elif output is False:
            ok = any(self._implication(quiver, a, b, False, seed)
                     for a, b in seqs)
        else:
            ok = False
        return None if ok else "check_morphism: verdict %r refuted" % (
            output,)

    def _check_hom_basis(self, spec, output):
        """The basis size is the solution dimension of the source's
        equations in the target; each element maps the source generators
        to solutions, and the elements are independent."""
        quiver, first, second = spec
        rep, _, (index, reduce) = pp.free_realization(second, quiver, P)
        full = pp.Formula(first.sorts, (), first.eqs)
        rows, width, _ = pp.system(full, rep)
        expected = width - pp.exact.field_rank(rows, width, P)
        if len(output) != expected:
            return "hom_basis: %d elements, expected %d" % (len(output),
                                                           expected)
        images = []
        for morphism in output:
            vectors = []
            for i, sort in enumerate(first.sorts):
                free = [0] * len(index[sort])
                for l, elt in enumerate(morphism[i]):
                    for path, coeff in elt.items():
                        k = index[sort][(l, path)]
                        free[k] = (free[k] + coeff) % P
                vectors.extend(reduce(sort, free))
            for r in rows:
                if sum(x * y for x, y in zip(r, vectors)) % P:
                    return "hom_basis: an element breaks a relation"
            images.append(vectors)
        if pp.exact.field_rank(images, width, P) != len(output):
            return "hom_basis: elements are dependent"
        return None

    def _check_serre_search(self, spec, output):
        quiver, props, top, bottom, seed = spec
        if output == "unknown":
            return None
        if output != "yes":
            return "serre_search: answer %r" % (output,)
        rng = random.Random(seed)
        for _ in range(MODEL_SAMPLES):
            rep = sample_rep(rng, quiver, props)
            for a, prop in props.items():
                if pp.pair_value(*property_pair(quiver, a, prop), rep)[0]:
                    return "serre_search: sampled model breaks an axiom"
            if pp.pair_value(top, bottom, rep)[0]:
                return "serre_search: 'yes' refuted on a model"
        return None
