"""The free abelian category on a quiver, computed as pp-pairs and
pp-defined maps, with exact evaluation at a representation and membership
tests for the Serre kernel of the evaluation functor.

Objects are pairs top/bottom of pp formulas; morphisms are formulas on the
joined context that pass the four functionality checks, either over all
modules (decided through free realizations, acyclic quivers only) or
relative to one representation.  An object built from a projective
presentation g: P -> N keeps it, so its value can be computed both through
its pair and through kernels and cokernels of evaluated matrices; the two
routes must agree and the test suite leans on that redundancy.

A morphism with graph theta evaluates, by ``evaluate_morphism``, to the map
it induces on values, read off the one subobject theta(T) of the product of
the source and target tops at T: each class representative of the source
value has a partner in theta(T), found in its stored echelon rows, and the
partner's class in the target value is one column of the induced matrix.
Class vectors are canonical over either ring (see
``subobjects.QuotientPresentation``), so two induced maps agree exactly
when their matrices are equal.  A morphism with a presenting map can also
be evaluated by applying that map, and the two routes must agree too.
"""

from .errors import (EngineError, InvalidMorphism, MismatchError,
                     MissingPresentation)
from .formulas import (PpFormula, PpPair, _avoid, conjoin, equality_graph,
                       evaluate, implies_all, is_closed, lift, pair_value,
                       project, substitute_zero, sum_formula)
from .fpmodules import (ElementTuple, FpModule, FpMorphism, UnderlyingData,
                        hom_basis)
from .linalg import ConcreteMatrix, field_kernel
from .quivers import AlgebraElement, TypedMatrix
from .representations import Fiber, Representation
from .scalars import check_same_ring
from .subobjects import QuotientPresentation, SubobjectData

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

ALL_MODULES = "all_modules"


class AbObject:
    """A pp-pair, optionally with a projective presentation g: P -> N whose
    induced pair it is.  Objects are identified by their pair data."""

    __slots__ = ("pair", "presentation")

    def __init__(self, pair, presentation=None, _verified=False):
        self.pair = pair
        self.presentation = presentation
        if presentation is not None and not _verified:
            self._verify_presentation()

    def _verify_presentation(self):
        """Probe the pair against the presentation on two cheap
        representations (all fibers one-dimensional, arrows all 1 / all 0)."""
        for scalar in (1, 0):
            probe = _probe_representation(self.pair.quiver, self.pair.ring,
                                          scalar)
            via_pair = evaluate_object(AbObject(self.pair), probe, "pp")
            via_pres = evaluate_object(self, probe, "presentation",
                                       _skip_guard=True)
            if via_pair != via_pres:
                raise EngineError("pair and presentation disagree on a "
                                  "probe representation")

    @property
    def quiver(self):
        return self.pair.quiver

    @property
    def ring(self):
        return self.pair.ring

    @property
    def context(self):
        return self.pair.context

    def __eq__(self, other):
        return isinstance(other, AbObject) and self.pair == other.pair

    def __hash__(self):
        return hash(self.pair)

    def __repr__(self):
        return "AbObject(%r)" % (self.pair,)


def _probe_representation(quiver, ring, scalar):
    fibers = {v: Fiber(ring, 1) for v in quiver.vertices}
    mats = {a.name: ConcreteMatrix(ring, [[scalar]])
            for a in quiver.arrows}
    return Representation(quiver, ring, fibers, mats)


def object_from_presentation(g):
    """The cokernel object of (g, -) for g: P -> N between fp modules.

    Its pair has top the quantifier-free relation system of P on generator
    variables and bottom the image formula EX ybar (relations of N hold and
    xbar = g applied to ybar)."""
    p, n = g.source, g.target
    quiver, ring = p.quiver, p.ring
    h_p = p.presentation
    h_n = n.presentation
    context = tuple(("x%d" % i, s) for i, s in enumerate(p.generator_sorts))
    top = PpFormula(quiver, ring, context, (),
                    h_p, TypedMatrix.zero(quiver, ring, h_p.row_types, ()))
    bound = tuple(("y%d" % i, s) for i, s in enumerate(n.generator_sorts))
    ctx_sorts = tuple(s for _, s in context)
    ident = TypedMatrix.identity(quiver, ring, ctx_sorts)
    a_bottom = TypedMatrix.zero(quiver, ring, h_n.row_types,
                                ctx_sorts).vstack(ident)
    b_bottom = h_n.vstack(g.matrix.neg())
    bottom = PpFormula(quiver, ring, context, bound, a_bottom, b_bottom)
    return AbObject(PpPair(top, bottom), presentation=g)


def evaluate_object(obj, representation, route="pp", _skip_guard=False):
    """The value of the object at the representation, by either route."""
    if route == "pp":
        return pair_value(obj.pair, representation)
    if route != "presentation":
        raise EngineError("unknown route %r" % (route,))
    if obj.presentation is None:
        raise MissingPresentation("object carries no presentation")
    if not _skip_guard:
        obj.quiver.require_acyclic()
    g = obj.presentation
    kernel_n = _evaluated_kernel(g.target, representation)
    kernel_p = _evaluated_kernel(g.source, representation)
    g_t = representation.evaluate_typed_matrix(g.matrix)
    image = SubobjectData(kernel_p.ambient,
                          [g_t.apply(row) for row in kernel_n.rows])
    return kernel_p.quotient_by(image)


def _evaluated_kernel(module, representation):
    """ker of the evaluated relation matrix of a module, inside the fiber
    product of its generator sorts (fiber relations joined over Z)."""
    h_t = representation.evaluate_typed_matrix(module.presentation)
    return representation.ambient(module.generator_sorts).kernel(
        h_t, representation.ambient(module.relation_sorts))


# ---------------------------------------------------------------------------
# Morphisms


class AbMorphism:
    """A pp-defined map between pp-pairs; the functionality mode (over all
    modules, or relative to one representation) is recorded on the value."""

    __slots__ = ("source", "target", "theta", "mode", "presentation")

    def __init__(self, source, target, theta, mode=ALL_MODULES,
                 presentation=None, _checked=False):
        sorts = tuple(s for _, s in theta.context)
        expected = source.pair.top.context_sorts + target.pair.top.context_sorts
        if sorts != expected:
            raise MismatchError("theta context %s does not join %s and %s"
                                % (sorts, source.pair.top.context_sorts,
                                   target.pair.top.context_sorts))
        if mode != ALL_MODULES and not isinstance(mode, Representation):
            raise MismatchError("mode must be %r or a Representation"
                                % ALL_MODULES)
        self.source = source
        self.target = target
        self.theta = theta
        self.mode = mode
        self.presentation = presentation
        if not _checked and not check_morphism(theta, source, target, mode):
            raise InvalidMorphism("formula fails the functionality sequents")

    def __eq__(self, other):
        return (isinstance(other, AbMorphism) and self.source == other.source
                and self.target == other.target and self.theta == other.theta)

    def __hash__(self):
        return hash((self.source, self.target, self.theta))

    def __repr__(self):
        return "AbMorphism(%r -> %r)" % (self.source, self.target)


def _split_indices(source, target):
    n_s = len(source.context)
    n_t = len(target.context)
    return list(range(n_s)), list(range(n_s, n_s + n_t))


def _lift_pair_formulas(theta, source, target):
    left, right = _split_indices(source, target)
    ctx = theta.context
    return (lift(source.pair.top, ctx, left),
            lift(source.pair.bottom, ctx, left),
            lift(target.pair.top, ctx, right),
            lift(target.pair.bottom, ctx, right))


def check_morphism(theta, source, target, mode=ALL_MODULES):
    """The four functionality sequents: the graph lives inside top x top, is
    total on the source top, maps the source bottom into the target bottom,
    and relates 0 only to target-bottom values."""
    left, right = _split_indices(source, target)
    sorts = tuple(s for _, s in theta.context)
    expected = source.pair.top.context_sorts + target.pair.top.context_sorts
    if sorts != expected:
        raise MismatchError("theta context does not join source and target")
    phi_s, psi_s, phi_t, psi_t = _lift_pair_formulas(theta, source, target)
    sequents = [
        (theta, conjoin(phi_s, phi_t)),
        (source.pair.top, project(theta, left)),
        (conjoin(psi_s, theta), psi_t),
        (substitute_zero(theta, left), target.pair.bottom),
    ]
    if mode == ALL_MODULES:
        source.quiver.require_acyclic()
        return all(implies_all(a, b) for a, b in sequents)
    if not isinstance(mode, Representation):
        raise MismatchError("mode must be %r or a Representation" % ALL_MODULES)
    rep = mode
    return all(evaluate(b, rep).contains(evaluate(a, rep))
               for a, b in sequents)


def _combine_modes(first, second):
    if first == ALL_MODULES:
        return second
    if second == ALL_MODULES or first == second:
        return first
    raise MismatchError("morphism modes are relative to different "
                        "representations")


def identity_morphism(obj):
    ctx = obj.context
    graph = equality_graph(obj.quiver, obj.ring, ctx)
    theta = conjoin(graph, lift(obj.pair.top, graph.context,
                                list(range(len(ctx)))))
    pres = None
    if obj.presentation is not None:
        pres = FpMorphism.identity(obj.presentation.source)
    return AbMorphism(obj, obj, theta, ALL_MODULES, pres, _checked=True)


def zero_morphism(source, target, mode=ALL_MODULES):
    left, right = _split_indices(source, target)
    ctx = tuple(source.context) + _avoid(
        target.context, {n for n, _ in source.context})
    theta = conjoin(lift(source.pair.top, ctx, left),
                    lift(target.pair.bottom, ctx, right))
    pres = None
    if source.presentation is not None and target.presentation is not None:
        pres = FpMorphism.zero(target.presentation.source,
                               source.presentation.source)
    return AbMorphism(source, target, theta, mode, pres, _checked=True)


def compose(first, second):
    """first followed by second (diagrammatic order)."""
    if first.target != second.source:
        raise MismatchError("endpoint mismatch in composition")
    mode = _combine_modes(first.mode, second.mode)
    n1 = len(first.source.context)
    n2 = len(first.target.context)
    n3 = len(second.target.context)
    x_part = tuple(first.theta.context[:n1])
    xp_part = _avoid(second.theta.context[n2:], {n for n, _ in x_part})
    mid_part = _avoid(first.theta.context[n1:],
                      {n for n, _ in x_part + xp_part})
    big = x_part + xp_part + mid_part
    f_lift = lift(first.theta, big,
                  list(range(n1)) + [n1 + n3 + k for k in range(n2)])
    g_lift = lift(second.theta, big,
                  [n1 + n3 + k for k in range(n2)]
                  + [n1 + k for k in range(n3)])
    theta = project(conjoin(f_lift, g_lift), list(range(n1 + n3)))
    pres = None
    if (first.presentation is not None and second.presentation is not None):
        pres = second.presentation.then(first.presentation)
    return AbMorphism(first.source, second.target, theta, mode, pres,
                      _checked=True)


def add_morphisms(first, second):
    """Pointwise sum of two parallel morphisms."""
    if first.source != second.source or first.target != second.target:
        raise MismatchError("endpoint mismatch in addition")
    mode = _combine_modes(first.mode, second.mode)
    src, tgt = first.source, first.target
    n_s = len(src.context)
    n_t = len(tgt.context)
    ctx = tuple(first.theta.context)
    u_vars = _avoid(tgt.context, {n for n, _ in ctx})
    v_vars = _avoid(tgt.context, {n for n, _ in ctx + u_vars})
    big = ctx + u_vars + v_vars
    f_lift = lift(first.theta, big,
                  list(range(n_s)) + [n_s + n_t + k for k in range(n_t)])
    g_lift = lift(second.theta, big,
                  list(range(n_s)) + [n_s + n_t + n_t + k for k in range(n_t)])
    quiver, ring = src.quiver, src.ring
    tgt_sorts = tuple(s for _, s in tgt.context)
    ident = TypedMatrix.identity(quiver, ring, tgt_sorts)
    zero_s = TypedMatrix.zero(quiver, ring, tgt_sorts,
                              tuple(s for _, s in src.context))
    diff_a = (zero_s.hstack(ident).hstack(ident.neg()).hstack(ident.neg()))
    diff = PpFormula(quiver, ring, big, (),
                     diff_a, TypedMatrix.zero(quiver, ring, tgt_sorts, ()))
    theta = project(conjoin(conjoin(f_lift, g_lift), diff),
                    list(range(n_s + n_t)))
    pres = None
    if first.presentation is not None and second.presentation is not None:
        pres = FpMorphism(first.presentation.source,
                          first.presentation.target,
                          first.presentation.matrix.add(
                              second.presentation.matrix), _certified=True)
    return AbMorphism(src, tgt, theta, mode, pres, _checked=True)


def direct_sum(first, second):
    """Block direct sum of two objects by context concatenation."""
    if first.quiver != second.quiver:
        raise MismatchError("objects over different quivers")
    check_same_ring(first.ring, second.ring)
    ctx = tuple(first.context) + _avoid(
        second.context, {n for n, _ in first.context})
    n1 = len(first.context)
    n2 = len(second.context)
    left = list(range(n1))
    right = [n1 + k for k in range(n2)]
    top = conjoin(lift(first.pair.top, ctx, left),
                  lift(second.pair.top, ctx, right))
    bottom = conjoin(lift(first.pair.bottom, ctx, left),
                     lift(second.pair.bottom, ctx, right))
    pres = None
    if first.presentation is not None and second.presentation is not None:
        pres = _fp_direct_sum(first.presentation, second.presentation)
    return AbObject(PpPair(top, bottom), presentation=pres)


def _fp_direct_sum(g1, g2):
    quiver, ring = g1.source.quiver, g1.source.ring

    def block(m1, m2):
        top = m1.hstack(TypedMatrix.zero(quiver, ring, m1.row_types,
                                         m2.col_types))
        bot = TypedMatrix.zero(quiver, ring, m2.row_types,
                               m1.col_types).hstack(m2)
        return top.vstack(bot)

    p = FpModule(quiver, ring, block(g1.source.presentation,
                                     g2.source.presentation))
    n = FpModule(quiver, ring, block(g1.target.presentation,
                                     g2.target.presentation))
    return FpMorphism(p, n, block(g1.matrix, g2.matrix), _certified=True)


def kernel(f):
    """Kernel object and its inclusion into the source."""
    left, _ = _split_indices(f.source, f.target)
    _, _, _, psi_t = _lift_pair_formulas(f.theta, f.source, f.target)
    phi_k = project(conjoin(f.theta, psi_t), left)
    pair = PpPair(phi_k, f.source.pair.bottom.rename_context(
        [n for n, _ in phi_k.context]))
    obj = AbObject(pair)
    graph = equality_graph(f.source.quiver, f.source.ring, pair.context)
    theta = conjoin(graph, lift(phi_k, graph.context,
                                list(range(len(pair.context)))))
    inclusion = AbMorphism(obj, f.source, theta, f.mode, _checked=True)
    return obj, inclusion


def cokernel(f):
    """Cokernel object and the projection from the target."""
    _, right = _split_indices(f.source, f.target)
    image = project(f.theta, right)
    bottom = sum_formula(f.target.pair.bottom.rename_context(
        [n for n, _ in image.context]), image)
    pair = PpPair(f.target.pair.top.rename_context(
        [n for n, _ in image.context]), bottom)
    obj = AbObject(pair)
    graph = equality_graph(f.target.quiver, f.target.ring,
                           f.target.pair.context)
    theta = conjoin(graph, lift(f.target.pair.top, graph.context,
                                list(range(len(f.target.context)))))
    projection = AbMorphism(f.target, obj, theta, f.mode, _checked=True)
    return obj, projection


# ---------------------------------------------------------------------------
# Evaluation of morphisms


def evaluate_morphism(f, representation, route="pp"):
    """The induced map on values at the representation as explicit data:
    quotient presentations of the source and target values and the matrix
    whose columns are the target classes of the source's class
    representatives.  Returns (qp_src, qp_tgt, matrix)."""
    qp_src, qp_tgt = _value_presentations(f, representation)
    return qp_src, qp_tgt, _class_matrix(f, representation, route, qp_src,
                                         qp_tgt)


def _value_presentations(f, representation):
    """Quotient presentations top(T)/bottom(T) of the source and target."""
    def value(obj):
        return QuotientPresentation(evaluate(obj.pair.top, representation),
                                    evaluate(obj.pair.bottom, representation))
    return value(f.source), value(f.target)


def _class_matrix(f, representation, route, qp_src, qp_tgt):
    """One column per class representative of the source: the class of its
    image.  The pp route evaluates theta(T) once and reads each image off
    its stored rows as a partner; the presentation route applies the
    evaluated presenting matrix."""
    reps = qp_src.class_representatives()
    if route == "pp":
        image = evaluate(f.theta, representation).partner if reps else None
    elif route == "presentation":
        if f.presentation is None:
            raise MissingPresentation("morphism carries no presentation")
        image = representation.evaluate_typed_matrix(
            f.presentation.matrix).apply
    else:
        raise EngineError("unknown route %r" % (route,))
    cols = []
    for vector in reps:
        partner = image(vector)
        if partner is None:
            raise EngineError("vector of the source has no partner")
        cols.append(qp_tgt.class_vector(partner))
    return ConcreteMatrix.from_columns(f.source.ring, cols, qp_tgt.class_dim)


def morphism_routes_agree(f, representation):
    """Whether the pp route and the presentation route induce the same map."""
    qp_src, qp_tgt = _value_presentations(f, representation)
    return (_class_matrix(f, representation, "pp", qp_src, qp_tgt)
            == _class_matrix(f, representation, "presentation", qp_src,
                             qp_tgt))


def equal_in_quotient(f, g, representation):
    """Equality of the evaluated maps (equality in the Serre quotient)."""
    if f.source != g.source or f.target != g.target:
        raise MismatchError("endpoint mismatch")
    qp_src, qp_tgt = _value_presentations(f, representation)
    return (_class_matrix(f, representation, "pp", qp_src, qp_tgt)
            == _class_matrix(g, representation, "pp", qp_src, qp_tgt))


def is_zero_object_all(obj):
    """Whether the pair is closed on every module (acyclic quivers)."""
    return implies_all(obj.pair.top, obj.pair.bottom)


def is_isomorphism_all(f):
    """Kernel and cokernel vanish over all modules."""
    return (is_zero_object_all(kernel(f)[0])
            and is_zero_object_all(cokernel(f)[0]))


def is_isomorphism_on(f, representation):
    """Evaluated-map invertibility at one representation."""
    return (is_closed(kernel(f)[0].pair, representation)
            and is_closed(cokernel(f)[0].pair, representation))


# ---------------------------------------------------------------------------
# Presented morphisms


def presented_morphism_space(source, target):
    """Pairs (s, u) of module maps presenting a morphism source -> target,
    as a basis of the solution space of g1 . s = u . g2 (field rings)."""
    g1 = source.presentation
    g2 = target.presentation
    if g1 is None or g2 is None:
        raise MissingPresentation("both objects need presentations")
    p1, n1 = g1.source, g1.target
    p2, n2 = g2.source, g2.target
    ring = p1.ring
    s_basis = hom_basis(p2, p1)
    u_basis = hom_basis(n2, n1)
    data_n1 = UnderlyingData(n1)

    def value_vector(morphism):
        moved = ElementTuple(n1, morphism.matrix)
        return data_n1.element_value(moved)

    s_vectors = [value_vector(s.then(g1)) for s in s_basis]
    u_vectors = [value_vector(g2.then(u)) for u in u_basis]
    width = len(s_basis) + len(u_basis)
    height = len(s_vectors[0]) if s_vectors else (
        len(u_vectors[0]) if u_vectors else 0)
    rows = []
    for r in range(height):
        row = [v[r] for v in s_vectors]
        row += [ring.neg(v[r]) for v in u_vectors]
        rows.append(row)
    system = ConcreteMatrix(ring, rows, height, width)
    out = []
    for vec in field_kernel(system):
        s = _combine_fp(s_basis, vec[:len(s_basis)], p2, p1)
        u = _combine_fp(u_basis, vec[len(s_basis):], n2, n1)
        out.append((s, u))
    return out


def _combine_fp(basis, coefficients, source, target):
    quiver, ring = source.quiver, source.ring
    total = TypedMatrix.zero(quiver, ring, source.generator_sorts,
                             target.generator_sorts)
    for coeff, morphism in zip(coefficients, basis):
        if ring.is_zero(coeff):
            continue
        scaled = TypedMatrix(
            quiver, ring, total.row_types, total.col_types,
            [[x.scale(coeff) for x in row]
             for row in morphism.matrix.entries])
        total = total.add(scaled)
    return FpMorphism(source, target, total, _certified=True)


def morphism_from_presentation(s, source, target, mode=ALL_MODULES):
    """Build the pp morphism whose graph is x' = s(x) on source top."""
    g1 = source.presentation
    g2 = target.presentation
    if g1 is None or g2 is None:
        raise MissingPresentation("both objects need presentations")
    if s.source != g2.source or s.target != g1.source:
        raise MismatchError("presenting map must run target-P -> source-P")
    quiver, ring = s.source.quiver, s.source.ring
    ctx = tuple(source.context) + _avoid(
        target.context, {n for n, _ in source.context})
    n1 = len(source.context)
    n2 = len(target.context)
    src_sorts = tuple(x for _, x in ctx[:n1])
    tgt_sorts = tuple(x for _, x in ctx[n1:])
    ident = TypedMatrix.identity(quiver, ring, tgt_sorts)
    a = s.matrix.neg().hstack(ident)
    graph = PpFormula(quiver, ring, ctx, (),
                      a, TypedMatrix.zero(quiver, ring, s.matrix.row_types,
                                          ()))
    theta = conjoin(graph, lift(source.pair.top, ctx, list(range(n1))))
    return AbMorphism(source, target, theta, mode, presentation=s,
                      _checked=True)


# ---------------------------------------------------------------------------
# The canonical diagram embedding


class DiagramEmbedding:
    """The universal representation of the quiver inside the category of
    pairs: a vertex goes to (x = x)/(x = 0) at that sort, an arrow to the
    graph of its action."""

    def __init__(self, quiver, ring):
        self.quiver = quiver
        self.ring = ring

    def object(self, vertex):
        self.quiver.check_vertex(vertex)
        p = FpModule.representable(self.quiver, self.ring, vertex)
        zero = FpModule.zero(self.quiver, self.ring)
        g = FpMorphism.zero(p, zero)
        return object_from_presentation(g)

    def morphism(self, arrow_name):
        arrow = self.quiver.arrow(arrow_name)
        src = self.object(arrow.src)
        tgt = self.object(arrow.tgt)
        p_src = src.presentation.source
        p_tgt = tgt.presentation.source
        s = FpMorphism(p_tgt, p_src,
                       TypedMatrix(self.quiver, self.ring, (arrow.tgt,),
                                   (arrow.src,),
                                   [[AlgebraElement.of_arrow(
                                       self.quiver, self.ring, arrow_name)]]),
                       _certified=True)
        return morphism_from_presentation(s, src, tgt)


# ---------------------------------------------------------------------------
# Serre kernel membership


class SerreKernelOracle:
    """Membership tests for the kernel of evaluation: exact yes/no against a
    concrete representation, or a sound yes/unknown search from a finite set
    of generating pairs within a step budget."""

    def __init__(self, representation=None, generators=None, budget=0):
        if (representation is None) == (generators is None):
            raise EngineError("exactly one of representation/generators")
        if generators is not None and budget <= 0:
            raise EngineError("axiom-generated oracles need a positive budget")
        self.representation = representation
        self.generators = tuple(generators) if generators else ()
        self.budget = budget

    @classmethod
    def model(cls, representation):
        return cls(representation=representation)

    @classmethod
    def axioms(cls, pairs, budget):
        return cls(generators=pairs, budget=budget)

    def membership(self, obj):
        if self.representation is not None:
            return YES if is_closed(obj.pair, self.representation) else NO
        phi = obj.pair.top
        psi = obj.pair.bottom
        for depth in range(1, self.budget + 1):
            if self._derivable(phi, psi, depth):
                return YES
        return UNKNOWN

    def _derivable(self, phi, psi, depth):
        """Sound bottom-saturation: grow psi by axiom instances sigma whose
        tau side is already absorbed; never claims more than regular
        consequence of the generators."""
        if implies_all(phi, psi):
            return True
        if depth == 0:
            return False
        absorbed = psi
        for pair in self.generators:
            sigma = pair.top
            tau = pair.bottom
            for positions in _sort_assignments(sigma.context_sorts,
                                               phi.context_sorts):
                sigma_hat = lift(sigma, phi.context, positions)
                tau_hat = lift(tau, phi.context, positions)
                if self._derivable(conjoin(tau_hat, phi), absorbed,
                                   depth - 1):
                    absorbed = sum_formula(absorbed, conjoin(sigma_hat, phi))
                    if implies_all(phi, absorbed):
                        return True
        return False


def _sort_assignments(from_sorts, onto_sorts):
    """All maps sending each variable to a same-sort position."""
    choices = []
    for s in from_sorts:
        slots = [i for i, t in enumerate(onto_sorts) if t == s]
        if not slots:
            return
        choices.append(slots)
    def rec(k, acc):
        if k == len(choices):
            yield list(acc)
            return
        for slot in choices[k]:
            acc.append(slot)
            yield from rec(k + 1, acc)
            acc.pop()
    yield from rec(0, [])


def in_kernel(obj, oracle):
    return oracle.membership(obj)


# ---------------------------------------------------------------------------
# Definable-category comparisons


def same_regular_theory_bounded(first, second, pairs):
    """Compare closedness of each probe pair on the two representations;
    agreement is relative to the probe set only."""
    if first.quiver != second.quiver:
        raise MismatchError("representations over different quivers")
    check_same_ring(first.ring, second.ring)
    for pair in pairs:
        a = is_closed(pair, first)
        b = is_closed(pair, second)
        if a != b:
            return "disagree", pair
    return "agree", None


def induced_functor_eval(first, second, obj):
    """Object-level value of the induced functor at another representation
    of the same quiver and ring."""
    if first.quiver != second.quiver:
        raise MismatchError("representations over different quivers")
    check_same_ring(first.ring, second.ring)
    return evaluate_object(obj, second, "pp")
