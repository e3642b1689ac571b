import random

import pytest

from abquiver.abcat import (ALL_MODULES, NO, UNKNOWN, YES, AbMorphism,
                            AbObject, DiagramEmbedding, SerreKernelOracle,
                            add_morphisms, check_morphism, cokernel, compose,
                            direct_sum, equal_in_quotient, evaluate_morphism,
                            evaluate_object, identity_morphism, in_kernel,
                            induced_functor_eval, is_isomorphism_all,
                            is_isomorphism_on, is_zero_object_all, kernel,
                            morphism_from_presentation,
                            morphism_routes_agree, object_from_presentation,
                            presented_morphism_space,
                            same_regular_theory_bounded, zero_morphism)
from abquiver.errors import (InvalidMorphism, MismatchError,
                             MissingPresentation)
from abquiver.formulas import PpFormula, PpPair, is_closed
from abquiver.fpmodules import FpModule, FpMorphism
from abquiver.linalg import ConcreteMatrix
from abquiver.quivers import AlgebraElement, TypedMatrix
from abquiver.representations import Fiber, Representation
from abquiver.scalars import GF, QQ, ZZ
from abquiver.subobjects import QuotientInvariants

from gens import A2, A3, random_representation, random_typed_matrix


def a2_rep(ring, scalar):
    return Representation(A2, ring,
                          {"1": Fiber(ring, 1), "2": Fiber(ring, 1)},
                          {"a": ConcreteMatrix(ring, [[scalar]])})


def coker_of_a(ring):
    p1 = FpModule.representable(A2, ring, "1")
    p2 = FpModule.representable(A2, ring, "2")
    a_el = AlgebraElement.of_arrow(A2, ring, "a")
    g = FpMorphism(p2, p1, TypedMatrix(A2, ring, ("2",), ("1",), [[a_el]]))
    return object_from_presentation(g)


def random_presented_object(rng, quiver, ring, max_gens=2, max_rels=1):
    """A random g: P -> N with small random presentations."""
    while True:
        p_gens = tuple(rng.choice(quiver.vertices)
                       for _ in range(rng.randint(1, max_gens)))
        p_rels = tuple(rng.choice(quiver.vertices)
                       for _ in range(rng.randint(0, max_rels)))
        n_gens = tuple(rng.choice(quiver.vertices)
                       for _ in range(rng.randint(0, max_gens)))
        n_rels = tuple(rng.choice(quiver.vertices)
                       for _ in range(rng.randint(0, max_rels)))
        p = FpModule(quiver, ring,
                     random_typed_matrix(rng, quiver, ring, p_rels, p_gens))
        n = FpModule(quiver, ring,
                     random_typed_matrix(rng, quiver, ring, n_rels, n_gens))
        from abquiver.fpmodules import hom_basis
        basis = hom_basis(p, n)
        coeffs = [ring.from_int(rng.randint(-2, 2)) for _ in basis]
        from abquiver.abcat import _combine_fp
        g = _combine_fp(basis, coeffs, p, n)
        return object_from_presentation(g)


def test_delta_object_pair_shape():
    delta = DiagramEmbedding(A2, QQ)
    obj = delta.object("2")
    assert obj.pair.top.matrix_a.rows == 0
    assert evaluate_object(obj, a2_rep(QQ, 1)) == QuotientInvariants(1)


def test_delta_on_arrow_is_valid_everywhere():
    delta = DiagramEmbedding(A2, QQ)
    da = delta.morphism("a")
    assert check_morphism(da.theta, da.source, da.target, ALL_MODULES)


def test_object_from_presentation_routes():
    obj = coker_of_a(QQ)
    for scalar, expected in ((1, QuotientInvariants(0)),
                             (0, QuotientInvariants(1))):
        t = a2_rep(QQ, scalar)
        assert evaluate_object(obj, t, "pp") == expected
        assert evaluate_object(obj, t, "presentation") == expected


def test_object_from_identity_presentation_is_zero():
    p1 = FpModule.representable(A2, QQ, "1")
    obj = object_from_presentation(FpMorphism.identity(p1))
    assert is_zero_object_all(obj)


def test_missing_presentation():
    delta = DiagramEmbedding(A2, QQ)
    obj = AbObject(delta.object("1").pair)
    with pytest.raises(MissingPresentation):
        evaluate_object(obj, a2_rep(QQ, 1), "presentation")


def test_check_morphism_identity_and_backwards_graph():
    ring = QQ
    delta = DiagramEmbedding(A2, ring)
    d1 = delta.object("1")
    d2 = delta.object("2")
    ident = identity_morphism(d1)
    assert check_morphism(ident.theta, d1, d1, ALL_MODULES)
    # Backwards graph a*x1' = x2 from Delta(2) to Delta(1): not total over
    # all modules, but functional relative to an invertible arrow.
    a_el = AlgebraElement.of_arrow(A2, ring, "a")
    e2 = AlgebraElement.vertex_identity(A2, ring, "2")
    a_mat = TypedMatrix(A2, ring, ("2",), ("2", "1"), [[e2.neg(), a_el]])
    theta = PpFormula(A2, ring, (("x2", "2"), ("x1p", "1")), (),
                      a_mat, TypedMatrix.zero(A2, ring, ("2",), ()))
    assert not check_morphism(theta, d2, d1, ALL_MODULES)
    assert check_morphism(theta, d2, d1, a2_rep(ring, 1))
    assert not check_morphism(theta, d2, d1, a2_rep(ring, 0))


def test_invalid_morphism_rejected():
    delta = DiagramEmbedding(A2, QQ)
    d1 = delta.object("1")
    d2 = delta.object("2")
    triv = PpFormula.trivial(A2, QQ, (("x", "1"), ("xp", "2")))
    with pytest.raises(InvalidMorphism):
        AbMorphism(d1, d2, triv)  # totally unconstrained relation


def test_compose_with_identity():
    rng = random.Random(51)
    delta = DiagramEmbedding(A2, QQ)
    d1 = delta.object("1")
    d2 = delta.object("2")
    da = delta.morphism("a")
    left = compose(identity_morphism(d1), da)
    right = compose(da, identity_morphism(d2))
    for _ in range(5):
        t = random_representation(rng, A2, QQ, max_dim=3)
        assert equal_in_quotient(left, da, t)
        assert equal_in_quotient(right, da, t)


def test_compose_delta_functorial():
    delta = DiagramEmbedding(A3, QQ)
    da = delta.morphism("a")
    db = delta.morphism("b")
    comp = compose(da, db)
    # Delta(b . a) has graph b*a*x = x'.
    rng = random.Random(52)
    for _ in range(5):
        t = random_representation(rng, A3, QQ, max_dim=2)
        qp_src, qp_tgt, matrix = evaluate_morphism(comp, t)
        mat_b = t.arrow_matrix("b")
        mat_a = t.arrow_matrix("a")
        composed = mat_b.mul(mat_a)
        for row in qp_src.generators:
            assert qp_tgt.classes_equal(
                matrix.apply(qp_src.class_vector(row)),
                qp_tgt.class_vector(composed.apply(row)))


def test_evaluate_morphism_over_z_with_torsion_in_the_target():
    # Z/2 -> Z/4 given by [[2]]: Delta(a) sends the generator to 2 mod 4.
    t = Representation(A2, ZZ,
                       {"1": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[2]])),
                        "2": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[4]]))},
                       {"a": ConcreteMatrix(ZZ, [[2]])})
    da = DiagramEmbedding(A2, ZZ).morphism("a")
    qp_src, qp_tgt, matrix = evaluate_morphism(da, t)
    assert qp_src.invariants() == QuotientInvariants(0, (2,))
    assert qp_tgt.invariants() == QuotientInvariants(0, (4,))
    arrow = t.arrow_matrix("a")
    for row in qp_src.generators:
        image = matrix.apply(qp_src.class_vector(row))
        assert qp_tgt.classes_equal(image,
                                    qp_tgt.class_vector(arrow.apply(row)))
        assert qp_tgt.classes_equal(image, (2,))
        assert not qp_tgt.is_zero_class(image)
    assert morphism_routes_agree(da, t)
    assert not equal_in_quotient(da, zero_morphism(da.source, da.target), t)


def test_equal_in_quotient_over_z_reduces_torsion_classes():
    # Z/2 -> Z/4 by [[2]]: 2 Delta(a) sends the generator to 4 = 0 mod 4.
    t = Representation(A2, ZZ,
                       {"1": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[2]])),
                        "2": Fiber(ZZ, 1, ConcreteMatrix(ZZ, [[4]]))},
                       {"a": ConcreteMatrix(ZZ, [[2]])})
    da = DiagramEmbedding(A2, ZZ).morphism("a")
    twice = add_morphisms(da, da)
    zero = zero_morphism(da.source, da.target)
    assert evaluate_morphism(twice, t)[2] == ConcreteMatrix(ZZ, [[0]])
    assert equal_in_quotient(twice, zero, t)
    assert not equal_in_quotient(da, zero, t)
    # Z^2/<(1, 2)> has the invariant factor 1 and one class coordinate.
    t = Representation(A2, ZZ,
                       {"1": Fiber(ZZ, 2, ConcreteMatrix(ZZ, [[1], [2]])),
                        "2": Fiber(ZZ, 1)},
                       {"a": ConcreteMatrix(ZZ, [[2, -1]])})
    qp_src, qp_tgt, matrix = evaluate_morphism(da, t)
    assert qp_src.class_dim == 1
    assert qp_src.invariants() == QuotientInvariants(1)
    assert (matrix.rows, matrix.cols) == (1, 1)
    arrow = t.arrow_matrix("a")
    for e in ((1, 0), (0, 1)):
        assert matrix.apply(qp_src.class_vector(e)) \
            == qp_tgt.class_vector(arrow.apply(e))
    assert equal_in_quotient(da, compose(identity_morphism(da.source), da),
                             t)
    assert not equal_in_quotient(da, zero, t)


def test_direct_sum_evaluation_adds():
    rng = random.Random(53)
    obj1 = coker_of_a(QQ)
    delta = DiagramEmbedding(A2, QQ)
    obj2 = delta.object("1")
    s = direct_sum(obj1, obj2)
    for _ in range(5):
        t = random_representation(rng, A2, QQ, max_dim=3)
        v1 = evaluate_object(obj1, t)
        v2 = evaluate_object(obj2, t)
        v = evaluate_object(s, t)
        assert v.free_rank == v1.free_rank + v2.free_rank
        assert sorted(v.torsion) == sorted(v1.torsion + v2.torsion)
    assert evaluate_object(s, a2_rep(QQ, 1), "presentation") \
        == evaluate_object(s, a2_rep(QQ, 1), "pp")


def test_kernel_of_identity_is_zero():
    delta = DiagramEmbedding(A2, QQ)
    d1 = delta.object("1")
    k, _ = kernel(identity_morphism(d1))
    assert is_zero_object_all(k)


def test_cokernel_of_zero_is_target():
    delta = DiagramEmbedding(A2, QQ)
    d1 = delta.object("1")
    d2 = delta.object("2")
    c, proj = cokernel(zero_morphism(d1, d2))
    rng = random.Random(54)
    for _ in range(5):
        t = random_representation(rng, A2, QQ, max_dim=3)
        assert evaluate_object(c, t) == evaluate_object(d2, t)


def test_kernel_of_delta_a():
    delta = DiagramEmbedding(A2, QQ)
    da = delta.morphism("a")
    k, incl = kernel(da)
    assert evaluate_object(k, a2_rep(QQ, 1)) == QuotientInvariants(0)
    t2 = Representation(A2, QQ, {"1": Fiber(QQ, 2), "2": Fiber(QQ, 1)},
                        {"a": ConcreteMatrix(QQ, [[1, 0]])})
    assert evaluate_object(k, t2) == QuotientInvariants(1)


def exactness_of_kernel(f, t):
    """0 -> F(ker) -> F(src) -> F(tgt) is exact at the first two spots."""
    k, incl = kernel(f)
    qp_k, qp_src, m_incl = evaluate_morphism(incl, t)
    _, qp_tgt, m_f = evaluate_morphism(f, t)
    for row in qp_k.generators:
        in_src = m_incl.apply(qp_k.class_vector(row))
        # the inclusion is the identity graph
        assert qp_src.classes_equal(in_src, qp_src.class_vector(row))
        # composite is zero
        assert qp_tgt.is_zero_class(m_f.apply(in_src))
        # injectivity: a kernel class maps to zero only if it is zero
        if qp_src.is_zero_class(in_src):
            assert qp_k.is_zero_class(qp_k.class_vector(row))
    return True


def test_exactness_spot_checks():
    rng = random.Random(55)
    delta = DiagramEmbedding(A2, QQ)
    da = delta.morphism("a")
    for _ in range(5):
        t = random_representation(rng, A2, QQ, max_dim=2)
        exactness_of_kernel(da, t)


def test_add_morphisms_and_factoring_perturbation():
    # f vs f + (something factoring through a kernel object) agree in the
    # quotient by construction.
    ring = QQ
    delta = DiagramEmbedding(A2, ring)
    d1 = delta.object("1")
    d2 = delta.object("2")
    da = delta.morphism("a")
    t0 = a2_rep(ring, 0)
    t1 = a2_rep(ring, 1)
    z = zero_morphism(d1, d2)
    s = add_morphisms(da, z)
    for t in (t0, t1):
        assert equal_in_quotient(s, da, t)
    # Delta(a) itself factors through zero when evaluated at t0.
    assert equal_in_quotient(add_morphisms(da, da), da, t0)
    assert not equal_in_quotient(add_morphisms(da, da), da, t1)


def test_perturbation_factoring_through_kernel_member():
    # f vs f + w where w factors through an object of the Serre kernel:
    # equal in the quotient at the representation where that object dies.
    ring = QQ
    delta = DiagramEmbedding(A2, ring)
    d1 = delta.object("1")
    d2 = delta.object("2")
    da = delta.morphism("a")
    t0 = a2_rep(ring, 0)
    t1 = a2_rep(ring, 1)
    # image object (EX y . a*y = x)/(x = 0): dies at t0, not at t1
    a_el = AlgebraElement.of_arrow(A2, ring, "a")
    e2 = AlgebraElement.vertex_identity(A2, ring, "2")
    im_formula = PpFormula(
        A2, ring, (("x", "2"),), (("y", "1"),),
        TypedMatrix(A2, ring, ("2",), ("2",), [[e2.neg()]]),
        TypedMatrix(A2, ring, ("2",), ("1",), [[a_el]]))
    image_obj = AbObject(PpPair(im_formula, PpFormula.zero(
        A2, ring, (("x", "2"),))))
    assert in_kernel(image_obj, SerreKernelOracle.model(t0)) == YES
    # h1: d1 -> image_obj with graph a*x = x'; h2: inclusion into d2
    graph = PpFormula(
        A2, ring, (("x", "1"), ("xp", "2")), (),
        TypedMatrix(A2, ring, ("2",), ("1", "2"), [[a_el, e2.neg()]]),
        TypedMatrix.zero(A2, ring, ("2",), ()))
    h1 = AbMorphism(d1, image_obj, graph)
    from abquiver.formulas import conjoin, equality_graph, lift
    eq = equality_graph(A2, ring, image_obj.context)
    incl = conjoin(eq, lift(im_formula, eq.context, [0]))
    h2 = AbMorphism(image_obj, d2, incl)
    w = compose(h1, h2)
    perturbed = add_morphisms(da, w)
    assert equal_in_quotient(perturbed, da, t0)
    assert not equal_in_quotient(perturbed, da, t1)


def test_equal_in_quotient_requires_matching_endpoints():
    delta = DiagramEmbedding(A2, QQ)
    d1 = delta.object("1")
    d2 = delta.object("2")
    with pytest.raises(MismatchError):
        equal_in_quotient(identity_morphism(d1), identity_morphism(d2),
                          a2_rep(QQ, 1))


def test_in_kernel_model_mode():
    obj = coker_of_a(QQ)
    assert in_kernel(obj, SerreKernelOracle.model(a2_rep(QQ, 1))) == YES
    assert in_kernel(obj, SerreKernelOracle.model(a2_rep(QQ, 0))) == NO
    delta = DiagramEmbedding(A2, QQ)
    zero_obj = AbObject(PpPair(delta.object("1").pair.top,
                               delta.object("1").pair.top))
    for oracle in (SerreKernelOracle.model(a2_rep(QQ, 1)),
                   SerreKernelOracle.model(a2_rep(QQ, 0)),
                   SerreKernelOracle.axioms([coker_of_a(QQ).pair], 1)):
        assert in_kernel(zero_obj, oracle) == YES


def test_in_kernel_axiom_mode():
    obj = coker_of_a(QQ)
    oracle = SerreKernelOracle.axioms([obj.pair], budget=2)
    assert oracle.membership(obj) == YES
    assert oracle.membership(direct_sum(obj, obj)) == YES
    delta = DiagramEmbedding(A2, QQ)
    assert oracle.membership(delta.object("2")) == UNKNOWN


def test_axiom_oracle_never_false_no():
    # Soundness: axiom-mode YES implies closed on every model of the axioms.
    rng = random.Random(56)
    obj = coker_of_a(QQ)
    oracle = SerreKernelOracle.axioms([obj.pair], budget=2)
    sub_obj, _ = kernel(identity_morphism(obj))
    candidates = [obj, direct_sum(obj, obj), sub_obj]
    for cand in candidates:
        if oracle.membership(cand) == YES:
            for _ in range(5):
                t = random_representation(rng, A2, QQ, max_dim=2)
                if is_closed(obj.pair, t):
                    assert is_closed(cand.pair, t)


def test_serre_closure_model_mode():
    rng = random.Random(57)
    t = a2_rep(QQ, 1)
    oracle = SerreKernelOracle.model(t)
    member = coker_of_a(QQ)
    assert oracle.membership(member) == YES
    # subobject via kernel of a map out, quotient via cokernel of a map in
    sub, _ = kernel(identity_morphism(member))
    quot, _ = cokernel(identity_morphism(member))
    assert oracle.membership(sub) == YES
    assert oracle.membership(quot) == YES
    assert oracle.membership(direct_sum(member, member)) == YES


def test_same_regular_theory_bounded():
    t1 = a2_rep(QQ, 1)
    t0 = a2_rep(QQ, 0)
    probe = coker_of_a(QQ).pair
    verdict, witness = same_regular_theory_bounded(t1, t0, [probe])
    assert verdict == "disagree"
    assert witness == probe
    verdict, witness = same_regular_theory_bounded(
        t1, t1.direct_sum(t1), [probe])
    assert verdict == "agree" and witness is None
    assert same_regular_theory_bounded(t1, t0, [])[0] == "agree"


def test_induced_functor_eval():
    t1 = a2_rep(QQ, 1)
    obj = coker_of_a(QQ)
    assert induced_functor_eval(t1, t1, obj) == evaluate_object(obj, t1)
    doubled = induced_functor_eval(t1, t1.direct_sum(t1),
                                   DiagramEmbedding(A2, QQ).object("1"))
    assert doubled == QuotientInvariants(2)
    # An object in the kernel over t1 but not over t0 flags the difference.
    t0 = a2_rep(QQ, 0)
    assert evaluate_object(obj, t1).is_trivial()
    assert not induced_functor_eval(t1, t0, obj).is_trivial()


def test_presented_morphism_routes_agree_random():
    rng = random.Random(58)
    agreements = 0
    for _ in range(12):
        quiver = rng.choice([A2, A3])
        ring = rng.choice([QQ, GF(2)])
        src = random_presented_object(rng, quiver, ring)
        tgt = random_presented_object(rng, quiver, ring)
        space = presented_morphism_space(src, tgt)
        if not space:
            continue
        s, u = space[rng.randrange(len(space))]
        f = morphism_from_presentation(s, src, tgt)
        for _ in range(3):
            t = random_representation(rng, quiver, ring, max_dim=2)
            assert evaluate_object(src, t, "pp") \
                == evaluate_object(src, t, "presentation")
            assert morphism_routes_agree(f, t)
            agreements += 1
    assert agreements > 0


def test_mode_coherence():
    # all_modules validity implies on(T) validity for every T.
    rng = random.Random(59)
    delta = DiagramEmbedding(A2, QQ)
    d1 = delta.object("1")
    d2 = delta.object("2")
    da = delta.morphism("a")
    for f in (da, identity_morphism(d1), zero_morphism(d1, d2)):
        assert check_morphism(f.theta, f.source, f.target, ALL_MODULES)
        for _ in range(4):
            t = random_representation(rng, A2, QQ, max_dim=2)
            assert check_morphism(f.theta, f.source, f.target, t)


def test_is_isomorphism():
    delta = DiagramEmbedding(A2, QQ)
    d1 = delta.object("1")
    da = delta.morphism("a")
    assert is_isomorphism_all(identity_morphism(d1))
    assert not is_isomorphism_all(da)
    assert is_isomorphism_on(da, a2_rep(QQ, 1))
    assert not is_isomorphism_on(da, a2_rep(QQ, 0))


def test_faithfulness_composition_coherence():
    # The quotient functor preserves composition: evaluated composites equal
    # composites of evaluated maps.
    rng = random.Random(60)
    delta = DiagramEmbedding(A3, QQ)
    da = delta.morphism("a")
    db = delta.morphism("b")
    comp = compose(da, db)
    for _ in range(5):
        t = random_representation(rng, A3, QQ, max_dim=2)
        qp1, _, m_a = evaluate_morphism(da, t)
        _, qp3, m_b = evaluate_morphism(db, t)
        _, _, m_comp = evaluate_morphism(comp, t)
        for row in qp1.generators:
            c = qp1.class_vector(row)
            assert qp3.classes_equal(m_comp.apply(c), m_b.apply(m_a.apply(c)))
