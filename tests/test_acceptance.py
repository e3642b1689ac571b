"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are exact throughout; the stated time budgets are
asserted where the criterion carries one.
"""

import itertools
import os
import random
import time

from abquiver.abcat import (YES, AbObject, DiagramEmbedding,
                            SerreKernelOracle, cokernel, direct_sum,
                            evaluate_morphism, evaluate_object,
                            identity_morphism, in_kernel, kernel,
                            morphism_from_presentation, morphism_routes_agree,
                            presented_morphism_space, zero_morphism)
from abquiver.formulas import (PpFormula, PpPair, conjoin, implies_all,
                               is_closed, sum_formula)
from abquiver import linalg
from abquiver.linalg import ConcreteMatrix, integer_kernel, solve
from abquiver.quivers import Quiver
from abquiver.representations import Fiber, Representation
from abquiver.scalars import GF, QQ, ZZ
from abquiver.simplicial import (RelativeHomology, SimplicialComplex,
                                 SimplicialPair)
from abquiver.subobjects import (Ambient, QuotientInvariants, SubobjectData,
                                 invariants_of_presentation)

from gens import (A2, A3, SQUARE, random_formula,
                  random_formula_on_context, random_representation)
from oracles import (all_f2_bitmask_representations, f2_implication_holds,
                     int_det)
from test_abcat import random_presented_object
from test_simplicial import circle, disc, klein_bottle


def report(criterion, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (criterion, detail))


# ---------------------------------------------------------------------------
# Criterion 1: route agreement


def test_criterion_1_route_agreement():
    start = time.monotonic()
    rng = random.Random(10001)
    quivers = [A2, A3, SQUARE]
    rings = [QQ, GF(2)]
    objects_checked = 0
    morphisms_checked = 0
    while objects_checked < 100:
        quiver = rng.choice(quivers)
        ring = rng.choice(rings)
        obj = random_presented_object(rng, quiver, ring)
        for _ in range(2):
            t = random_representation(rng, quiver, ring, max_dim=3)
            assert evaluate_object(obj, t, "pp") \
                == evaluate_object(obj, t, "presentation")
        objects_checked += 1
    while morphisms_checked < 100:
        quiver = rng.choice(quivers)
        ring = rng.choice(rings)
        src = random_presented_object(rng, quiver, ring)
        tgt = random_presented_object(rng, quiver, ring)
        space = presented_morphism_space(src, tgt)
        if not space:
            continue
        s, _ = space[rng.randrange(len(space))]
        f = morphism_from_presentation(s, src, tgt)
        t = random_representation(rng, quiver, ring, max_dim=3)
        assert morphism_routes_agree(f, t)
        morphisms_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(1, "%d objects, %d morphisms, %.1fs"
           % (objects_checked, morphisms_checked, elapsed))


# ---------------------------------------------------------------------------
# Criterion 2: exactness of the evaluation functor


def _random_valid_morphism(rng, quiver, ring):
    """A random morphism with a presentation, or a canonical one."""
    kind = rng.randrange(3)
    if kind == 0:
        delta = DiagramEmbedding(quiver, ring)
        arrow = rng.choice(quiver.arrows)
        return delta.morphism(arrow.name)
    src = random_presented_object(rng, quiver, ring)
    tgt = random_presented_object(rng, quiver, ring)
    if kind == 1:
        return zero_morphism(src, tgt)
    space = presented_morphism_space(src, tgt)
    if not space:
        return zero_morphism(src, tgt)
    s, _ = space[rng.randrange(len(space))]
    return morphism_from_presentation(s, src, tgt)


def _check_exact_kernel(f, t):
    """0 -> F(ker f) -> F(src) -> F(tgt) exact at the first two spots."""
    ring = t.ring
    k, incl = kernel(f)
    qp_k, qp_src, m_incl = evaluate_morphism(incl, t)
    qp_src2, qp_tgt, m_f = evaluate_morphism(f, t)
    composite = m_f.mul(m_incl)
    if ring.is_field:
        assert all(qp_tgt.is_zero_class(col)
                   for col in composite.transpose().entries)
        rank_incl = len(SubobjectData(
            Ambient(ring, (m_incl.rows,), ("c",)),
            m_incl.transpose().entries).rows)
        rank_f = len(SubobjectData(
            Ambient(ring, (m_f.rows,), ("c",)),
            m_f.transpose().entries).rows)
        # injectivity of F(ker) -> F(src), and im = ker in the middle
        assert rank_incl == qp_k.class_dim
        assert qp_src.class_dim - rank_f == qp_k.class_dim
    else:
        rel_src = [tuple(r) for r in qp_src.relation_rows]
        rel_tgt = [tuple(r) for r in qp_tgt.relation_rows]
        amb = Ambient(ring, (qp_src.class_dim,), ("c",), rel_src)
        image = SubobjectData(amb, m_incl.transpose().entries)
        combined = m_f
        if rel_tgt:
            combined = combined.hstack(ConcreteMatrix(
                ring, [[r[i] for r in rel_tgt]
                       for i in range(qp_tgt.class_dim)],
                qp_tgt.class_dim, len(rel_tgt)))
        vectors = integer_kernel(combined) if combined.rows else None
        if vectors is None:
            ker_sub = amb.full()
        else:
            ker_sub = SubobjectData(
                amb, [v[:qp_src.class_dim] for v in vectors])
        assert image == ker_sub
        # invariant bookkeeping: F(ker) matches the kernel subgroup
        assert evaluate_object(k, t).is_trivial() == \
            ker_sub.quotient_by(SubobjectData(amb, ())).is_trivial()


def _check_exact_cokernel(f, t):
    """F(src) -> F(tgt) -> F(coker f) -> 0 exact at the last two spots."""
    ring = t.ring
    c, proj = cokernel(f)
    _, qp_tgt, m_f = evaluate_morphism(f, t)
    qp_tgt2, qp_c, m_proj = evaluate_morphism(proj, t)
    composite = m_proj.mul(m_f)
    assert all(qp_c.is_zero_class(col)
               for col in composite.transpose().entries)
    value_c = evaluate_object(c, t)
    if ring.is_field:
        rank_f = len(SubobjectData(Ambient(ring, (m_f.rows,), ("c",)),
                                   m_f.transpose().entries).rows)
        rank_proj = len(SubobjectData(Ambient(ring, (m_proj.rows,), ("c",)),
                                      m_proj.transpose().entries).rows)
        assert value_c.free_rank == qp_tgt.class_dim - rank_f
        assert rank_proj == value_c.free_rank  # surjectivity
    else:
        rel_tgt = [tuple(r) for r in qp_tgt.relation_rows]
        cols = [col for col in m_f.transpose().entries] + rel_tgt
        assert invariants_of_presentation(
            qp_tgt.class_dim, [tuple(c_) for c_ in cols]) == value_c


def test_criterion_2_exactness():
    start = time.monotonic()
    rng = random.Random(10002)
    instances = 0
    while instances < 100:
        quiver = rng.choice([A2, A3])
        ring = rng.choice([QQ, GF(2), GF(3)])
        f = _random_valid_morphism(rng, quiver, ring)
        t = random_representation(rng, quiver, ring, max_dim=2)
        _check_exact_kernel(f, t)
        _check_exact_cokernel(f, t)
        instances += 1
    # integer instances through the canonical embedding
    delta = DiagramEmbedding(A2, ZZ)
    da = delta.morphism("a")
    for scalar in (0, 1, 2, 6):
        t = Representation(A2, ZZ,
                           {"1": Fiber(ZZ, 1), "2": Fiber(ZZ, 1)},
                           {"a": ConcreteMatrix(ZZ, [[scalar]])})
        _check_exact_kernel(da, t)
        _check_exact_cokernel(da, t)
        instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(2, "%d kernel/cokernel instances, %.1fs" % (instances, elapsed))


# ---------------------------------------------------------------------------
# Criterion 3: implication oracle equivalence


def _all_small_acyclic_quivers():
    """Labeled acyclic quivers with <= 3 vertices and <= 3 arrows, arrows
    pointing from lower to higher labels (every DAG relabels to this)."""
    out = []
    for n in (1, 2, 3):
        vertices = [str(k) for k in range(1, n + 1)]
        slots = [(str(i), str(j)) for i in range(1, n + 1)
                 for j in range(i + 1, n + 1)]
        for count in range(0, 4):
            for combo in itertools.combinations_with_replacement(slots,
                                                                 count):
                arrows = [("a%d" % k, src, tgt)
                          for k, (src, tgt) in enumerate(combo)]
                out.append(Quiver(vertices, arrows))
    return out


def _random_formula_pair(rng, quiver, ring):
    phi = random_formula(rng, quiver, ring, n_ctx=rng.randint(1, 2),
                         n_bound=rng.randint(0, 1), n_eq=rng.randint(0, 2))
    style = rng.randrange(3)
    if style == 0:
        psi = random_formula_on_context(rng, quiver, ring, phi.context,
                                        n_bound=rng.randint(0, 1),
                                        n_eq=rng.randint(0, 2))
    elif style == 1:
        # weaken phi by dropping equation rows: implication holds
        keep = [j for j in range(phi.matrix_a.rows) if rng.random() < 0.5]
        psi = PpFormula(quiver, ring, phi.context, phi.bound,
                        phi.matrix_a.take_rows(keep),
                        phi.matrix_b.take_rows(keep))
    else:
        psi = sum_formula(phi, random_formula_on_context(
            rng, quiver, ring, phi.context, n_bound=0, n_eq=1))
    return phi, psi


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(10003)
    f2 = GF(2)
    quivers = _all_small_acyclic_quivers()
    assert len(quivers) == 25
    pairs_checked = 0
    for quiver in quivers:
        reps = list(all_f2_bitmask_representations(quiver, 2))
        for _ in range(50):
            phi, psi = _random_formula_pair(rng, quiver, f2)
            verdict = implies_all(phi, psi)
            brute = True
            for rep_dims, rep_arrows in reps:
                if not f2_implication_holds(phi, psi, rep_dims, rep_arrows):
                    brute = False
                    break
            assert verdict == brute, \
                "disagreement on %r: engine %s, brute force %s" % (
                    quiver, verdict, brute)
            pairs_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(3, "%d quivers, %d pairs, %.1fs"
           % (len(quivers), pairs_checked, elapsed))


# ---------------------------------------------------------------------------
# Criterion 4: the canonical embedding evaluates back to the representation


def _random_integer_representation(rng, quiver):
    """Free part plus a uniform mod-m torsion part, so arrows descend."""
    modulus = rng.choice([2, 3, 4])
    fibers = {}
    mats = {}
    free_dims = {v: rng.randint(0, 2) for v in quiver.vertices}
    tors_dims = {v: rng.randint(0, 1) for v in quiver.vertices}
    for v in quiver.vertices:
        n = free_dims[v] + tors_dims[v]
        relations = None
        if tors_dims[v]:
            cols = []
            for k in range(tors_dims[v]):
                col = [0] * n
                col[free_dims[v] + k] = modulus
                cols.append(col)
            relations = ConcreteMatrix(ZZ, [[c[i] for c in cols]
                                            for i in range(n)], n,
                                       tors_dims[v])
        fibers[v] = Fiber(ZZ, n, relations)
    for arrow in quiver.arrows:
        rows = fibers[arrow.tgt].dim
        cols = fibers[arrow.src].dim
        grid = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                src_torsion = j >= free_dims[arrow.src]
                tgt_torsion = i >= free_dims[arrow.tgt]
                if src_torsion and not tgt_torsion:
                    grid[i][j] = 0  # torsion cannot map to a free line
                else:
                    grid[i][j] = rng.randint(-2, 2)
        mats[arrow.name] = ConcreteMatrix(ZZ, grid, rows, cols)
    return Representation(quiver, ZZ, fibers, mats)


def _unit(k, n):
    return tuple(int(i == k) for i in range(n))


def _check_integer_arrow(qp_src, qp_tgt, matrix, arrow_matrix, fiber_src,
                         fiber_tgt):
    """Over Z the values carry their own class coordinates.  Each value is
    the image of its fiber's generators, which kill the fiber's relations;
    with the invariants checked equal, that map is an isomorphism, and the
    induced matrix must commute with the arrow through it."""
    assert (matrix.rows, matrix.cols) == (qp_tgt.class_dim, qp_src.class_dim)
    for qp, fiber in ((qp_src, fiber_src), (qp_tgt, fiber_tgt)):
        for k, rep in enumerate(qp.class_representatives()):
            assert qp.class_vector(rep) == _unit(k, qp.class_dim)
        for col in fiber.relation_columns():
            assert qp.is_zero_class(qp.class_vector(col))
    for i in range(arrow_matrix.cols):
        e = _unit(i, arrow_matrix.cols)
        assert qp_tgt.classes_equal(matrix.apply(qp_src.class_vector(e)),
                                    qp_tgt.class_vector(arrow_matrix.apply(e)))


def test_criterion_4_embedding_evaluates_to_fibers():
    rng = random.Random(10004)
    checked = 0
    while checked < 20:
        quiver = rng.choice([A2, A3, SQUARE])
        ring = rng.choice([QQ, GF(2), GF(5), ZZ])
        if ring == ZZ:
            t = _random_integer_representation(rng, quiver)
        else:
            t = random_representation(rng, quiver, ring, max_dim=3)
        delta = DiagramEmbedding(quiver, ring)
        for v in quiver.vertices:
            assert evaluate_object(delta.object(v), t) \
                == t.fiber(v).invariants()
        for arrow in quiver.arrows:
            f = delta.morphism(arrow.name)
            qp_src, qp_tgt, matrix = evaluate_morphism(f, t)
            expected = t.arrow_matrix(arrow.name)
            if ring == ZZ:
                _check_integer_arrow(qp_src, qp_tgt, matrix, expected,
                                     t.fiber(arrow.src), t.fiber(arrow.tgt))
                continue
            assert matrix.rows == expected.rows
            assert matrix.cols == expected.cols
            for j in range(expected.cols):
                assert qp_tgt.classes_equal(matrix.column(j),
                                            expected.column(j))
        checked += 1
    report(4, "%d representations, objects and arrows exact" % checked)


# ---------------------------------------------------------------------------
# Criterion 5: Serre closure in model mode


def test_criterion_5_serre_closure():
    rng = random.Random(10005)
    members_checked = 0
    extensions_checked = 0
    while members_checked < 50:
        quiver = rng.choice([A2, A3])
        ring = rng.choice([QQ, GF(2)])
        t = random_representation(rng, quiver, ring, max_dim=2)
        oracle = SerreKernelOracle.model(t)
        phi = random_formula(rng, quiver, ring)
        psi = random_formula_on_context(rng, quiver, ring, phi.context)
        pair = PpPair(phi, psi)
        if not is_closed(pair, t):
            continue
        member = AbObject(pair)
        assert in_kernel(member, oracle) == YES
        # subobject: anything with a smaller top over the same bottom
        rho = random_formula_on_context(rng, quiver, ring, phi.context)
        sub = AbObject(PpPair(conjoin(pair.top, rho), pair.bottom))
        assert in_kernel(sub, oracle) == YES
        # quotient: anything with a larger bottom under the same top
        quot = AbObject(PpPair(pair.top,
                               sum_formula(pair.bottom,
                                           conjoin(pair.top, rho))))
        assert in_kernel(quot, oracle) == YES
        # kernel and cokernel of canonical morphisms stay in the kernel
        sub2, _ = kernel(identity_morphism(member))
        quot2, _ = cokernel(identity_morphism(member))
        assert in_kernel(sub2, oracle) == YES
        assert in_kernel(quot2, oracle) == YES
        # direct sums of members are members
        assert in_kernel(direct_sum(member, member), oracle) == YES
        # extension: chi/psi and phi/chi both members => phi/psi a member
        chi = sum_formula(pair.bottom, conjoin(pair.top, rho))
        bottom_factor = AbObject(PpPair(chi, pair.bottom))
        top_factor = AbObject(PpPair(pair.top, chi))
        if (in_kernel(bottom_factor, oracle) == YES
                and in_kernel(top_factor, oracle) == YES):
            assert in_kernel(AbObject(PpPair(pair.top, pair.bottom)),
                             oracle) == YES
            extensions_checked += 1
        members_checked += 1
    assert extensions_checked >= 25
    report(5, "%d members, %d extension checks"
           % (members_checked, extensions_checked))


# ---------------------------------------------------------------------------
# Criterion 6: closedness passes to direct sums


def test_criterion_6_direct_sum_closedness():
    rng = random.Random(10006)
    checked = 0
    while checked < 50:
        quiver = rng.choice([A2, A3, SQUARE])
        ring = rng.choice([QQ, GF(2)])
        t1 = random_representation(rng, quiver, ring, max_dim=2)
        t2 = random_representation(rng, quiver, ring, max_dim=2)
        top = random_formula(rng, quiver, ring)
        pair = PpPair(top, random_formula_on_context(rng, quiver, ring,
                                                     top.context))
        if not (is_closed(pair, t1) and is_closed(pair, t2)):
            continue
        assert is_closed(pair, t1.direct_sum(t2))
        checked += 1
    report(6, "%d direct-sum instances closed" % checked)


# ---------------------------------------------------------------------------
# Criterion 7: homology fixtures over the integers


def test_criterion_7_homology_fixtures():
    start = time.monotonic()
    from oracles import brute_relative_homology
    empty = SimplicialComplex.empty()
    # circle
    c = circle()
    assert brute_relative_homology(c.faces, [], 1) == (1, [])
    assert RelativeHomology(SimplicialPair(c, empty), 1, ZZ).invariants() \
        == QuotientInvariants(1)
    # disc rel boundary
    d = disc()
    b = d.skeleton(1)
    assert brute_relative_homology(d.faces, b.faces, 2) == (1, [])
    assert brute_relative_homology(d.faces, b.faces, 1) == (0, [])
    pair_db = SimplicialPair(d, b)
    assert RelativeHomology(pair_db, 2, ZZ).invariants() \
        == QuotientInvariants(1)
    assert RelativeHomology(pair_db, 1, ZZ).invariants().is_trivial()
    # klein bottle
    kb = klein_bottle()
    assert brute_relative_homology(kb.faces, [], 1) == (1, [2])
    assert RelativeHomology(SimplicialPair(kb, empty), 1, ZZ).invariants() \
        == QuotientInvariants(1, (2,))
    # long exact sequence of the disc triple
    from test_nori import disc_triple_data
    from abquiver.nori import (build_nori_diagram, check_les_exactness,
                               homology_representation)
    data = disc_triple_data()
    diagram = build_nori_diagram(data, 2)
    rep = homology_representation(data, diagram, ZZ)
    assert check_les_exactness(rep, data, diagram, "t", range(0, 3))
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(7, "circle, disc pair, klein bottle, LES; %.1fs" % elapsed)


# ---------------------------------------------------------------------------
# Criterion 8: the exact linear algebra kernel


def test_criterion_8_linalg_kernel():
    from abquiver.linalg import smith_normal_form
    rng = random.Random(10008)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = ConcreteMatrix(ZZ, [[rng.randint(-9, 9) for _ in range(cols)]
                                for _ in range(rows)], rows, cols)
        u, d, v, _ = smith_normal_form(a)
        assert u.mul(a).mul(v) == d
        assert abs(int_det(u.entries)) == 1
        assert abs(int_det(v.entries)) == 1
        diag = [d.entries[i][i] for i in range(min(rows, cols))]
        nonzero = [x for x in diag if x != 0]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d.entries[i][j] == 0
    # completeness of solve over F_2, exhaustively for dims <= 3
    f2 = GF(2)
    systems = 0
    for rows in range(4):
        for cols in range(4):
            for bits in range(2 ** (rows * cols)):
                entries = [[(bits >> (i * cols + j)) & 1
                            for j in range(cols)] for i in range(rows)]
                a = ConcreteMatrix(f2, entries, rows, cols)
                for bbits in range(2 ** rows):
                    b = tuple((bbits >> i) & 1 for i in range(rows))
                    brute = {x for x in
                             itertools.product((0, 1), repeat=cols)
                             if a.apply(x) == b}
                    part = solve(a, b)
                    if not brute:
                        assert part is None
                        continue
                    kern = linalg.kernel(a)
                    spanned = {part}
                    for g in kern:
                        spanned |= {tuple((u + w) % 2 for u, w in zip(s, g))
                                    for s in spanned}
                    assert spanned == brute
                    systems += 1
    report(8, "1000 SNF contracts, %d solvable F_2 systems" % systems)


# ---------------------------------------------------------------------------
# Criterion 9: CLI determinism and round-trips on the fixture corpus


def test_criterion_9_cli_determinism(capsys):
    from abquiver.cli import main
    from abquiver.dsl import parse_formula
    from abquiver.formats import (parse_pair_file, parse_quiver,
                                  parse_representation)
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")

    def fx(name):
        return os.path.join(fixtures, name)

    commands = [
        ("eval", "--quiver", fx("a2.quiver"), "--rep", fx("a2_iso.rep"),
         "--formula", fx("div.formula"), "--show-matrices"),
        ("eval", "--quiver", fx("a2.quiver"), "--rep", fx("a2_zero.rep"),
         "--formula", fx("div.formula"), "--json"),
        ("pair-value", "--quiver", fx("a2.quiver"),
         "--rep", fx("a2_double.rep"), "--pair", fx("div.pp")),
        ("closed", "--quiver", fx("a2.quiver"), "--rep", fx("a2_iso.rep"),
         "--pair", fx("div.pp")),
        ("closed", "--quiver", fx("a2.quiver"), "--rep", fx("a2_zero.rep"),
         "--pair", fx("div.pp"), "--json"),
        ("implies-all", "--quiver", fx("a2.quiver"), "--ring", "Q",
         "--formula", fx("triv2.formula"), "--formula", fx("div.formula")),
        ("hom", "--quiver", fx("a2.quiver"), "--ring", "Q",
         "--formula", fx("triv2.formula"), "--formula", fx("triv2.formula"),
         "--show-matrices"),
        ("kernel-member", "--quiver", fx("a2.quiver"),
         "--rep", fx("a2_iso.rep"), "--pair", fx("div.pp")),
        ("kernel-member", "--quiver", fx("a2.quiver"), "--ring", "Q",
         "--axioms", fx("probes.pps"), "--budget", "2",
         "--pair", fx("div.pp")),
        ("morphism-check", "--quiver", fx("a2.quiver"), "--ring", "Q",
         "--theta", fx("theta_a.formula"), "--src", fx("delta1.pp"),
         "--tgt", fx("delta2.pp")),
        ("quotient-equal", "--quiver", fx("a2.quiver"),
         "--rep", fx("a2_zero.rep"), "--theta", fx("theta_a.formula"),
         "--theta2", fx("theta_zero.formula"), "--src", fx("delta1.pp"),
         "--tgt", fx("delta2.pp")),
        ("same-theory", "--quiver", fx("a2.quiver"),
         "--rep", fx("a2_iso.rep"), "--rep2", fx("a2_zero.rep"),
         "--probes", fx("probes.pps"), "--json"),
        ("nori-build", "--pairs", fx("disc.pairs"), "--dmax", "2"),
        ("nori-homology", "--pairs", fx("disc.pairs"), "--ring", "Z",
         "--dmax", "2", "--show-matrices"),
        ("nori-homology", "--pairs", fx("klein.pairs"), "--ring", "Z",
         "--dmax", "2", "--json"),
        ("nori-homology", "--pairs", fx("circle.pairs"), "--ring", "Z",
         "--dmax", "1"),
        ("les-check", "--pairs", fx("disc.pairs"), "--ring", "Z",
         "--dmax", "2", "--triple", "t"),
    ]
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv

    quiver = parse_quiver(open(fx("a2.quiver")).read())
    dumps = [
        (("eval", "--quiver", fx("a2.quiver"), "--rep", fx("a2_iso.rep"),
          "--formula", fx("div.formula"), "--dump"),
         lambda text: parse_formula(text.strip(), quiver, QQ)),
        (("closed", "--quiver", fx("a2.quiver"), "--rep", fx("a2_iso.rep"),
          "--pair", fx("div.pp"), "--dump"),
         lambda text: parse_pair_file(text, quiver, QQ)),
        (("nori-build", "--pairs", fx("disc.pairs"), "--dmax", "2",
          "--dump"), parse_quiver),
    ]
    reparsed = 0
    for argv, parser_fn in dumps:
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        twice = main(list(argv))
        out2 = capsys.readouterr().out
        assert out == out2
        parser_fn(out)
        reparsed += 1
    # nori-homology dump re-parses against the dumped diagram quiver
    code = main(["nori-build", "--pairs", fx("disc.pairs"), "--dmax", "2",
                 "--dump"])
    diagram_quiver = parse_quiver(capsys.readouterr().out)
    code = main(["nori-homology", "--pairs", fx("disc.pairs"), "--ring",
                 "Z", "--dmax", "2", "--dump"])
    rep_text = capsys.readouterr().out
    rep = parse_representation(rep_text, diagram_quiver)
    assert rep.fiber("XY_h2").invariants() == QuotientInvariants(1)
    reparsed += 1
    report(9, "%d commands byte-identical, %d dumps re-parsed"
           % (len(commands), reparsed))
