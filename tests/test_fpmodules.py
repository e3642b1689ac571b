import random

import pytest

from abquiver.errors import CyclicQuiverUnsupported, EngineError, MismatchError
from abquiver.formulas import PpFormula, evaluate, implies_all
from abquiver import fpmodules
from abquiver.fpmodules import (ElementTuple, FpModule, FpMorphism,
                                UnderlyingData, element_satisfies,
                                free_realization, hom_basis)
from abquiver.quivers import AlgebraElement, Path, Quiver, TypedMatrix
from abquiver.scalars import GF, QQ, ZZ

from gens import (A2, A3, random_formula, random_formula_on_context,
                  random_representation, all_representations)


def simple_s1(ring):
    a_el = AlgebraElement.of_arrow(A2, ring, "a")
    h = TypedMatrix(A2, ring, ("2",), ("1",), [[a_el]])
    return FpModule(A2, ring, h)


def divisibility_formula(ring):
    a_el = AlgebraElement.of_arrow(A2, ring, "a")
    e2 = AlgebraElement.vertex_identity(A2, ring, "2")
    mat_a = TypedMatrix(A2, ring, ("2",), ("2",), [[e2.neg()]])
    mat_b = TypedMatrix(A2, ring, ("2",), ("1",), [[a_el]])
    return PpFormula(A2, ring, (("x", "2"),), (("y", "1"),), mat_a, mat_b)


def test_underlying_data_representables():
    assert UnderlyingData(
        FpModule.representable(A2, QQ, "2")).dimension_vector() == (0, 1)
    data = UnderlyingData(FpModule.representable(A2, QQ, "1"))
    assert data.dimension_vector() == (1, 1)
    paths = {p.arrows for _, p in data.coords["2"]}
    assert paths == {("a",)}


def test_underlying_data_simple_module():
    assert UnderlyingData(simple_s1(QQ)).dimension_vector() == (1, 0)


def test_cyclic_quiver_unsupported():
    loop = Quiver(["1"], [("l", "1", "1")])
    mod = FpModule.representable(loop, QQ, "1")
    with pytest.raises(CyclicQuiverUnsupported):
        UnderlyingData(mod)


def test_hom_basis_examples():
    p1 = FpModule.representable(A2, QQ, "1")
    p2 = FpModule.representable(A2, QQ, "2")
    assert len(hom_basis(p1, p1)) == 1
    assert len(hom_basis(simple_s1(QQ), p2)) == 0
    assert len(hom_basis(p1, FpModule.zero(A2, QQ))) == 0


def test_hom_basis_yoneda():
    # dim Hom(P_v, N) equals the sort-v dimension of N.
    rng = random.Random(41)
    for _ in range(20):
        quiver = rng.choice([A2, A3])
        n_gens = rng.randint(1, 2)
        n_rels = rng.randint(0, 2)
        gens = tuple(rng.choice(quiver.vertices) for _ in range(n_gens))
        rels = tuple(rng.choice(quiver.vertices) for _ in range(n_rels))
        from gens import random_typed_matrix
        h = random_typed_matrix(rng, quiver, QQ, rels, gens)
        module = FpModule(quiver, QQ, h)
        data = UnderlyingData(module)
        for v in quiver.vertices:
            pv = FpModule.representable(quiver, QQ, v)
            assert len(hom_basis(pv, module)) == data.fiber_dim(v)


def test_hom_basis_builds_target_data_once(monkeypatch):
    # The field kernel that hom_basis solves already certifies every basis
    # element, so no element rebuilds the target's data to re-check it.
    built = []
    original = UnderlyingData.__init__

    def counting(self, module):
        built.append(module)
        original(self, module)
    rng = random.Random(47)
    from gens import random_typed_matrix
    sizes = []
    for _ in range(12):
        quiver = rng.choice([A2, A3])
        modules = []
        for _ in range(2):
            gens = tuple(rng.choice(quiver.vertices)
                         for _ in range(rng.randint(1, 2)))
            rels = tuple(rng.choice(quiver.vertices)
                         for _ in range(rng.randint(0, 2)))
            h = random_typed_matrix(rng, quiver, QQ, rels, gens)
            modules.append(FpModule(quiver, QQ, h))
        source, target = modules
        monkeypatch.setattr(fpmodules.UnderlyingData, "__init__", counting)
        del built[:]
        basis = hom_basis(source, target)
        assert built == [target]
        monkeypatch.undo()
        for h in basis:
            FpMorphism(source, target, h.matrix)  # certifies on its own
        sizes.append(len(basis))
    assert max(sizes) > 0


def test_hom_basis_requires_field():
    p1 = FpModule.representable(A2, ZZ, "1")
    with pytest.raises(EngineError):
        hom_basis(p1, p1)


def test_fpmorphism_certification():
    p1 = FpModule.representable(A2, QQ, "1")
    s1 = simple_s1(QQ)
    # P_1 -> S_1 (quotient map) is fine on generators.
    e1 = AlgebraElement.vertex_identity(A2, QQ, "1")
    ok = TypedMatrix(A2, QQ, ("1",), ("1",), [[e1]])
    FpMorphism(s1, s1, ok)  # identity on S_1 maps the relation a*g to 0
    # S_1 -> P_1 via identity-on-generators does not respect the relation.
    with pytest.raises(EngineError):
        FpMorphism(s1, p1, ok)


def test_free_realization_trivial_formulas():
    triv = PpFormula.trivial(A2, QQ, (("x", "1"),))
    module, witness = free_realization(triv)
    assert UnderlyingData(module).dimension_vector() == (1, 1)
    zero = PpFormula.zero(A2, QQ, (("x", "1"),))
    module0, witness0 = free_realization(zero)
    assert UnderlyingData(module0).dimension_vector() == (0, 0)


def test_free_realization_divisibility():
    module, witness = free_realization(divisibility_formula(QQ))
    data = UnderlyingData(module)
    assert data.dimension_vector() == (1, 1)
    assert data.element_value(witness) == (1,)


def test_element_satisfies_basics():
    phi = divisibility_formula(QQ)
    p2 = FpModule.representable(A2, QQ, "2")
    e2 = AlgebraElement.vertex_identity(A2, QQ, "2")
    gen = ElementTuple(p2, TypedMatrix(A2, QQ, ("2",), ("2",), [[e2]]))
    triv = PpFormula.trivial(A2, QQ, (("x", "2"),))
    assert element_satisfies(p2, gen, triv)
    # The generator of P_2 is not divisible by a.
    assert not element_satisfies(p2, gen, phi)
    # The zero tuple satisfies every pp formula.
    zero_tuple = ElementTuple(p2, TypedMatrix.zero(A2, QQ, ("2",), ("2",)))
    rng = random.Random(42)
    for _ in range(10):
        psi = random_formula_on_context(rng, A2, QQ, (("x", "2"),))
        assert element_satisfies(p2, zero_tuple, psi)


def test_context_mismatch():
    p2 = FpModule.representable(A2, QQ, "2")
    e2 = AlgebraElement.vertex_identity(A2, QQ, "2")
    gen = ElementTuple(p2, TypedMatrix(A2, QQ, ("2",), ("2",), [[e2]]))
    wrong = PpFormula.trivial(A2, QQ, (("x", "1"),))
    with pytest.raises(MismatchError):
        element_satisfies(p2, gen, wrong)


def module_from_representation(rep):
    """Present a finite-dimensional representation as an fp module:
    one generator per basis vector, relations a*g_s = sum T_a[t,s] g_t."""
    quiver, ring = rep.quiver, rep.ring
    gens = []
    gen_index = {}
    for v in quiver.vertices:
        for k in range(rep.fiber(v).dim):
            gen_index[(v, k)] = len(gens)
            gens.append(v)
    rows = []
    row_sorts = []
    for arrow in quiver.arrows:
        mat = rep.arrow_matrix(arrow.name)
        for s in range(rep.fiber(arrow.src).dim):
            row = [AlgebraElement.zero(quiver, ring, g, arrow.tgt)
                   for g in gens]
            idx = gen_index[(arrow.src, s)]
            row[idx] = row[idx].add(
                AlgebraElement.of_arrow(quiver, ring, arrow.name))
            for t in range(rep.fiber(arrow.tgt).dim):
                jdx = gen_index[(arrow.tgt, t)]
                coeff = ring.neg(mat.entries[t][s])
                row[jdx] = row[jdx].add(AlgebraElement(
                    quiver, ring, arrow.tgt, arrow.tgt,
                    {Path.identity(arrow.tgt): coeff}))
            rows.append(row)
            row_sorts.append(arrow.tgt)
    h = TypedMatrix(quiver, ring, tuple(row_sorts), tuple(gens), rows)
    return FpModule(quiver, ring, h), gen_index


def test_module_from_representation_roundtrip():
    rng = random.Random(43)
    for _ in range(10):
        quiver = rng.choice([A2, A3])
        rep = random_representation(rng, quiver, GF(2), max_dim=2)
        module, _ = module_from_representation(rep)
        data = UnderlyingData(module)
        for v in quiver.vertices:
            assert data.fiber_dim(v) == rep.fiber(v).dim


def test_free_realization_contract_brute_force():
    # phi(M) = { h(witness) : h in Hom(M_phi, M) } for every representation M
    # over F_2 with fiber dims <= 2, M presented as an fp module.
    rng = random.Random(44)
    f2 = GF(2)
    for _ in range(6):
        quiver = rng.choice([A2, A3])
        phi = random_formula(rng, quiver, f2, n_ctx=1, n_bound=1, n_eq=1)
        module, witness = free_realization(phi)
        reps = []
        # A small deterministic sample of representations.
        for _ in range(4):
            reps.append(random_representation(rng, quiver, f2, max_dim=2,
                                              coeff_range=(0, 1)))
        for rep in reps:
            target, gen_index = module_from_representation(rep)
            homs = hom_basis(module, target)
            target_data = UnderlyingData(target)
            realized = set()
            # All F_2 combinations of hom basis elements.
            for bits in range(2 ** len(homs)):
                coords = None
                total = None
                for k, h in enumerate(homs):
                    if not (bits >> k) & 1:
                        continue
                    moved = h.apply_to_tuple(witness)
                    val = target_data.element_value(moved)
                    total = val if total is None else tuple(
                        (x + y) % 2 for x, y in zip(total, val))
                if total is None:
                    total = tuple(0 for _ in range(sum(
                        target_data.fiber_dim(s) for s in phi.context_sorts)))
                realized.add(total)
            solutions = evaluate(phi, target_data.representation)
            # Enumerate the full solution subgroup.
            members = {tuple(0 for _ in range(solutions.ambient.dim))}
            for row in solutions.rows:
                members |= {tuple((x + y) % 2 for x, y in zip(m, row))
                            for m in members}
            assert realized == members


def test_implies_all_matches_brute_force_small():
    rng = random.Random(45)
    f2 = GF(2)
    reps_cache = {}
    for _ in range(12):
        quiver = rng.choice([A2, A3])
        phi = random_formula(rng, quiver, f2, n_ctx=1)
        psi = random_formula_on_context(rng, quiver, f2, phi.context)
        verdict = implies_all(phi, psi)
        if quiver not in reps_cache:
            reps_cache[quiver] = list(all_representations(quiver, f2, 1))
        brute = True
        for rep in reps_cache[quiver]:
            if not evaluate(psi, rep).contains(evaluate(phi, rep)):
                brute = False
                break
        if verdict:
            assert brute
        # dims <= 1 cannot refute all implications, so only check one way
        # here; the acceptance suite sweeps dims <= 2 exhaustively.


def test_implies_all_over_z_differs_from_q():
    # x = x  ->  EX y . 2y = x holds over Q but not over Z.
    for ring, expected in ((QQ, True), (ZZ, False)):
        e1 = AlgebraElement.vertex_identity(A2, ring, "1")
        two = AlgebraElement.vertex_identity(A2, ring, "1").scale(2)
        top = PpFormula.trivial(A2, ring, (("x", "1"),))
        psi = PpFormula(A2, ring, (("x", "1"),), (("y", "1"),),
                        TypedMatrix(A2, ring, ("1",), ("1",), [[e1.neg()]]),
                        TypedMatrix(A2, ring, ("1",), ("1",), [[two]]))
        assert implies_all(top, psi) is expected
