"""Acceptance suite: one test per contracted criterion.

Every residual is required to be exactly zero (the scalars are exact
cyclotomic numbers, so there are no tolerances anywhere), and each criterion
carries the agreed wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion PASS lines).
"""

import itertools
import random
import time
from fractions import Fraction

from uqb2 import expr, isoclass, lattice, linalg, repmod, structure, torus
from uqb2.cyclotomic import field_init
from uqb2.pbw import PBWAlgebra

from conftest import _algebra, _context


def _report(num, name, t0, budget):
    elapsed = time.time() - t0
    print("ACCEPTANCE %02d %s: PASS (%.2fs, budget %ds)" % (num, name, elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %ds budget: %.2fs" % (num, budget, elapsed)


def test_acceptance_01_presentation_consistency():
    t0 = time.time()
    for m in (5, 6, 7, 8, 12):
        res = _algebra(m).serre_residuals()
        assert res["degree3"].is_zero(), m
        assert res["degree4"].is_zero(), m
    _report(1, "serre relations normal-form to zero", t0, 1)


def test_acceptance_02_power_commutation_identities():
    t0 = time.time()
    for m in (5, 6, 7, 8):
        alg = _algebra(m)
        top = 2 * alg.ctx.l
        for index in (1, 2, 3, 4):
            for k in range(2 if index == 4 else 1, top + 1):
                assert alg.power_commutation_identity(index, k).is_zero(), (m, index, k)
    _report(2, "power-commutation identities vanish", t0, 5)


def test_acceptance_03_central_elements():
    t0 = time.time()
    for m in (5, 6, 8):
        alg = _algebra(m)
        l = alg.ctx.l
        e1 = alg.generator("e1")
        e2 = alg.generator("e2")
        e3 = alg.generator("e3")
        assert alg.is_central(e1 ** l)
        assert alg.is_central(e2 ** l)
        assert alg.is_central(e3 ** l)
        assert alg.is_central(alg.generator("z"))
        assert not alg.is_central(e1 ** (l - 1))
        assert not alg.is_central(e2 ** (l - 1))
        rep = structure.center_report(alg)
        assert all(rep["subalgebra_central"].values()), m
    _report(3, "central powers and subalgebra centrality", t0, 5)


def test_acceptance_04_zt_power_identities():
    t0 = time.time()
    for m in (5, 6):
        alg = _algebra(m)
        pairs = structure.zt_power_identity(alg, 2 * alg.ctx.l)
        assert len(pairs) == 2 * alg.ctx.l, m
        for a, (r1, r2) in enumerate(pairs, 1):
            assert r1.is_zero(), (m, a)
            assert r2.is_zero(), (m, a)
    _report(4, "zt power-commutation identities vanish", t0, 2)


def test_acceptance_05_torus_embedding():
    t0 = time.time()
    comparisons = {}
    for m in (5, 6, 7, 8, 12):
        rep = torus.verify_embedding(_context(m))
        for name, residual in rep["residuals"].items():
            assert residual.is_zero(), (m, name)
        comparisons[m] = rep["zp_image_matches"]
    # the bracket-image comparison is computed and reported, not asserted
    print("   embedded bracket vs X2X4X1 by m:", comparisons)
    _report(5, "torus realization preserves all relations", t0, 2)


def test_acceptance_06_pi_degree():
    t0 = time.time()
    for name in ("uqb2", "balg"):
        H = lattice.NAMED_MATRICES[name]
        assert lattice.smith_normal_form(H).diag == (2, 2, 0, 0), name
        for m in range(5, 17):
            l = m if m % 2 else m // 2
            assert lattice.pi_degree(H, m) == l, (name, m)
    assert lattice.pi_degree(lattice.NAMED_MATRICES["uqb2"], 5) == 5
    assert lattice.pi_degree(lattice.NAMED_MATRICES["uqb2"], 6) == 3
    assert lattice.pi_degree(lattice.NAMED_MATRICES["uqb2"], 8) == 4
    assert lattice.pi_degree(lattice.NAMED_MATRICES["uqb2"], 12) == 6
    _report(6, "invariant factors (2,2,0,0) and PI degree l", t0, 1)


def test_acceptance_07_affine_center_hilbert_basis():
    t0 = time.time()
    H = lattice.NAMED_MATRICES["qaspace"]
    for l in (3, 5):
        got = lattice.nonneg_hilbert_basis(H, l)
        want = sorted(
            [(l, 0, 0, 0), (0, l, 0, 0), (0, 0, l, 0), (0, 0, 0, 1), (1, 1, 1, 0)]
        )
        assert got == want, l
    _report(7, "kernel semigroup generators reproduce the center", t0, 5)


def test_acceptance_08_center_generators():
    t0 = time.time()
    for m in (5, 6, 8, 12):
        alg = _algebra(m)
        z1 = structure.named(alg, "z_one")
        assert alg.is_central(z1), m
        assert z1 == structure.z_one_ordered_form(alg), m
    _report(8, "z1 central and both displayed forms agree", t0, 2)


def _parameter_tuples(ctx, family, count=5):
    q = ctx.q
    half = ctx.from_fraction(Fraction(1, 2))
    nz = [ctx.one, q, q ** 2, ctx.from_int(2), q + 1, half, q ** 3, ctx.from_int(-1)]
    anything = nz + [ctx.zero]
    arity = {"V1": 4, "V2": 3, "V3": 2, "V1p": 4, "V2p": 3, "V3p": 2, "V4p": 3}[family]
    rng = random.Random((ctx.m, family).__repr__())
    out = []
    for _ in range(count):
        vals = []
        for slot in range(arity):
            free = (family in ("V1", "V1p") and slot == 3) or (
                family == "V4p" and slot >= 1
            )
            vals.append(rng.choice(anything if free else nz))
        out.append(repmod.module_params(ctx, family, *vals))
    return out


def test_acceptance_09_module_relation_suites():
    t0 = time.time()
    for m in (5, 6, 7, 8, 12):
        ctx = _context(m)
        for family in repmod.FAMILIES:
            expected_dim = repmod.module_dimension(ctx, family)
            if family in ("V3", "V3p"):
                assert expected_dim == ctx.ord_q_pow(4)
                if m == 8:
                    assert expected_dim == 2
            else:
                assert expected_dim == ctx.l
            for params in _parameter_tuples(ctx, family):
                rep = repmod.build(ctx, params)
                assert rep.dim == expected_dim
                verdict = repmod.verify_relations(rep)
                assert verdict["all_zero"], (m, family, params)
                cert = repmod.is_simple(rep)
                assert cert.simple and cert.span_dim == rep.dim ** 2, (m, family, params)
    _report(9, "all families: relations, dimensions, simplicity", t0, 60)


def test_acceptance_10_annihilation_pattern():
    t0 = time.time()
    for m in (5, 8):
        ctx = _context(m)
        for family in ("V1p", "V2p", "V3p", "V4p"):
            for params in _parameter_tuples(ctx, family, count=3):
                flags = {
                    k: bool(v)
                    for k, v in repmod.central_character(repmod.build(ctx, params)).items()
                }
                if family == "V1p":
                    assert flags["e1^l"] and flags["e3^l"], (m, params)
                elif family == "V2p":
                    assert not flags["e1^l"] and flags["e3^l"] and flags["zt^l"], (m, params)
                elif family == "V3p":
                    assert not flags["e1^l"] and not flags["zt^l"] and flags["e3^l"], (m, params)
                else:
                    assert not flags["e3^l"], (m, params)
    _report(10, "annihilation pattern of the four families", t0, 5)


def test_acceptance_11_classification_agreement():
    t0 = time.time()
    ctx = _context(5)
    rng = random.Random(2024)
    q = ctx.q_pow
    checked = 0
    for family in ("V1p", "V2p", "V3p", "V4p"):
        pairs = []
        for _ in range(20):
            pairs.append((_rand(ctx, rng, family), _rand(ctx, rng, family)))
        for _ in range(20):
            base = _rand(ctx, rng, family)
            pairs.append((_twin(ctx, rng, base), base))
        for _ in range(12):
            base = _rand(ctx, rng, family)
            pairs.append((_near_miss(ctx, rng, base), base))
        assert len(pairs) >= 50
        for pa, pb in pairs:
            verdict = isoclass.iso_predicate(ctx, pa, pb)
            T = isoclass.find_intertwiner(repmod.build(ctx, pa), repmod.build(ctx, pb))
            assert verdict.isomorphic == (T is not None), (family, pa, pb)
            if T is not None:
                assert isoclass.intertwines(repmod.build(ctx, pa), repmod.build(ctx, pb), T)
            checked += 1
    # the explicit shift map is itself an intertwiner
    p2 = repmod.module_params(ctx, "V1p", q(2), 1, 1, 0)
    p1 = repmod.module_params(ctx, "V1p", q(4), q(-6), 1, ctx.q_bracket(3, -4))
    verdict = isoclass.iso_predicate(ctx, p1, p2)
    assert verdict.isomorphic and verdict.witness_p == 3
    T = isoclass.explicit_shift_intertwiner(ctx, p1, p2, 3)
    assert isoclass.intertwines(repmod.build(ctx, p1), repmod.build(ctx, p2), T)
    print("   classification pairs checked:", checked)
    _report(11, "iso predicate agrees with intertwiner solver", t0, 120)


def _rand(ctx, rng, family):
    nz = [ctx.one, ctx.q, ctx.q_pow(2), ctx.q_pow(3), ctx.from_int(2),
          ctx.from_int(-1), ctx.q + 1, ctx.from_fraction(Fraction(1, 2))]
    anything = nz + [ctx.zero]
    arity = {"V1p": 4, "V2p": 3, "V3p": 2, "V4p": 3}[family]
    vals = []
    for slot in range(arity):
        free = (family == "V1p" and slot == 3) or (family == "V4p" and slot >= 1)
        vals.append(rng.choice(anything if free else nz))
    return repmod.module_params(ctx, family, *vals)


def _twin(ctx, rng, base):
    """Parameters isomorphic to ``base`` through the matching equations."""
    q = ctx.q_pow
    p = rng.randrange(ctx.l)
    s = rng.randrange(ctx.l)
    fam = base.family
    if fam == "V1p":
        return repmod.module_params(
            ctx, fam, q(2 * s) * base.alpha, q(-2 * p) * base.beta, base.gamma,
            base.delta + ctx.q_bracket(p, -4) * base.beta * base.beta,
        )
    if fam == "V2p":
        return repmod.module_params(ctx, fam, q(2 * s) * base.alpha, base.beta, base.gamma)
    if fam == "V3p":
        return repmod.module_params(ctx, fam, base.alpha, base.beta)
    return repmod.module_params(ctx, fam, base.alpha, base.beta, base.gamma)


def _near_miss(ctx, rng, base):
    """q-power twists on rigid parameters; engineered negatives."""
    q = ctx.q_pow
    p = rng.randrange(1, ctx.l - 1)
    fam = base.family
    if fam == "V1p":
        return repmod.module_params(
            ctx, fam, base.alpha, q(-2 * p) * base.beta, base.gamma, base.delta
        )
    if fam == "V2p":
        return repmod.module_params(ctx, fam, base.alpha, q(2 * p) * base.beta, base.gamma)
    if fam == "V3p":
        return repmod.module_params(ctx, fam, q(2 * p) * base.alpha, base.beta)
    return repmod.module_params(
        ctx, fam, ctx.q_bracket(p + 1, 2) * base.alpha, q(-2 * p) * base.beta, base.gamma
    )


def test_acceptance_12_property_suite():
    t0 = time.time()
    alg = _algebra(5)
    ctx = alg.ctx
    rng = random.Random(77)

    def rand_el():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            while True:
                key = tuple(rng.randrange(5) for _ in range(4))
                if sum(key) <= 4:
                    break
            terms[key] = ctx.q_pow(rng.randrange(5)) * rng.randrange(-3, 4)
        return alg.element(terms)

    for _ in range(200):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a * b) * c == a * (b * c)

    gens = alg.generators()
    for _ in range(30):
        word = [gens[rng.randrange(4)] for _ in range(rng.randrange(2, 6))]
        left = alg.unit()
        for w in word:
            left = left * w
        right = alg.unit()
        for w in reversed(word):
            right = w * right
        assert left == right

    for _ in range(40):
        x = rand_el()
        assert expr.evaluate(expr.to_src(x), alg) == x

    for name in ("uqb2", "balg", "qaspace"):
        H = lattice.NAMED_MATRICES[name]
        snf = lattice.smith_normal_form(H)
        prod = [
            [sum(snf.U[i][k] * H[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        prod = [
            [sum(prod[i][k] * snf.V[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        assert tuple(tuple(r) for r in prod) == snf.D
        assert abs(lattice.determinant(snf.U)) == 1
        assert abs(lattice.determinant(snf.V)) == 1
    for _ in range(40):
        n = rng.randrange(1, 5)
        H = [[rng.randrange(-7, 8) for _ in range(n)] for _ in range(n)]
        snf = lattice.smith_normal_form(H)
        assert abs(lattice.determinant(snf.U)) == 1
        assert abs(lattice.determinant(snf.V)) == 1

    _report(12, "associativity, confluence, round-trip, SNF", t0, 30)
