import random
from fractions import Fraction

import pytest

from uqb2 import conformance, isoclass, linalg, repmod
from uqb2.cyclotomic import residue_map


def _pool(ctx, rng, allow_zero=False):
    choices = [
        ctx.one,
        ctx.q,
        ctx.q_pow(2),
        ctx.q_pow(3),
        ctx.from_int(2),
        ctx.from_int(-1),
        ctx.q + 1,
        ctx.from_fraction(Fraction(1, 2)),
    ]
    if allow_zero:
        choices.append(ctx.zero)
    return rng.choice(choices)


def _random_params(ctx, rng, family):
    arity = {"V1": 4, "V2": 3, "V3": 2, "V1p": 4, "V2p": 3, "V3p": 2, "V4p": 3}[family]
    vals = []
    for i in range(arity):
        allow_zero = (family in ("V1", "V1p") and i == 3) or (family == "V4p" and i >= 1)
        vals.append(_pool(ctx, rng, allow_zero))
    return repmod.module_params(ctx, family, *vals)


def _engineered_partner(ctx, rng, params):
    """A parameter tuple isomorphic to ``params`` by the matching equations."""
    q = ctx.q_pow
    fam = params.family
    p = rng.randrange(ctx.l)
    s = rng.randrange(ctx.l)
    if fam in ("V1", "V1p"):
        return repmod.module_params(
            ctx, fam, q(2 * s) * params.alpha, q(-2 * p) * params.beta, params.gamma,
            params.delta + ctx.q_bracket(p, -4) * params.beta * params.beta,
        ), p
    if fam in ("V2", "V2p"):
        return repmod.module_params(ctx, fam, q(2 * s) * params.alpha, params.beta, params.gamma), s
    if fam in ("V3", "V3p"):
        return repmod.module_params(ctx, fam, params.alpha, params.beta), 0
    return repmod.module_params(ctx, fam, params.alpha, params.beta, params.gamma), 0


def test_self_isomorphism(context_factory):
    ctx = context_factory(5)
    p = repmod.module_params(ctx, "V1p", ctx.q, 2, 1, ctx.q_pow(2))
    v = isoclass.iso_predicate(ctx, p, p)
    assert v.isomorphic and v.witness_p == 0


def test_engineered_v1p_shift(context_factory):
    ctx = context_factory(5)
    p2 = repmod.module_params(ctx, "V1p", 1, 1, 1, 0)
    p1 = repmod.module_params(
        ctx, "V1p", 1, ctx.q_pow(-2), 1, ctx.q_bracket(1, -4)
    )
    v = isoclass.iso_predicate(ctx, p1, p2)
    assert v.isomorphic and v.witness_p == 1


def test_gamma_mismatch(context_factory):
    ctx = context_factory(5)
    a = repmod.module_params(ctx, "V2p", 1, 1, 1)
    b = repmod.module_params(ctx, "V2p", 1, 1, ctx.q)
    assert not isoclass.iso_predicate(ctx, a, b).isomorphic


def test_cross_family_never_isomorphic(context_factory):
    ctx = context_factory(5)
    a = repmod.module_params(ctx, "V1p", 1, 1, 1, 0)
    b = repmod.module_params(ctx, "V4p", 1, 1, 0)
    assert not isoclass.iso_predicate(ctx, a, b).isomorphic
    assert isoclass.find_intertwiner(repmod.build(ctx, a), repmod.build(ctx, b)) is None


def test_identity_intertwiner_for_equal_modules(context_factory):
    ctx = context_factory(5)
    p = repmod.module_params(ctx, "V2p", 1, 1, 1)
    r = repmod.build(ctx, p)
    T = isoclass.find_intertwiner(r, r)
    assert T is not None
    assert isoclass.intertwines(r, r, T)


def test_dimension_mismatch_is_not_isomorphic(context_factory):
    ctx = context_factory(8)  # V3p has dim 2, V1p has dim 4
    a = repmod.build(ctx, repmod.module_params(ctx, "V3p", 1, 1))
    b = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    assert isoclass.find_intertwiner(a, b) is None


@pytest.mark.parametrize("family", ["V1p", "V2p", "V3p", "V4p", "V1", "V2", "V3"])
def test_predicate_agrees_with_solver(context_factory, family):
    ctx = context_factory(5)
    rng = random.Random(hash(family) & 0xFFFF)
    for _ in range(6):
        pa = _random_params(ctx, rng, family)
        pb = _random_params(ctx, rng, family)
        verdict = isoclass.iso_predicate(ctx, pa, pb)
        T = isoclass.find_intertwiner(repmod.build(ctx, pa), repmod.build(ctx, pb))
        assert verdict.isomorphic == (T is not None)
        pe, _ = _engineered_partner(ctx, rng, pa)
        verdict = isoclass.iso_predicate(ctx, pe, pa)
        T = isoclass.find_intertwiner(repmod.build(ctx, pe), repmod.build(ctx, pa))
        assert verdict.isomorphic and T is not None
        assert isoclass.intertwines(repmod.build(ctx, pe), repmod.build(ctx, pa), T)


def test_q_shifted_near_misses_are_negative(context_factory):
    # q-power twists on the wrong parameter are not isomorphisms, and the
    # solver confirms it
    ctx = context_factory(5)
    q = ctx.q_pow
    cases = []
    base = repmod.module_params(ctx, "V2p", 1, 2, 1)
    cases.append((repmod.module_params(ctx, "V2p", 1, q(2) * base.beta, 1), base))
    base3 = repmod.module_params(ctx, "V3p", 2, 1)
    cases.append((repmod.module_params(ctx, "V3p", q(2) * base3.alpha, 1), base3))
    base4 = repmod.module_params(ctx, "V4p", 1, 1, 1)
    cases.append((
        repmod.module_params(ctx, "V4p", ctx.q_bracket(2, 2), q(-2), 1),
        base4,
    ))
    for pa, pb in cases:
        assert not isoclass.iso_predicate(ctx, pa, pb).isomorphic
        assert isoclass.find_intertwiner(repmod.build(ctx, pa), repmod.build(ctx, pb)) is None


def test_explicit_shift_map_is_an_intertwiner(context_factory):
    ctx = context_factory(5)
    p2 = repmod.module_params(ctx, "V1p", ctx.q, 1, 1, 0)
    p1 = repmod.module_params(
        ctx, "V1p", ctx.q_pow(3), ctx.q_pow(-4), 1, ctx.q_bracket(2, -4)
    )
    verdict = isoclass.iso_predicate(ctx, p1, p2)
    assert verdict.isomorphic and verdict.witness_p == 2
    r1, r2 = repmod.build(ctx, p1), repmod.build(ctx, p2)
    T = isoclass.explicit_shift_intertwiner(ctx, p1, p2, verdict.witness_p)
    assert isoclass.intertwines(r1, r2, T)
    # solution space is one-dimensional, so the solver solution is a multiple
    S = isoclass.find_intertwiner(r1, r2)
    assert S is not None
    # dense views: the matrices hold their nonzero entries only
    T, S = ([[row.get(j, ctx.zero) for j in range(r1.dim)] for row in M] for M in (T, S))
    ratio = None
    for i in range(r1.dim):
        for j in range(r1.dim):
            if T[i][j]:
                ratio = S[i][j] / T[i][j]
                break
        if ratio is not None:
            break
    for i in range(r1.dim):
        for j in range(r1.dim):
            assert S[i][j] == ratio * T[i][j]


def test_verdict_carries_intertwiner(context_factory):
    ctx = context_factory(5)
    p = repmod.module_params(ctx, "V4p", 1, 1, 1)
    v = isoclass.isomorphism_verdict(ctx, p, p)
    assert v.isomorphic and v.intertwiner is not None


@pytest.mark.parametrize("m", [5, 8])
@pytest.mark.parametrize("family", ["V1p", "V2p", "V3p", "V4p"])
def test_intertwiner_of_a_sum_of_two_simples_is_a_combination(context_factory,
                                                               exact_spin_calls, m, family):
    # End(A + B) for simple A, B that are not isomorphic is spanned by the two
    # projections, both singular, so T combines them; the spin of one
    # eigenvector stays inside one summand, so the summands decide, mod p
    ctx = context_factory(m)
    pa, pb = conformance._sample_params(ctx, family)
    S = repmod.direct_sum(repmod.build(ctx, pa), repmod.build(ctx, pb))
    assert isoclass._spin_intertwiner(S, S, residue_map(m)[0]) == (False, None)
    T = isoclass.find_intertwiner(S, S)
    assert exact_spin_calls == []
    assert T is not None
    assert isoclass.intertwines(S, S, T)
    assert linalg.is_invertible(T)
