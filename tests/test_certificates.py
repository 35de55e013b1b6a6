"""The modular certificates of is_simple and find_intertwiner against the
exact computations they stand in front of.

A full rank mod p proves full rank over Q(zeta_m), and a spun eigenvector
decides an intertwiner; every other outcome must fall back to the exact
path, which alone reports a span below d*d.
"""

from fractions import Fraction

import pytest

from uqb2 import isoclass, linalg, repmod
from uqb2.cyclotomic import residue_map

MS = (5, 6, 7, 8, 12)


def _params(ctx, family):
    q = ctx.q
    return {
        "V1": [(1, 1, 1, 0), (q, q ** 2, 2, q ** 3)],
        "V2": [(1, 1, 1), (q ** 2, 2, q)],
        "V3": [(1, 1), (q, 2)],
        "V1p": [(1, 1, 1, 0), (q, q ** 2, 2, q ** 3)],
        "V2p": [(1, 1, 1), (q ** 2, 2, q)],
        "V3p": [(1, 1), (q, 2)],
        "V4p": [(1, 1, 0), (q, 0, q ** 2)],
    }[family]


def _module(ctx, family, vals):
    return repmod.build(ctx, repmod.module_params(ctx, family, *vals))


def _exact_span(rep):
    return repmod.word_span(list(rep.act.values()), start=repmod.identity_word(rep.dim, rep.ctx.one))


def _exact_solutions(r1, r2):
    rows = isoclass._system_rows(r1.act, r2.act, r1.dim)
    return linalg.nullspace(rows, r1.dim ** 2, r1.ctx)


def _as_matrix(vec, d):
    return [{j: vec[i * d + j] for j in range(d) if i * d + j in vec} for i in range(d)]


@pytest.mark.parametrize("m", MS)
def test_modular_simplicity_matches_exact_span(context_factory, m):
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for vals in _params(ctx, family):
            rep = _module(ctx, family, vals)
            cert = repmod.is_simple(rep)
            assert cert == repmod.SimplicityCertificate(True, rep.dim ** 2, "modular")
            assert _exact_span(rep) == cert.span_dim, (m, family, vals)


@pytest.mark.parametrize("m", MS)
def test_modular_intertwiner_verdict_matches_exact(context_factory, m):
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        first, second = _params(ctx, family)
        r1, r2 = _module(ctx, family, first), _module(ctx, family, second)
        # distinct parameters: ruled out by the spin, and the exact system agrees
        assert isoclass._spin_intertwiner(r1, r2) == (True, None), (m, family)
        assert isoclass.find_intertwiner(r1, r2) is None
        assert _exact_solutions(r1, r2) == []
        # equal parameters: the spin finds T, the one exact solution
        decided, T = isoclass._spin_intertwiner(r1, r1)
        assert decided and T is not None and isoclass.intertwines(r1, r1, T)
        assert isoclass.find_intertwiner(r1, r1) == T
        assert len(_exact_solutions(r1, r1)) == 1


@pytest.mark.parametrize("m", (5, 8, 12))
def test_direct_sums_report_exact_spans(context_factory, m):
    # the summand certificate against the exact closure of the same sum
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        first, second = _params(ctx, family)
        M, N = _module(ctx, family, first), _module(ctx, family, second)
        d = M.dim
        for other, span in ((M, d * d), (N, 2 * d * d)):
            total = repmod.direct_sum(M, other)
            cert = repmod.is_simple(total)
            assert cert == repmod.SimplicityCertificate(False, span, "summands"), (m, family)
            assert _exact_span(total) == span, (m, family)


def _summand_cert_matches_exact(M, N, span):
    total = repmod.direct_sum(M, N)
    assert repmod.is_simple(total) == repmod.SimplicityCertificate(False, span, "summands")
    assert _exact_span(total) == span


def _isomorphic_v1p_pair(ctx, family="V1p"):
    # the V1 witness equations at p = 1: beta1 = q^-2 beta2 and
    # delta1 = delta2 + [1]_(-4) beta2^2
    q = ctx.q
    M = _module(ctx, family, (q, 1, 1, 0))
    N = _module(ctx, family, (q, q ** 2, 1, -ctx.q_bracket(1, -4) * q ** 4))
    assert isoclass.iso_predicate(ctx, M.params, N.params).witness_p == 1
    assert M.act != N.act
    return M, N


def test_summands_of_different_dimension(context_factory):
    ctx = context_factory(8)
    M, N = _module(ctx, "V1", (1, 1, 1, 0)), _module(ctx, "V3", (1, 1))
    assert (M.dim, N.dim) == (4, 2)
    _summand_cert_matches_exact(M, N, 20)


def test_isomorphic_summands_with_unequal_matrices(context_factory):
    ctx = context_factory(5)
    M, N = _isomorphic_v1p_pair(ctx)
    _summand_cert_matches_exact(M, N, M.dim ** 2)


def test_summands_equal_mod_p_not_isomorphic(context_factory):
    ctx = context_factory(5)
    p, _ = residue_map(5)
    M, N = _module(ctx, "V4p", (p, 0, 0)), _module(ctx, "V4p", (2 * p, 0, 0))
    _summand_cert_matches_exact(M, N, 2 * M.dim ** 2)


def test_nested_sum_runs_the_closure(context_factory):
    ctx = context_factory(8)
    M, N = _module(ctx, "V3", (1, 1)), _module(ctx, "V3", (ctx.q, 2))
    total = repmod.direct_sum(repmod.direct_sum(M, M), N)
    d = M.dim
    assert repmod.is_simple(total) == repmod.SimplicityCertificate(False, 2 * d * d, "exact")
    assert _exact_span(total) == 2 * d * d


def test_wrong_isomorphism_verdict_is_caught(context_factory, monkeypatch):
    # a solver that misses the intertwiner makes the certificate disagree with
    # the exact closure
    ctx = context_factory(5)
    M, N = _isomorphic_v1p_pair(ctx)
    monkeypatch.setattr(isoclass, "find_intertwiner", lambda r1, r2: None)
    total = repmod.direct_sum(M, N)
    assert repmod.is_simple(total).span_dim == 2 * M.dim ** 2
    assert _exact_span(total) == M.dim ** 2


@pytest.mark.parametrize("m", (5, 8))
def test_parameter_with_denominator_p_falls_back(context_factory, m):
    ctx = context_factory(m)
    p, _ = residue_map(m)
    small = Fraction(1, p)
    rep = _module(ctx, "V1p", (1, 1, small, 0))
    assert repmod.residue_action(rep) is None
    cert = repmod.is_simple(rep)
    assert cert == repmod.SimplicityCertificate(True, rep.dim ** 2, "exact")
    other = _module(ctx, "V1p", (1, 1, 2 * small, 0))
    # no residues, so nothing is decided mod p
    assert isoclass._spin_intertwiner(rep, other) == (False, None)
    assert isoclass.find_intertwiner(rep, other) is None
    T = isoclass.find_intertwiner(rep, rep)
    assert T is not None and isoclass.intertwines(rep, rep, T)


def test_span_lost_mod_p_falls_back(context_factory, system_rows_calls):
    # alpha = p vanishes mod p, and with it every entry of V4p but the
    # nilpotent shift in e2: the span mod p stays below d*d, the exact one
    # does not
    ctx = context_factory(5)
    p, _ = residue_map(5)
    rep = _module(ctx, "V4p", (p, 0, 0))
    reduced_p, act = repmod.residue_action(rep)
    d = rep.dim
    assert repmod.word_span(list(act.values()), reduced_p) < d * d
    assert repmod.is_simple(rep) == repmod.SimplicityCertificate(True, d * d, "exact")
    # equal mod p, not isomorphic over the field
    other = _module(ctx, "V4p", (2 * p, 0, 0))
    assert isoclass._spin_intertwiner(rep, other) == (False, None)
    assert isoclass.find_intertwiner(rep, other) is None
    assert not isoclass.iso_predicate(ctx, rep.params, other.params).isomorphic
    assert len(system_rows_calls) == 1


def _pairs(ctx, family):
    modules = [_module(ctx, family, vals) for vals in _params(ctx, family)]
    pairs = [(a, b) for a in modules for b in modules]
    if family in ("V1", "V1p"):
        pairs.append(_isomorphic_v1p_pair(ctx, family))  # isomorphic, unequal matrices
    return pairs


@pytest.mark.parametrize("m", MS)
def test_family_pairs_never_reach_the_exact_system(context_factory, monkeypatch, m):
    def no_system(*args):
        raise AssertionError("the d*d-unknown system was built")

    monkeypatch.setattr(isoclass, "_system_rows", no_system)
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for r1, r2 in _pairs(ctx, family):
            T = isoclass.find_intertwiner(r1, r2)
            iso = isoclass.iso_predicate(ctx, r1.params, r2.params).isomorphic
            assert iso == (T is not None), (m, family, r1.params, r2.params)


@pytest.mark.parametrize("m", MS)
def test_spun_intertwiner_is_the_scaled_exact_solution(context_factory, m):
    # the one basis vector of the exact solution space has last nonzero
    # entry 1 in row-major order, and T must be that vector, byte for byte
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for r1, r2 in _pairs(ctx, family):
            T = isoclass.find_intertwiner(r1, r2)
            if T is not None:
                (vec,) = _exact_solutions(r1, r2)
                assert T == _as_matrix(vec, r1.dim), (m, family)
