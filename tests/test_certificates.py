"""The modular certificates of is_simple and find_intertwiner against the
exact computations they stand in front of.

A full rank mod p proves full rank over Q(zeta_m), and a spun eigenvector
decides an intertwiner; every other outcome must fall back to the exact
path, which alone reports a span below d*d.  The intertwiners are checked
against the system in all d*d entries of T, written out densely here.
"""

import dataclasses
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
    """Basis of the T with A_g T = T B_g: row (g, i, j) of the system is
    entry (i, j) of A_g T - T B_g in the d*d unknowns T[k][j] = x[k*d + j]."""
    d = r1.dim
    rows = []
    for g in sorted(r1.act):
        A, B = ([[row.get(j, 0) for j in range(d)] for row in r.act[g]] for r in (r1, r2))
        for i in range(d):
            for j in range(d):
                row = {}
                for k in range(d):
                    row[k * d + j] = row.get(k * d + j, 0) + A[i][k]
                    row[i * d + k] = row.get(i * d + k, 0) - B[k][j]
                rows.append({c: v for c, v in row.items() if v})
    return linalg.nullspace(rows, d * d, r1.ctx)


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
    p, _ = residue_map(m)
    for family in repmod.FAMILIES:
        first, second = _params(ctx, family)
        r1, r2 = _module(ctx, family, first), _module(ctx, family, second)
        # distinct parameters: ruled out by the spin, and the exact system agrees
        assert isoclass._spin_intertwiner(r1, r2, p) == (True, None), (m, family)
        assert isoclass.find_intertwiner(r1, r2) is None
        assert _exact_solutions(r1, r2) == []
        # equal parameters: the spin finds T, the one exact solution
        decided, T = isoclass._spin_intertwiner(r1, r1, p)
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


def test_direct_sum_records_flat_summands(context_factory):
    ctx = context_factory(8)
    A, B, C = (_module(ctx, "V3", vals) for vals in ((1, 1), (ctx.q, 2), (2, 1)))
    S = repmod.direct_sum
    assert S(S(A, B), C).summands == (A, B, C)
    assert S(A, S(B, C)).summands == (A, B, C)


def test_nested_sum_is_decided_by_its_summands(context_factory):
    ctx = context_factory(8)
    M, N = _module(ctx, "V3", (1, 1)), _module(ctx, "V3", (ctx.q, 2))
    total = repmod.direct_sum(repmod.direct_sum(M, M), N)
    d = M.dim
    assert repmod.is_simple(total) == repmod.SimplicityCertificate(False, 2 * d * d, "summands")
    assert _exact_span(total) == 2 * d * d


def test_three_summands_with_an_isomorphic_pair(context_factory):
    # M and N are isomorphic with unequal matrices; z acts on A by gamma = 2,
    # on M and N by 1, so A is isomorphic to neither
    ctx = context_factory(5)
    M, N = _isomorphic_v1p_pair(ctx)
    A = _module(ctx, "V1p", _params(ctx, "V1p")[1])
    _summand_cert_matches_exact(A, repmod.direct_sum(M, N), A.dim ** 2 + M.dim ** 2)


def test_summand_rebuilt_without_its_summands_runs_the_closure(context_factory):
    # the rebuilt M + N is one summand that is not simple, so the summands
    # decide nothing
    ctx = context_factory(5)
    M, N = _isomorphic_v1p_pair(ctx)
    A = _module(ctx, "V1p", _params(ctx, "V1p")[1])
    rebuilt = dataclasses.replace(repmod.direct_sum(M, N), summands=())
    total = repmod.direct_sum(A, rebuilt)
    assert total.summands == (A, rebuilt)
    span = A.dim ** 2 + M.dim ** 2
    assert _exact_span(total) == span
    assert repmod.is_simple(total) == repmod.SimplicityCertificate(False, span, "exact")


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
def test_parameter_with_denominator_p_falls_back(context_factory, exact_spin_calls, m):
    ctx = context_factory(m)
    p, _ = residue_map(m)
    small = Fraction(1, p)
    rep = _module(ctx, "V1p", (1, 1, small, 0))
    assert repmod.residue_action(rep) is None
    cert = repmod.is_simple(rep)
    assert cert == repmod.SimplicityCertificate(True, rep.dim ** 2, "exact")
    other = _module(ctx, "V1p", (1, 1, 2 * small, 0))
    # no residues, so nothing is decided mod p
    assert isoclass._spin_intertwiner(rep, other, p) == (False, None)
    assert isoclass.find_intertwiner(rep, other) is None
    assert len(exact_spin_calls) == 1
    T = isoclass.find_intertwiner(rep, rep)
    assert T is not None and isoclass.intertwines(rep, rep, T)


def test_span_lost_mod_p_falls_back(context_factory, exact_spin_calls):
    # alpha = p vanishes mod p, and with it every entry of V4p but the
    # nilpotent shift in e2: the span mod p stays below d*d, the exact one
    # does not
    ctx = context_factory(5)
    p, _ = residue_map(5)
    rep = _module(ctx, "V4p", (p, 0, 0))
    reduced_p, act = repmod.residue_action(rep)
    d = rep.dim
    assert repmod.word_span(list(act.values()), repmod.identity_word(d, 1), reduced_p) < d * d
    assert repmod.is_simple(rep) == repmod.SimplicityCertificate(True, d * d, "exact")
    # equal mod p, not isomorphic over the field
    other = _module(ctx, "V4p", (2 * p, 0, 0))
    assert isoclass._spin_intertwiner(rep, other, p) == (False, None)
    assert isoclass.find_intertwiner(rep, other) is None
    assert not isoclass.iso_predicate(ctx, rep.params, other.params).isomorphic
    assert len(exact_spin_calls) == 1


def _pairs(ctx, family):
    modules = [_module(ctx, family, vals) for vals in _params(ctx, family)]
    pairs = [(a, b) for a in modules for b in modules]
    if family in ("V1", "V1p"):
        pairs.append(_isomorphic_v1p_pair(ctx, family))  # isomorphic, unequal matrices
    return pairs


@pytest.mark.parametrize("m", MS)
def test_family_pairs_never_reach_the_exact_system(context_factory, exact_spin_calls, m):
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for r1, r2 in _pairs(ctx, family):
            T = isoclass.find_intertwiner(r1, r2)
            iso = isoclass.iso_predicate(ctx, r1.params, r2.params).isomorphic
            assert iso == (T is not None), (m, family, r1.params, r2.params)
    assert exact_spin_calls == []


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


def _sum_intertwiner_checked(r1, r2):
    T = isoclass.find_intertwiner(r1, r2)
    assert T is not None and isoclass.intertwines(r1, r2, T) and linalg.is_invertible(T)
    return T


def test_swapped_summands_are_isomorphic(context_factory, exact_spin_calls):
    # Krull-Schmidt: T maps each summand of A + B onto its copy in B + A, off
    # the block diagonal
    ctx = context_factory(5)
    first, second = _params(ctx, "V2p")
    A, B = _module(ctx, "V2p", first), _module(ctx, "V2p", second)
    d = A.dim
    T = _sum_intertwiner_checked(repmod.direct_sum(A, B), repmod.direct_sum(B, A))
    assert all(min(row) >= d for row in T[:d]) and all(max(row) < d for row in T[d:])
    assert isoclass.find_intertwiner(repmod.direct_sum(A, B), repmod.direct_sum(A, A)) is None
    assert exact_spin_calls == []


def test_nested_sums_match_up_to_order(context_factory):
    ctx = context_factory(8)
    first, second = _params(ctx, "V3p")
    A, B = _module(ctx, "V3p", first), _module(ctx, "V3p", second)
    S = repmod.direct_sum
    _sum_intertwiner_checked(S(S(A, B), A), S(A, S(A, B)))
    assert isoclass.find_intertwiner(S(S(A, B), A), S(B, S(A, B))) is None


def test_sums_of_isomorphic_summands_with_unequal_matrices(context_factory):
    ctx = context_factory(5)
    M, N = _isomorphic_v1p_pair(ctx)
    A = _module(ctx, "V1p", _params(ctx, "V1p")[0])
    _sum_intertwiner_checked(repmod.direct_sum(M, A), repmod.direct_sum(A, N))


def test_exact_nullity_rules_out_an_isomorphism(context_factory, exact_spin_calls):
    # gamma = 1/p leaves no residues; over the field e3 - lambda, lambda an
    # eigenvalue of e3 on the first module, has nullity 0 on the second
    ctx = context_factory(5)
    p, _ = residue_map(5)
    r1, r2 = (_module(ctx, "V1p", (1, beta, Fraction(1, p), 0)) for beta in (1, 2))
    assert isoclass._spin_intertwiner(r1, r2) == (True, None)
    assert isoclass.find_intertwiner(r1, r2) is None
    assert len(exact_spin_calls) == 2
    # every generator acting by lambda: nullity d, not 1
    word, theta, i = repmod.choose_theta(list(r1.act.values()), None)
    assert len(word) == 1
    lam = theta[i][i]
    scalar = repmod.Representation("scalar", None, r1.dim,
                                   {g: linalg.scalar_matrix(r1.dim, lam) for g in r1.act}, ctx)
    assert isoclass.find_intertwiner(r1, scalar) is None


def test_singular_intertwiner_is_not_an_isomorphism(context_factory):
    # e_1 spins to the whole of a non-split extension, and the one intertwiner
    # onto its semisimple counterpart kills e_0
    ctx = context_factory(5)
    e3 = [{0: ctx.one}, {1: ctx.scalar(2)}]
    r1, r2 = (repmod.Representation(name, None, 2, {"e1": e1, "e3": e3}, ctx)
              for name, e1 in (("extension", [{}, {0: ctx.one}]), ("split", [{}, {}])))
    assert isoclass._spin_intertwiner(r1, r2, residue_map(5)[0]) == (True, None)
    assert isoclass.find_intertwiner(r1, r2) is None
    assert isoclass.intertwines(r1, r2, [{}, {1: ctx.one}])


def test_undecidable_inputs_raise(context_factory):
    ctx = context_factory(8)
    zero = {g: linalg.zero_matrix(2) for g in ("e1", "e3", "z", "zt")}
    Z = repmod.Representation("zero", None, 2, zero, ctx)
    with pytest.raises(ValueError):
        isoclass.find_intertwiner(Z, Z)
    # e3 = diag(1, q^2) + diag(-1, -q^2) on the sum, and diag(q^-2k) on V1:
    # the eigenvalue -q^2 is shared, and its eigenvector spins inside one
    # summand, mod p and over the field
    total = repmod.direct_sum(_module(ctx, "V3", (1, 1)), _module(ctx, "V3", (-1, 1)))
    simple = _module(ctx, "V1", (1, 1, 1, 0))
    assert total.dim == simple.dim == 4
    with pytest.raises(ValueError):
        isoclass.find_intertwiner(total, simple)
    # a summand that is a sum not recorded as one: matching A with A would
    # leave V3(1, 1) against a 4-dimensional summand, a wrong "no"
    A = _module(ctx, "V1", (1, 1, 1, 0))
    rebuilt = dataclasses.replace(total, summands=())
    with pytest.raises(ValueError):
        isoclass.find_intertwiner(repmod.direct_sum(A, total), repmod.direct_sum(A, rebuilt))
