from fractions import Fraction

import pytest

from uqb2 import lattice, linalg, repmod
from uqb2.conformance import _sample_params
from uqb2.cyclotomic import residue_map
from uqb2.pbw import evaluate_letters


def _sample_tuples(ctx, family):
    q = ctx.q
    pools = {
        "V1": [(1, 1, 1, 0), (q, q ** 2, 2, q ** 3), (2, q, q, 1)],
        "V2": [(1, 1, 1), (q ** 2, 2, q)],
        "V3": [(1, 1), (q, 2)],
        "V1p": [(1, 1, 1, 0), (q, q ** 2, 2, q ** 3)],
        "V2p": [(1, 1, 1), (q ** 2, 2, q)],
        "V3p": [(1, 1), (q, 2)],
        "V4p": [(1, 1, 0), (q, 0, q ** 2), (2, q, 1)],
    }
    return pools[family]


def test_module_params_validation(context_factory):
    ctx = context_factory(5)
    with pytest.raises(ValueError):
        repmod.module_params(ctx, "V9", 1, 1)
    with pytest.raises(ValueError):
        repmod.module_params(ctx, "V2", 1, 1)  # wrong arity
    with pytest.raises(ValueError):
        repmod.module_params(ctx, "V1", 0, 1, 1, 0)  # alpha must be nonzero
    with pytest.raises(ValueError):
        repmod.module_params(ctx, "V4p", 0, 1, 1)
    # delta (V1) and beta/gamma (V4p) may vanish
    repmod.module_params(ctx, "V1", 1, 1, 1, 0)
    repmod.module_params(ctx, "V4p", 1, 0, 0)


def test_dimensions(context_factory):
    ctx8 = context_factory(8)
    assert repmod.build(ctx8, repmod.module_params(ctx8, "V3p", 1, 1)).dim == 2
    assert repmod.build(ctx8, repmod.module_params(ctx8, "V1", 1, 1, 1, 0)).dim == 4
    ctx12 = context_factory(12)
    assert repmod.build(ctx12, repmod.module_params(ctx12, "V3", 1, 1)).dim == 3
    assert repmod.module_dimension(ctx12, "V4p") == 6


def test_v4p_e3_action_values(context_factory):
    ctx = context_factory(5)
    q = ctx.q
    r = repmod.build(ctx, repmod.module_params(ctx, "V4p", q, 1, 2))
    e3 = r.act["e3"]
    assert e3[0] == {}
    for k in range(1, r.dim):
        assert e3[k][k - 1] == q * ctx.q_bracket(k, 2)


@pytest.mark.parametrize("m", [5, 8])
def test_built_matrices_store_no_zero(context_factory, m):
    # beta = gamma = 0 empty entries of V4p, delta = 0 one of zt in V1, and
    # at m = 8 (l = 4) [2]_4 = 1 + q^4 = 0 one of e1 in V2
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for vals in _sample_tuples(ctx, family) + [(1, 0, 0)] * (family == "V4p"):
            r = repmod.build(ctx, repmod.module_params(ctx, family, *vals))
            for rep in (r, repmod.direct_sum(r, r)):
                assert all(x for M in rep.act.values() for row in M for x in row.values()), \
                    (m, family, vals)


def _quotient_build(ctx, params):
    """The family's action matrices from the quotient formulas, each entry
    formed on its own: q-brackets by ``FieldContext.q_bracket`` and V4p's
    Gaussian binomial as (q^(2k) - 1)(q^(2k-2) - 1) / ((q^4 - 1)(q^2 - 1));
    the reference for ``repmod.build``'s running sums."""
    family, d, q = params.family, repmod.module_dimension(ctx, params.family), ctx.q_pow
    a, b, g, dl = params.alpha, params.beta, params.gamma, params.delta
    e1, e2, e3, zt = (linalg.zero_matrix(d) for _ in range(4))
    base = repmod.base_family(family)
    if base == "V4p":
        den_inv = ((q(4) - 1) * (q(2) - 1)).invert()
        for k in range(d):
            if b:
                e1[k][k] = b * q(-2 * k)
            if k >= 2:
                e1[k][k - 2] = -q(-2 * (k - 1)) * ((q(2 * k) - 1) * (q(2 * (k - 1)) - 1) * den_inv) * a
            if k != d - 1:
                e2[k][k + 1] = ctx.one
            elif g:
                e2[k][0] = g
            if k:
                e3[k][k - 1] = a * ctx.q_bracket(k, 2)
        return {"e1": e1, "e2": e2, "e3": e3, "z": linalg.scalar_matrix(d, a)}
    step, unit, central = {"V1": (-2, b, g), "V2": (2, b, g), "V3": (2, a, b)}[base]
    ainv, uinv = a.invert(), unit.invert()
    for k in range(d):
        e3[k][k] = q(step * k) * unit
        if base == "V1":
            e1[k][(k + 1) % d] = a
            x = ainv * (dl + ctx.q_bracket(k, -4) * b * b)
            if x:
                zt[k][(k - 1) % d] = x
        else:
            x = -ctx.q_bracket(k, 4) * (b * b * ainv if base == "V2" else a * a)
            if x:
                e1[k][k - 1] = x
            if base == "V2":
                zt[k][(k + 1) % d] = a
            elif k != d - 1:
                zt[k][k + 1] = ctx.one
    z = linalg.scalar_matrix(d, central)
    if family == base:
        return {"e1": e1, "e3": e3, "z": z, "zt": zt}
    # e2 = (zt - z/(q^2 - 1)) e3^(-1), e3^(-1) = diag(q^(-step*k) / unit)
    zq = central / (q(2) - 1)
    for k in range(d):
        for j, x in zt[k].items():
            e2[k][j] = x * q(-step * j) * uinv
        x = e2[k].pop(k, ctx.zero) - zq * q(-step * k) * uinv
        if x:
            e2[k][k] = x
    return {"e1": e1, "e2": e2, "e3": e3, "z": z}


def _build_params(ctx):
    """Unit, rational and non-unit parameters per base family, with the zero
    slots the families allow: delta = 0 in V1, beta = gamma = 0 in V4p."""
    q = ctx.q
    return {
        "V1": [(1, 1, 1, 0), (q, q ** 2, 2, q ** 3), (Fraction(2, 3), Fraction(-5, 7), 3, Fraction(1, 2)),
               (q + 1, q ** 2 - Fraction(1, 3), 1 - q, 0), (q ** 3 - 2, q + Fraction(1, 2), q, q ** 2 + q)],
        "V2": [(1, 1, 1), (q ** 2, q, q), (Fraction(3, 2), Fraction(-1, 5), 7), (q + 1, 2 * q - 3, q ** 2 + 1)],
        "V3": [(1, 1), (q, q ** 3), (Fraction(-4, 9), Fraction(2, 11)), (q ** 2 - q + 2, Fraction(1, 3) * q)],
        "V4p": [(1, 1, 0), (q, 0, q ** 2), (1, 0, 0), (Fraction(2, 3), Fraction(1, 5), Fraction(-3, 2)),
                (q + 1, 0, 2 * q - 1), (q ** 2 - Fraction(1, 2), q + 3, 0)],
    }


@pytest.mark.parametrize("m", [*range(5, 41), 61])
def test_build_matches_the_quotient_formulas(context_factory, m):
    # equal matrices, and no zero stored: [l/2]_4 = 0 in V2 when l is even
    # (m = 8), delta = 0 in V1, beta = gamma = 0 in V4p
    ctx = context_factory(m)
    pools = _build_params(ctx)
    for family in repmod.FAMILIES:
        for vals in pools[repmod.base_family(family)]:
            params = repmod.module_params(ctx, family, *vals)
            act = repmod.build(ctx, params).act
            assert act == _quotient_build(ctx, params), (m, family, vals)
            assert all(x for M in act.values() for row in M for x in row.values()), (m, family, vals)


def test_v1p_scalar_z_action(context_factory):
    ctx = context_factory(5)
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    assert r.act["z"] == linalg.scalar_matrix(r.dim, ctx.one)


@pytest.mark.parametrize("m", [5, 6, 8])
def test_relation_suites(context_factory, m):
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for vals in _sample_tuples(ctx, family):
            r = repmod.build(ctx, repmod.module_params(ctx, family, *vals))
            v = repmod.verify_relations(r)
            assert v["all_zero"], (m, family, vals, v["zero"])


def test_mutated_action_fails_relations(context_factory):
    ctx = context_factory(5)
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    r.act["e3"][0][0] = r.act["e3"][0][0] + ctx.one  # perturb an eigenvalue
    v = repmod.verify_relations(r)
    assert not v["all_zero"]


def test_simplicity_certificates(context_factory):
    ctx = context_factory(5)
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    cert = repmod.is_simple(r)
    assert cert.simple and cert.span_dim == 25
    ctx8 = context_factory(8)
    r = repmod.build(ctx8, repmod.module_params(ctx8, "V3p", 1, 1))
    cert = repmod.is_simple(r)
    assert cert.simple and cert.span_dim == 4


def test_direct_sum_not_simple(context_factory):
    ctx = context_factory(5)
    r = repmod.build(ctx, repmod.module_params(ctx, "V4p", 1, 1, 0))
    cert = repmod.is_simple(repmod.direct_sum(r, r))
    assert not cert.simple
    assert cert.span_dim < (2 * r.dim) ** 2


@pytest.mark.parametrize("m, family, vals", [(5, "V2p", (1, 1, 1)), (8, "V4p", (1, 1, 0)),
                                             (16, "V3p", (1, 2))])
def test_sum_certifies_each_distinct_action_once(context_factory, monkeypatch, m, family, vals):
    # equal action matrices have the same certificate: M + M, and two builds
    # of the same parameters, run Norton's test once; M + N runs it twice
    ctx = context_factory(m)
    calls = []
    norton_test = repmod.norton_test
    monkeypatch.setattr(repmod, "norton_test", lambda gens, p: calls.append(p) or norton_test(gens, p))
    M, M2 = (repmod.build(ctx, repmod.module_params(ctx, family, *vals)) for _ in range(2))
    N = repmod.build(ctx, repmod.module_params(ctx, family, *vals[:-1], 3))
    d = M.dim
    for pair, certs, span in (((M, M), 1, d * d), ((M, M2), 1, d * d), ((M, N), 2, 2 * d * d)):
        calls.clear()
        assert repmod.is_simple(repmod.direct_sum(*pair)) == \
            repmod.SimplicityCertificate(False, span, "summands")
        assert len(calls) == certs, pair


@pytest.mark.parametrize("d, simple", [(1, True), (2, False)])
def test_zero_module_simplicity(context_factory, d, simple):
    # every action zero: no matrix entry to take the field's 1 from
    rep = repmod.Representation(
        "trivial", None, d, {g: [{} for _ in range(d)] for g in ("e1", "e2", "e3", "z")},
        context_factory(5),
    )
    assert repmod.verify_relations(rep)["all_zero"]
    assert repmod.is_simple(rep) == repmod.SimplicityCertificate(simple, 1, "exact")


def test_dimension_bounded_by_pi_degree(context_factory):
    for m in (5, 6, 8, 12):
        ctx = context_factory(m)
        bound = lattice.pi_degree(lattice.NAMED_MATRICES["uqb2"], m)
        for family in repmod.FAMILIES:
            assert repmod.module_dimension(ctx, family) <= bound


def test_e3_invertible_or_nilpotent_dichotomy(context_factory):
    ctx = context_factory(8)
    for family in ("V1", "V2", "V3", "V1p", "V2p", "V3p"):
        vals = _sample_tuples(ctx, family)[0]
        r = repmod.build(ctx, repmod.module_params(ctx, family, *vals))
        assert linalg.is_invertible(r.act["e3"]), family
    r = repmod.build(ctx, repmod.module_params(ctx, "V4p", 1, 1, 1))
    power = _power(r.act["e3"], ctx.l, ctx.one)
    assert linalg.is_zero_matrix(power)


def test_central_characters_v1p(context_factory):
    ctx = context_factory(5)
    q = ctx.q
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, q, 0))
    chars = repmod.central_character(r)
    assert chars["z"] == q
    assert chars["e1^l"] == ctx.one
    assert chars["e3^l"] == ctx.one


def test_central_characters_annihilation_flags(context_factory):
    for m in (5, 8):
        ctx = context_factory(m)
        q = ctx.q
        flags = {}
        for family, vals in (
            ("V1p", (q, 2, 1, q ** 2)),
            ("V2p", (q, 2, 1)),
            ("V3p", (q, 2)),
            ("V4p", (q, 2, 1)),
        ):
            r = repmod.build(ctx, repmod.module_params(ctx, family, *vals))
            flags[family] = {k: bool(v) for k, v in repmod.central_character(r).items()}
        assert flags["V1p"]["e1^l"] and flags["V1p"]["e3^l"]
        assert not flags["V2p"]["e1^l"] and flags["V2p"]["e3^l"] and flags["V2p"]["zt^l"]
        assert not flags["V3p"]["e1^l"] and not flags["V3p"]["zt^l"] and flags["V3p"]["e3^l"]
        assert not flags["V4p"]["e3^l"]


def test_subalgebra_module_characters(context_factory):
    ctx = context_factory(5)
    r = repmod.build(ctx, repmod.module_params(ctx, "V2", 1, 1, 1))
    chars = repmod.central_character(r)
    assert set(chars) == {"e1^l", "e3^l", "zt^l", "z"}
    assert not chars["e1^l"] and chars["zt^l"] == ctx.one


def test_e2_reconstruction_matches_closed_form(context_factory):
    # the e2 action of each primed family equals (zt - z/(q^2-1)) e3^(-1)
    # computed from the matching subalgebra module; e3 acts invertibly, so
    # that is zt, as defined from e2, e3 and z, acting as in the subalgebra
    # module
    for m in (5, 8, 12):
        ctx = context_factory(m)
        q = ctx.q
        for fam, famp, vals in (
            ("V1", "V1p", (q, 2, 1, q ** 2)),
            ("V1", "V1p", (1, 1, 1, 0)),
            ("V2", "V2p", (q, 2, 1)),
            ("V3", "V3p", (q, 2)),
        ):
            rb = repmod.build(ctx, repmod.module_params(ctx, fam, *vals))
            rp = repmod.build(ctx, repmod.module_params(ctx, famp, *vals))
            zt = evaluate_letters(("zt",), rp.act, ctx, repmod._matrix_ops())[0]
            assert zt == rb.act["zt"], (m, famp)


def test_act_matrix_general_element(context_factory, algebra_factory):
    from uqb2 import structure

    ctx = context_factory(5)
    alg = algebra_factory(5)
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    # the engine's normal form of z1, acting term by term through the
    # generator matrices, against the character's z1
    z1_matrix = linalg.zero_matrix(r.dim)
    for key, co in structure.named(alg, "z_one").terms.items():
        M = linalg.scalar_matrix(r.dim, ctx.one)
        for gname, e in zip(alg.NAMES, key):
            M = linalg.mat_mul(M, _power(r.act[gname], e, ctx.one))
        z1_matrix = linalg.mat_add(z1_matrix, linalg.mat_scale(M, co))
    chars = repmod.central_character(r)
    assert linalg.scalar_of(z1_matrix) == chars["z1"]


def _power(M, n, one):
    """M^n by square-and-multiply, the reference for the Krylov certificate."""
    out = linalg.scalar_matrix(len(M), one)
    while n:
        if n & 1:
            out = linalg.mat_mul(out, M)
        n >>= 1
        if n:
            M = linalg.mat_mul(M, M)
    return out


def _square_and_multiply_character(rep):
    # every l-th power formed as a matrix, then read as a scalar
    ctx = rep.ctx
    mats = dict(rep.act)
    if "e2" in mats:
        mats["zt"], mats["z1"] = evaluate_letters(("zt", "z1"), rep.act, ctx, repmod._matrix_ops())
    out = {}
    for name, M in mats.items():
        if name in ("z", "z1"):
            out[name] = linalg.scalar_of(M, ctx.zero)
        else:
            out[name + "^l"] = linalg.scalar_of(_power(M, ctx.l, ctx.one), ctx.zero)
    return out


@pytest.fixture
def power_rows(monkeypatch):
    """The row count of every ``linalg.mat_mul`` call made under
    ``repmod._scalar_power``; all 1 when no matrix power is formed."""
    rows, depth = [], []
    mat_mul, scalar_power = linalg.mat_mul, repmod._scalar_power

    def counted(a, b, p=None):
        if depth:
            rows.append(len(a))
        return mat_mul(a, b, p)

    def scoped(M, l, ctx):
        depth.append(M)
        try:
            return scalar_power(M, l, ctx)
        finally:
            depth.pop()

    monkeypatch.setattr(linalg, "mat_mul", counted)
    monkeypatch.setattr(repmod, "_scalar_power", scoped)
    return rows


def _one_row_products(rows):
    return bool(rows) and set(rows) == {1}


@pytest.mark.parametrize("m", range(5, 33))
def test_krylov_characters_match_square_and_multiply(context_factory, m):
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for params in _sample_params(ctx, family):
            r = repmod.build(ctx, params)
            assert repmod.central_character(r) == _square_and_multiply_character(r), (m, params)


def test_krylov_characters_on_inputs_the_certificate_declines(context_factory, power_rows):
    # inputs on which the starts e_0 and e_(d-1) alone do not fill the span
    # gamma = 1/p: e2 has no residues, and the span is taken over the field
    ctx = context_factory(11)
    p, _ = residue_map(11)
    r = repmod.build(ctx, repmod.module_params(ctx, "V2p", 1, 1, ctx.one / p))
    assert linalg.mat_residues(r.act["e2"]) is None
    chars = repmod.central_character(r)
    assert _one_row_products(power_rows)
    assert chars == _square_and_multiply_character(r)
    # a direct sum has d = 2l > l: one start's l products cannot fill the span
    ctx = context_factory(7)
    s = repmod.build(ctx, repmod.module_params(ctx, "V1p", ctx.q, 2, 1, ctx.q ** 2))
    r = repmod.direct_sum(s, s)
    power_rows.clear()
    chars = repmod.central_character(r)
    assert _one_row_products(power_rows)
    assert chars == _square_and_multiply_character(r)
    # V4p's e1 is lower triangular with steps of 2: e_0 is an eigenvector and
    # e_(d-1) reaches only its own parity, so a third start fills the span
    ctx = context_factory(20)
    r = repmod.build(ctx, repmod.module_params(ctx, "V4p", 1, 1, 0))
    power_rows.clear()
    chars = repmod.central_character(r)
    assert _one_row_products(power_rows)
    assert chars == _square_and_multiply_character(r)


def test_krylov_characters_over_the_field_with_several_starts(context_factory, power_rows):
    # alpha = 1/p: V4p's e1 has no residues, so its span is taken over the
    # field, and e_0 is an eigenvector, so it needs more than one start
    for m in (11, 13):
        ctx = context_factory(m)
        p, _ = residue_map(m)
        r = repmod.build(ctx, repmod.module_params(ctx, "V4p", ctx.one / p, 1, 0))
        e1 = r.act["e1"]
        assert linalg.mat_residues(e1) is None
        assert set(e1[0]) <= {0} and r.dim > 1
        power_rows.clear()
        chars = repmod.central_character(r)
        assert _one_row_products(power_rows)
        assert chars == _square_and_multiply_character(r), m


@pytest.mark.parametrize("m", [11, 20])
def test_krylov_character_of_v1p_with_zero_delta(context_factory, power_rows, m):
    # zt has a zero weight in row 0, so e_0 is an eigenvector of e2 and the
    # start e_(d-1) decides; at m = 20 a second zero weight, in row
    # ord(q^4) = 5, cuts that Krylov space too, and further starts fill it
    ctx = context_factory(m)
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    assert list(r.act["e2"][0]) == [0]
    chars = repmod.central_character(r)
    assert _one_row_products(power_rows)
    assert chars == _square_and_multiply_character(r)


def test_krylov_certificate_rejects_non_scalar_powers(context_factory, power_rows):
    ctx = context_factory(5)
    one = linalg.scalar_matrix(2, ctx.one)
    # e_0 and e_1 are eigenvectors of diag(1, 2) with e_0 M^l = e_0 and
    # e_1 M^l = 2^l e_1: two starts with different c
    M = [{0: ctx.one}, {1: ctx.scalar(2)}]
    r = repmod.Representation("diag", None, 2, {"e1": M, "e3": one, "zt": one, "z": one}, ctx)
    with pytest.raises(ArithmeticError, match="e1\\^l"):
        repmod.central_character(r)
    assert _one_row_products(power_rows)
    # e_0 is cyclic for [[0, 1], [1, 1]], and e_0 M^l is not a multiple of e_0
    M = [{1: ctx.one}, {0: ctx.one, 1: ctx.one}]
    r = repmod.Representation("cyclic", None, 2, {"e1": one, "e3": M, "zt": one, "z": one}, ctx)
    power_rows.clear()
    with pytest.raises(ArithmeticError, match="e3\\^l"):
        repmod.central_character(r)
    assert _one_row_products(power_rows)


def test_primed_e2_power_decided_without_mat_pow(context_factory, power_rows):
    ctx = context_factory(20)
    q = ctx.q
    for family, vals in (("V1p", (q, q ** 2, 2, q ** 3)), ("V2p", (1, 1, 1)), ("V2p", (q ** 2, 2, q)),
                         ("V3p", (1, 1)), ("V3p", (q, 2))):
        power_rows.clear()
        r = repmod.build(ctx, repmod.module_params(ctx, family, *vals))
        chars = repmod.central_character(r)
        assert _one_row_products(power_rows), family
        assert chars["e2^l"] == linalg.scalar_of(_power(r.act["e2"], ctx.l, ctx.one))
