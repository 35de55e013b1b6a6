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


def test_v1p_scalar_z_action(context_factory):
    ctx = context_factory(5)
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    assert r.act["z"] == linalg.identity(ctx, r.dim)


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
    power = linalg.mat_pow(ctx, r.act["e3"], ctx.l)
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
        M = linalg.identity(ctx, r.dim)
        for gname, e in zip(alg.NAMES, key):
            M = linalg.mat_mul(M, linalg.mat_pow(ctx, r.act[gname], e))
        z1_matrix = linalg.mat_add(z1_matrix, linalg.mat_scale(M, co))
    chars = repmod.central_character(r)
    assert linalg.scalar_of(z1_matrix) == chars["z1"]


def test_mat_pow_matches_repeated_products(context_factory):
    for m in (5, 8):
        ctx = context_factory(m)
        for family in repmod.FAMILIES:
            r = repmod.build(ctx, repmod.module_params(ctx, family, *_sample_tuples(ctx, family)[1]))
            for gname, G in r.act.items():
                power = linalg.identity(ctx, r.dim)
                for n in range(2 * ctx.l + 1):
                    assert linalg.mat_pow(ctx, G, n) == power, (m, family, gname, n)
                    power = linalg.mat_mul(power, G)


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
            out[name + "^l"] = linalg.scalar_of(linalg.mat_pow(ctx, M, ctx.l), ctx.zero)
    return out


@pytest.fixture
def mat_pow_calls(monkeypatch):
    """The matrices of every ``linalg.mat_pow`` call, the fallback of the Krylov certificate."""
    calls = []
    mat_pow = linalg.mat_pow
    monkeypatch.setattr(linalg, "mat_pow", lambda ctx, a, n: calls.append(a) or mat_pow(ctx, a, n))
    return calls


@pytest.mark.parametrize("m", range(5, 33))
def test_krylov_characters_match_square_and_multiply(context_factory, m):
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        for params in _sample_params(ctx, family):
            r = repmod.build(ctx, params)
            assert repmod.central_character(r) == _square_and_multiply_character(r), (m, params)


def test_krylov_characters_on_inputs_the_certificate_declines(context_factory, mat_pow_calls):
    # gamma = 1/p: e2 has no residues, so both starts are dropped
    ctx = context_factory(11)
    p, _ = residue_map(11)
    r = repmod.build(ctx, repmod.module_params(ctx, "V2p", 1, 1, ctx.one / p))
    chars = repmod.central_character(r)
    assert any(M is r.act["e2"] for M in mat_pow_calls)
    assert chars == _square_and_multiply_character(r)
    # a direct sum has d = 2l > l: l products cannot fill the span
    ctx = context_factory(7)
    s = repmod.build(ctx, repmod.module_params(ctx, "V1p", ctx.q, 2, 1, ctx.q ** 2))
    r = repmod.direct_sum(s, s)
    mat_pow_calls.clear()
    chars = repmod.central_character(r)
    assert any(M is r.act["e2"] for M in mat_pow_calls)
    assert chars == _square_and_multiply_character(r)


@pytest.mark.parametrize("m", [11, 20])
def test_krylov_character_of_v1p_with_zero_delta(context_factory, mat_pow_calls, m):
    # zt has a zero weight in row 0, so e_0 is an eigenvector of e2 and the
    # start e_(d-1) decides; at m = 20 a second zero weight, in row
    # ord(q^4) = 5, cuts that Krylov space too, and mat_pow decides
    ctx = context_factory(m)
    r = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    assert list(r.act["e2"][0]) == [0]
    chars = repmod.central_character(r)
    assert any(M is r.act["e2"] for M in mat_pow_calls) == (m == 20)
    assert chars == _square_and_multiply_character(r)


def test_krylov_certificate_rejects_non_scalar_powers(context_factory, mat_pow_calls):
    ctx = context_factory(5)
    one = linalg.identity(ctx, 2)
    # e_0 diag(1, 2)^l = e_0, but diag(1, 2)^l is not scalar: e_0 spans too
    # little, and mat_pow decides
    M = [{0: ctx.one}, {1: ctx.scalar(2)}]
    r = repmod.Representation("diag", None, 2, {"e1": M, "e3": one, "zt": one, "z": one}, ctx)
    with pytest.raises(ArithmeticError, match="e1\\^l"):
        repmod.central_character(r)
    assert any(x is M for x in mat_pow_calls)
    # e_0 is cyclic for [[0, 1], [1, 1]], and e_0 M^l is not a multiple of
    # e_0: decided without mat_pow
    M = [{1: ctx.one}, {0: ctx.one, 1: ctx.one}]
    r = repmod.Representation("cyclic", None, 2, {"e1": one, "e3": M, "zt": one, "z": one}, ctx)
    with pytest.raises(ArithmeticError, match="e3\\^l"):
        repmod.central_character(r)
    assert not any(x is M for x in mat_pow_calls)


def test_primed_e2_power_decided_without_mat_pow(context_factory, mat_pow_calls):
    ctx = context_factory(20)
    q = ctx.q
    for family, vals in (("V1p", (q, q ** 2, 2, q ** 3)), ("V2p", (1, 1, 1)), ("V2p", (q ** 2, 2, q)),
                         ("V3p", (1, 1)), ("V3p", (q, 2))):
        mat_pow_calls.clear()
        r = repmod.build(ctx, repmod.module_params(ctx, family, *vals))
        chars = repmod.central_character(r)
        assert not any(M is r.act["e2"] for M in mat_pow_calls), family
        assert chars["e2^l"] == linalg.scalar_of(linalg.mat_pow(ctx, r.act["e2"], ctx.l))
