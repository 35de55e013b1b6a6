import pytest

from uqb2 import lattice, linalg, repmod
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
