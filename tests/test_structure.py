import pytest

from uqb2 import structure


def test_commutator_definitions_reduce_to_generators(algebra_factory):
    alg = algebra_factory(5)
    assert structure.named(alg, "e3_as_commutator") == alg.generator("e3")
    assert structure.named(alg, "z_as_commutator") == alg.generator("z")


def test_z_tilde_normal_form(algebra_factory):
    alg = algebra_factory(5)
    q2 = alg.ctx.q_pow(2)
    want = alg.element({(0, 1, 0, 1): q2, (1, 0, 0, 0): q2 / (q2 - 1)})
    assert structure.named(alg, "z_tilde") == want


def test_unknown_name_rejected(algebra_factory):
    with pytest.raises(ValueError):
        structure.named(algebra_factory(5), "zz")


@pytest.mark.parametrize("m", [5, 6, 8])
def test_z_tilde_twisted_commutation(algebra_factory, m):
    alg = algebra_factory(m)
    ctx = alg.ctx
    e1, e2, e3, z = alg.generators()
    zt = structure.named(alg, "z_tilde")
    zero = alg.zero()
    assert (zt * e2 - ctx.q_pow(-2) * (e2 * zt) - zero).is_zero()
    assert (zt * e3 - ctx.q_pow(2) * (e3 * zt) - zero).is_zero()
    assert (zt * z - ctx.one * (z * zt) - zero).is_zero()
    assert (zt * e1 - ctx.one * (e1 * zt) - -(e3 * e3)).is_zero()
    assert (e3 * e3 - ctx.one * (e3 * e3) - zero).is_zero()


def test_gwa_condition_instances(algebra_factory):
    alg = algebra_factory(5)
    ctx = alg.ctx
    z = alg.generator("z")
    e3 = alg.generator("e3")
    q2 = ctx.q_pow(2)
    assert structure.gwa_condition(alg, q2, z / (q2 - 1), z, {"z": ctx.one})
    alpha = (e3 * e3) / (ctx.one - ctx.q_pow(-4))
    assert structure.gwa_condition(
        alg, ctx.one, alpha, e3 * e3, {"z": ctx.one, "e3": ctx.q_pow(-2)}
    )
    assert not structure.gwa_condition(alg, q2, z, z, {"z": ctx.one})


def test_gwa_condition_rejects_unscoped_generators(algebra_factory):
    alg = algebra_factory(5)
    ctx = alg.ctx
    with pytest.raises(ValueError):
        structure.gwa_condition(
            alg, ctx.one, alg.generator("e1"), alg.zero(), {"z": ctx.one}
        )


@pytest.mark.parametrize("m,amax", [(5, 10), (6, 6)])
def test_zt_power_identities(algebra_factory, m, amax):
    alg = algebra_factory(m)
    pairs = structure.zt_power_identity(alg, amax)
    assert len(pairs) == amax
    for a, (r1, r2) in enumerate(pairs, 1):
        assert r1.is_zero(), a
        assert r2.is_zero(), a


def test_zt_power_identity_argument_checks(algebra_factory):
    alg = algebra_factory(5)
    with pytest.raises(ValueError):
        structure.zt_power_identity(alg, 0)


def test_z_one_central_and_both_forms(algebra_factory):
    for m in (5, 6, 8, 12):
        alg = algebra_factory(m)
        z1 = structure.named(alg, "z_one")
        assert alg.is_central(z1)
        assert z1 == structure.z_one_ordered_form(alg)


def test_z_one_commutes_with_all_generators(algebra_factory):
    alg = algebra_factory(5)
    z1 = structure.named(alg, "z_one")
    for name in ("e1", "e2", "e3", "z"):
        assert alg.commutator(z1, alg.generator(name)).is_zero()


def test_e1_zt_commutes_with_e3(algebra_factory):
    alg = algebra_factory(5)
    zt = structure.named(alg, "z_tilde")
    e1 = alg.generator("e1")
    e3 = alg.generator("e3")
    assert alg.commutator(e1 * zt, e3).is_zero()


def test_z_prime_frozen_normal_form(algebra_factory):
    # hand expansion of e1 w - q^4 w e1 with w = z + (q^2-1) e3 e2
    alg = algebra_factory(5)
    ctx = alg.ctx
    q2, q4 = ctx.q_pow(2), ctx.q_pow(4)
    want = alg.element({
        (1, 0, 1, 0): ctx.one - q4,
        (0, 1, 1, 1): (q2 - 1) * ctx.q_pow(-2) * (ctx.one - q4),
        (0, 2, 0, 0): q2 * (q2 - 1),
    })
    assert structure.named(alg, "z_prime") == want


@pytest.mark.parametrize("m", [5, 6, 8])
def test_center_report(algebra_factory, m):
    alg = algebra_factory(m)
    rep = structure.center_report(alg)
    for key in ("e1^l", "e2^l", "e3^l", "z", "z1"):
        assert rep["central"][key], key
    assert all(rep["subalgebra_central"].values())
    # the bracket expression is reported as computed: central exactly when m | 8
    assert rep["central"]["zp"] == (m % 8 == 0)
    if not rep["central"]["zp"]:
        assert rep["zp_witness"] is not None


def test_center_report_negative_control(algebra_factory):
    alg = algebra_factory(5)
    e3 = alg.generator("e3")
    assert not alg.is_central(e3 ** (alg.ctx.l - 1))
