import random
from fractions import Fraction

import pytest

from uqb2 import expr, pbw, structure
from uqb2.pbw import PBWAlgebra


def test_commutator_definition_parses_to_generator(algebra_factory):
    alg = algebra_factory(5)
    assert expr.evaluate("e1*e2 - q^2*e2*e1", alg) == alg.generator("e3")


def test_unit_and_scalars(algebra_factory):
    alg = algebra_factory(5)
    assert expr.evaluate("1", alg) == alg.unit()
    assert expr.evaluate("3/5", alg).as_scalar() == alg.ctx.from_fraction(Fraction(3, 5))
    assert expr.evaluate("q^-2", alg).as_scalar() == alg.ctx.q_pow(-2)


def test_power_expansion(algebra_factory):
    alg = algebra_factory(5)
    e1, e2, _, _ = alg.generators()
    assert expr.evaluate("e2^2*e1", alg) == e2 * e2 * e1


def test_named_identifiers(algebra_factory):
    alg = algebra_factory(5)
    assert expr.evaluate("zt", alg) == structure.named(alg, "z_tilde")
    assert expr.evaluate("z1", alg) == structure.named(alg, "z_one")
    assert expr.evaluate("zp", alg) == structure.named(alg, "z_prime")


def test_precedence_and_juxtaposition(algebra_factory):
    alg = algebra_factory(5)
    ctx = alg.ctx
    e1, e2, e3, _ = alg.generators()
    assert expr.evaluate("e1+e2*e3^2", alg) == e1 + e2 * (e3 ** 2)
    assert expr.evaluate("(q^2-1)e3e2", alg) == (ctx.q_pow(2) - 1) * (e3 * e2)
    assert expr.evaluate("2e3", alg) == 2 * e3
    assert expr.evaluate("-q*e1", alg) == -(ctx.q * e1)
    assert expr.evaluate("e1 - e2 - e3", alg) == (e1 - e2) - e3
    # a digit separated from a name, or leading it, is a factor
    for src in ("e1 2", "e1*2", "2e1"):
        assert expr.evaluate(src, alg) == 2 * e1, src
    assert expr.evaluate("e3e2", alg) == e3 * e2
    assert expr.evaluate("z1", alg) == structure.named(alg, "z_one")


def test_parse_errors_carry_position():
    cases = {
        "e1 +": 4,
        "e5": 0,
        "(e1": 3,
        "e1 @ e2": 3,
        "foo": 0,
        # no name may be followed directly by a digit
        "e12": 0,
        "q2": 0,
        "e1 + e12": 5,
        "3*z12": 2,
        "e3e21": 2,
        "zt2": 0,
        "zp2": 0,
        "e1 zt12": 3,
    }
    for src, pos in cases.items():
        with pytest.raises(expr.ParseError) as err:
            expr.parse(src)
        assert err.value.pos == pos


def test_unknown_identifier_message():
    with pytest.raises(expr.ParseError, match="unknown identifier 'e5'"):
        expr.parse("e5")


def test_non_scalar_division_rejected(algebra_factory):
    alg = algebra_factory(5)
    with pytest.raises(ValueError):
        expr.evaluate("e1/e2", alg)
    with pytest.raises(ValueError):
        expr.evaluate("e1^-1", alg)


def test_round_trip_random_elements(algebra_factory):
    alg = algebra_factory(5)
    ctx = alg.ctx
    rng = random.Random(3)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            key = tuple(rng.randrange(3) for _ in range(4))
            c = ctx.q_pow(rng.randrange(5)) * ctx.from_fraction(
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            )
            terms[key] = c
        x = alg.element(terms)
        assert expr.evaluate(expr.to_src(x), alg) == x


@pytest.mark.parametrize("m", [5, 8, 12, 30])
def test_round_trip_random_elements_at_several_orders(algebra_factory, m):
    alg = algebra_factory(m)
    ctx = alg.ctx
    rng = random.Random(100 + m)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            key = tuple(rng.randrange(4) for _ in range(4))
            c = ctx.zero
            for _ in range(rng.randrange(1, 4)):
                c = c + ctx.q_pow(rng.randrange(m)) * ctx.from_fraction(
                    Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
                )
            terms[key] = c
        x = alg.element(terms)
        assert expr.evaluate(expr.to_src(x), alg) == x


def test_round_trip_zero_and_unit(algebra_factory):
    alg = algebra_factory(5)
    assert expr.to_src(alg.zero()) == "0"
    assert expr.evaluate(expr.to_src(alg.zero()), alg) == alg.zero()
    assert expr.evaluate(expr.to_src(alg.unit()), alg) == alg.unit()


def test_eval_scalar(context_factory):
    ctx = context_factory(5)
    q2 = ctx.q_pow(2)
    assert expr.eval_scalar("q^2/(q^2-1)", ctx) == q2 / (q2 - 1)
    with pytest.raises(ValueError):
        expr.eval_scalar("e1", ctx)


def test_named_elements_built_once_per_expression(monkeypatch, context_factory):
    # z1 is defined through zt; within one expression each is built once
    alg = PBWAlgebra(context_factory(7))
    zt, z1 = structure.named(alg, "z_tilde"), structure.named(alg, "z_one")
    built = []
    combine = pbw._combine
    monkeypatch.setattr(pbw, "_combine",
                        lambda terms, *rest: built.append(terms) or combine(terms, *rest))
    assert expr.evaluate("z1*zt + z1 - zt^2*z1", alg) == z1 * zt + z1 - zt ** 2 * z1
    assert len(built) == 2
    # nothing is kept between two evaluations
    assert expr.evaluate("zt", alg) == zt
    assert len(built) == 3


@pytest.mark.parametrize("m", [7, 12])
def test_monomial_times_a_power_is_one_factor_at_a_time(algebra_factory, m):
    # x*(y)^n with x one monomial is n right products by y: the same normal
    # form as x times the power, for monomial and non-monomial x and y
    alg = algebra_factory(m)
    lefts = ("e2^5", "q^2*e1*e3", "3/4*e2^3", "1/(q+2)", "e2 + e1", "zt")
    bases = ("zt + z1", "e1 + q*e3", "e2", "z*e1", "q^3")
    for x in lefts:
        for y in bases:
            for n in (1, 2, 3):
                got = expr.evaluate("(%s)*(%s)^%d" % (x, y, n), alg)
                assert got == expr.evaluate(x, alg) * expr.evaluate("(%s)^%d" % (y, n), alg), (x, y, n)
