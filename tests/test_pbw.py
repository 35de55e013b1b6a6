import math
import random
from fractions import Fraction

import pytest

from uqb2 import expr, torus
from uqb2.pbw import PBWAlgebra


def test_generators_and_unit(algebra_factory):
    alg = algebra_factory(5)
    e3 = alg.generator("e3")
    assert e3.terms == {(0, 1, 0, 0): alg.ctx.one}
    x = alg.element({(1, 2, 0, 1): alg.ctx.q})
    assert (x + (-1) * x).is_zero()
    assert (alg.scalar(alg.ctx.q_pow(2))).terms == {(0, 0, 0, 0): alg.ctx.q_pow(2)}
    with pytest.raises(ValueError):
        alg.generator("e4")


def test_defining_relation_products(algebra_factory):
    alg = algebra_factory(5)
    ctx = alg.ctx
    e1, e2, e3, z = alg.generators()
    assert (e2 * e1).terms == {
        (0, 0, 1, 1): ctx.q_pow(-2),
        (0, 1, 0, 0): -ctx.q_pow(-2),
    }
    assert (e2 * e3).terms == {(0, 1, 0, 1): ctx.q_pow(2), (1, 0, 0, 0): ctx.one}
    assert e1 * e3 == ctx.q_pow(-2) * (e3 * e1)
    for g in (e1, e2, e3):
        assert z * g == g * z


def test_unit_law_random(algebra_factory):
    alg = algebra_factory(6)
    rng = random.Random(1)
    for _ in range(20):
        x = _random_element(alg, rng)
        assert x * alg.unit() == x
        assert alg.unit() * x == x


def test_e2_squared_times_e1_closed_form(algebra_factory):
    # independent oracle: the closed-form expansion at k=2
    alg = algebra_factory(5)
    ctx = alg.ctx
    e1, e2, _, _ = alg.generators()
    got = e2 * e2 * e1
    sym = ctx.q_pow(2) + ctx.q_pow(-2)  # (q^4 - q^-4)/(q^2 - q^-2)
    want = alg.element({
        (0, 0, 1, 2): ctx.q_pow(-4),
        (0, 1, 0, 1): -ctx.q_pow(-2) * sym,
        (1, 0, 0, 0): -ctx.q_pow(-2),
    })
    assert got == want


def test_power(algebra_factory):
    alg = algebra_factory(5)
    e3 = alg.generator("e3")
    assert (e3 ** 2).terms == {(0, 2, 0, 0): alg.ctx.one}
    assert alg.unit() ** 7 == alg.unit()
    assert alg.generator("e2") ** 0 == alg.unit()
    with pytest.raises(ValueError):
        e3 ** -1


def _power_by_products(x, n):
    """x^n as n products through the algebra's ``mul``, starting from 1."""
    out = x.alg.unit()
    for _ in range(n):
        out = x.alg.mul(out, x)
    return out


def _monomial_bases(alg, rng):
    """Random single-term bases: e2-free monomials, pure e2 powers and
    scalars, with unit, fractional and non-unit coefficients; and monomials
    with e2 beside another letter, which take the product loop."""
    ctx = alg.ctx
    pool = [ctx.one, ctx.q_pow(3), -ctx.q_pow(3), ctx.from_fraction(Fraction(3, 4)),
            (ctx.q + 2).invert(), ctx.q_pow(-1) * (ctx.q_pow(2) - 1).invert()]
    bases = []
    for c in pool:
        for _ in range(3):
            i, j, k = (rng.randrange(3) for _ in range(3))
            bases.append(alg.element({(i, j, k, 0): c}))
        bases.append(alg.element({(0, 0, 0, rng.randrange(1, 3)): c}))
        bases.append(alg.scalar(c))
        bases.append(alg.element({(rng.randrange(2), 1, rng.randrange(2), 1): c}))
    return bases


@pytest.mark.parametrize("m", [5, 6, 8, 12])
def test_closed_form_powers_match_the_product_loop(algebra_factory, m):
    alg = algebra_factory(m)
    rng = random.Random(1900 + m)
    for x in _monomial_bases(alg, rng):
        for n in range(2 * alg.ctx.l + 2):
            assert x ** n == _power_by_products(x, n), (x, n)


def test_sum_powers_match_the_product_loop(algebra_factory):
    alg = algebra_factory(7)
    rng = random.Random(19)
    for _ in range(5):
        x = _fractional_element(alg, rng)
        for n in range(5):
            assert x ** n == _power_by_products(x, n), (x, n)
    assert alg.zero() ** 0 == alg.unit()
    assert alg.zero() ** 3 == alg.zero()


@pytest.mark.parametrize("m", [5, 8])
def test_laurent_powers_match_the_product_loop(context_factory, m):
    T = torus.quantum_torus(context_factory(m))
    ctx = T.ctx
    rng = random.Random(1950 + m)
    for _ in range(5):
        x = T.element({tuple(rng.randrange(-2, 3) for _ in range(4)):
                       ctx.q_pow(rng.randrange(m)) * rng.randrange(1, 4) for _ in range(2)})
        for n in range(5):
            assert x ** n == _power_by_products(x, n), (x, n)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_lemma_identities_all_indices(algebra_factory, m):
    alg = algebra_factory(m)
    top = 2 * alg.ctx.l
    for index in (1, 2, 3, 4):
        for k in range(2 if index == 4 else 1, top + 1):
            assert alg.power_commutation_identity(index, k).is_zero(), (index, k)


@pytest.mark.parametrize("m,k", [(5, expr.MAX_EXPONENT), (8, expr.MAX_EXPONENT), (5, 5000)])
def test_deep_e2_powers_against_e3_and_e1(context_factory, m, k):
    # e2^k e3 and e2^k e1 fill the table k entries deep from a fresh algebra,
    # far past the interpreter's default recursion limit
    alg = PBWAlgebra(context_factory(m))
    for index in (2, 4):
        assert alg.power_commutation_identity(index, k).is_zero(), (index, k)


@pytest.mark.parametrize("m", [7, 12])
def test_table_does_not_depend_on_fill_order(context_factory, m):
    a, b = PBWAlgebra(context_factory(m)), PBWAlgebra(context_factory(m))
    keys = [(6, 3, 0), (2, 0, 4), (5, 2, 3)]
    for key in keys:
        a._e2n(*key)
    for key in reversed(keys):
        b._e2n(*key)
    assert a._table == b._table
    rng = random.Random(2000 + m)
    for _ in range(30):
        x, y = ({tuple(rng.randrange(4) for _ in range(4)): rng.randrange(1, 4)}
                for _ in range(2))
        assert a.element(x) * a.element(y) == b.element(x) * b.element(y), (x, y)


def test_lemma_identity_argument_checks(algebra_factory):
    alg = algebra_factory(5)
    with pytest.raises(ValueError):
        alg.power_commutation_identity(4, 1)
    with pytest.raises(ValueError):
        alg.power_commutation_identity(5, 2)
    with pytest.raises(ValueError):
        alg.power_commutation_identity(1, 0)


def test_central_powers(algebra_factory):
    alg = algebra_factory(6)  # l = 3
    e1, e2, e3, z = alg.generators()
    assert alg.is_central(z)
    assert not alg.is_central(e1)
    assert alg.is_central(e2 ** 3)
    assert not alg.is_central(e2 ** 2)
    for g in (e1, e2, e3):
        assert alg.is_central(g ** 3)


def test_noncentral_proper_powers_m5(algebra_factory):
    alg = algebra_factory(5)
    for j in range(1, 5):
        for name in ("e1", "e2", "e3"):
            assert not alg.is_central(alg.generator(name) ** j), (name, j)


def test_serre_relations(algebra_factory):
    for m in (5, 6, 7, 8, 12):
        res = algebra_factory(m).serre_residuals()
        assert res["degree3"].is_zero()
        assert res["degree4"].is_zero()


def _random_element(alg, rng, max_deg=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        while True:
            key = tuple(rng.randrange(max_deg + 1) for _ in range(4))
            if sum(key) <= max_deg:
                break
        terms[key] = alg.ctx.q_pow(rng.randrange(alg.ctx.m)) * rng.randrange(-3, 4)
    return alg.element(terms)


def test_associativity_random(algebra_factory):
    alg = algebra_factory(5)
    rng = random.Random(42)
    for _ in range(60):
        a = _random_element(alg, rng)
        b = _random_element(alg, rng)
        c = _random_element(alg, rng)
        assert (a * b) * c == a * (b * c)


def test_confluence_different_association_orders(algebra_factory):
    # same generator word, every parenthesization: identical normal forms
    alg = algebra_factory(7)
    rng = random.Random(9)
    gens = alg.generators()
    for _ in range(25):
        word = [gens[rng.randrange(4)] for _ in range(rng.randrange(2, 7))]
        left = alg.unit()
        for w in word:
            left = left * w
        right = alg.unit()
        for w in reversed(word):
            right = w * right
        mid = word[0]
        split = rng.randrange(1, len(word))
        a = word[0]
        for w in word[1:split]:
            a = a * w
        b = word[split]
        for w in word[split + 1 :]:
            b = b * w
        assert left == right == a * b


def test_leading_monomial_degree_additive(algebra_factory):
    alg = algebra_factory(5)
    rng = random.Random(8)
    for _ in range(40):
        a = _random_element(alg, rng)
        b = _random_element(alg, rng)
        if a.is_zero() or b.is_zero():
            continue
        # the top total degree of a product is the sum of its factors' top degrees
        assert max(map(sum, (a * b).terms)) == max(map(sum, a.terms)) + max(map(sum, b.terms))


def test_as_scalar(algebra_factory):
    alg = algebra_factory(5)
    assert alg.scalar(3).as_scalar() == alg.ctx.from_int(3)
    assert alg.zero().as_scalar().is_zero()
    with pytest.raises(ValueError):
        alg.generator("e1").as_scalar()


def _element_sample(kind, m, algebra_factory, context_factory):
    """(algebra, element, same algebra at another order, another algebra of the
    same kind and order); the element has a constant term."""
    ctx = context_factory(m)
    q = ctx.q
    if kind == "pbw":
        alg = algebra_factory(m)
        x = alg.element({(0, 0, 0, 0): Fraction(2, 3), (1, 0, 2, 1): q, (0, 1, 0, 0): 1 - q * q * q})
        return alg, x, algebra_factory(7 if m != 7 else 8), None
    T = torus.quantum_torus(ctx)
    x = T.element({(0, 0, 0, 0): Fraction(2, 3), (1, -1, 0, 2): q, (0, 1, 1, 0): 1 - q * q * q})
    other_m = torus.quantum_torus(context_factory(7 if m != 7 else 8))
    return T, x, other_m, torus.quantum_affine_space(ctx)


@pytest.mark.parametrize("kind,m", [("pbw", 5), ("pbw", 8), ("pbw", 12), ("torus", 5), ("torus", 8)])
def test_element_arithmetic(kind, m, algebra_factory, context_factory):
    alg, x, other_m, other_skew = _element_sample(kind, m, algebra_factory, context_factory)
    ctx = alg.ctx
    for c in (3, Fraction(-2, 5), ctx.q_pow(3) + 1):
        s = alg.scalar(c)
        assert x + c == c + x == x + s
        assert x - c == -(c - x) == x - s
        assert (x + c) - c == x
        assert x * c == c * x == x * s == s * x
        assert (x * c) / c == x
        assert x / c == x * ctx.scalar(c).invert()
    assert -(-x) == x and (x - x).is_zero() and not (x - x)
    assert x * 0 == alg.zero()

    assert x ** 0 == alg.unit()
    assert x ** 1 == x
    assert x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1

    y = alg.element(dict(x.terms))
    assert y is not x and y == x and hash(y) == hash(x)
    assert len({x, y, x + 1}) == 2

    for other in (other_m, other_skew):
        if other is None:
            continue
        w = other.unit()
        assert w != x
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(x, w)

    mixed = torus.quantum_torus(ctx).unit() if kind == "pbw" else algebra_factory(m).unit()
    assert mixed != x
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(x, mixed)
        with pytest.raises(TypeError):
            op(mixed, x)

    # the constant term prints bare, every other coefficient in brackets
    assert repr(alg.scalar(Fraction(-2, 5))) == "-2/5"
    assert repr(x).startswith("2/3 + (")
    if kind == "pbw":
        assert expr.evaluate(repr(x), alg) == x
        assert expr.to_src(x) == repr(x)


def _fractional_element(alg, rng, nterms=3, max_deg=3):
    """Terms whose coefficients have denominators: 1/(q^2 - 1) (its norm is
    a power of p at m = p^a), 1/3, and -q^k, which is not a unit row at odd m."""
    ctx = alg.ctx
    pool = [(ctx.q_pow(2) - 1).invert(), ctx.from_fraction(Fraction(1, 3)),
            -ctx.q_pow(3), 2 - ctx.q]
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randrange(max_deg + 1) for _ in range(4))
        while sum(key) > max_deg:
            key = tuple(rng.randrange(max_deg + 1) for _ in range(4))
        terms[key] = ctx.q_pow(rng.randrange(ctx.m)) * rng.choice(pool) * rng.choice(pool)
    return alg.element(terms)


def _torus_image(x, T, images):
    """Image of a PBW element under torus.embedding_image: z^i e3^j e1^k e2^n
    goes to the product of the images, in that order."""
    out = T.zero()
    for (i, j, k, n), c in x.terms.items():
        out = out + c * images["z"] ** i * images["e3"] ** j * images["e1"] ** k * images["e2"] ** n
    return out


def _assert_canonical(x):
    for c in x.terms.values():
        assert c.den > 0 and math.gcd(c.den, *c.num) == 1, c


@pytest.mark.parametrize("m", (5, 7, 8, 13, 16))
def test_products_with_fractional_coefficients(m, algebra_factory):
    alg = algebra_factory(m)
    T = torus.quantum_torus(alg.ctx)
    images = {g: torus.embedding_image(T, g) for g in ("e1", "e2", "e3", "z")}
    rng = random.Random(1600 + m)
    fractional = 0
    for _ in range(15):
        x, y, w = (_fractional_element(alg, rng) for _ in range(3))
        xy = x * y
        left, right = xy * w, x * (y * w)
        assert left == right
        for p in (xy, left):
            _assert_canonical(p)
        fractional += sum(c.den > 1 for c in xy.terms.values())
        image = _torus_image(x, T, images) * _torus_image(y, T, images)
        assert _torus_image(xy, T, images) == image
    assert fractional  # the common-denominator path ran
