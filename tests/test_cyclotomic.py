import math
import random
from fractions import Fraction

import pytest

from uqb2 import cyclotomic
from uqb2.cyclotomic import cyclotomic_polynomial, field_init, residue_map


def test_field_init_basic():
    ctx = field_init(5)
    assert ctx.l == 5
    assert ctx.degree == 4
    assert ctx.phi == (1, 1, 1, 1, 1)
    ctx = field_init(6)
    assert ctx.l == 3
    assert ctx.phi == (1, -1, 1)


def test_field_init_rejects_small_m():
    for m in (4, 3, 0, -2):
        with pytest.raises(ValueError):
            field_init(m)


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert cyclotomic_polynomial(7) == [1] * 7
    assert cyclotomic_polynomial(9) == [1, 0, 0, 1, 0, 0, 1]


def test_q_power_arithmetic():
    ctx = field_init(5)
    assert ctx.q_pow(5) == ctx.one
    assert ctx.q_pow(2) * ctx.q_pow(3) == ctx.one
    assert ctx.q.invert() == ctx.q_pow(4)
    assert ctx.q_pow(-2) == ctx.q_pow(3)


def test_q_pow_additive_in_exponent():
    ctx = field_init(12)
    random.seed(0)
    for _ in range(100):
        k1 = random.randrange(-30, 30)
        k2 = random.randrange(-30, 30)
        assert ctx.q_pow(k1) * ctx.q_pow(k2) == ctx.q_pow(k1 + k2)


@pytest.mark.parametrize("m", [5, 6, 9, 12, 30])
def test_laurent_matches_the_sum_of_q_powers(m):
    ctx = field_init(m)
    random.seed(m)
    for _ in range(50):
        coeff = {random.randrange(-3 * m, 3 * m): random.randrange(-9, 10) for _ in range(4)}
        want = sum((n * ctx.q_pow(e) for e, n in coeff.items()), ctx.zero)
        assert ctx.laurent(coeff) == want, coeff
    assert ctx.laurent({}) == ctx.zero


def test_ord_q_pow():
    assert field_init(6).ord_q_pow(2) == 3
    assert field_init(8).ord_q_pow(4) == 2
    assert field_init(5).ord_q_pow(2) == 5
    assert field_init(7).ord_q_pow(0) == 1
    for m in range(5, 25):
        ctx = field_init(m)
        assert ctx.ord_q_pow(2) == ctx.l


def test_q_bracket_values():
    ctx = field_init(5)
    assert ctx.q_bracket(0, 2).is_zero()
    assert ctx.q_bracket(1, 2) == ctx.one
    assert ctx.q_bracket(1, -4) == ctx.one
    # q^(2l) = 1 forces the numerator to vanish
    assert ctx.q_bracket(ctx.l, 2).is_zero()


def test_q_bracket_recurrence():
    ctx = field_init(8)
    q2 = ctx.q_pow(2)
    for k in range(12):
        assert ctx.q_bracket(k + 1, 2) == q2 * ctx.q_bracket(k, 2) + 1


def test_q_bracket_rejects_trivial_step():
    for m in range(5, 37):
        ctx = field_init(m)
        for step in (0, m, -m, -2 * m):
            with pytest.raises(ValueError):
                ctx.q_bracket(3, step)


def test_invert_zero_rejected():
    for m in range(5, 37):
        with pytest.raises(ZeroDivisionError):
            field_init(m).zero.invert()


@pytest.mark.parametrize("m", range(5, 37))
def test_norm_inverse_on_large_random_scalars(m):
    ctx = field_init(m)
    rng = random.Random(1000 + m)
    for _ in range(3):
        nums = [rng.randrange(-2 ** 64, 2 ** 64) if rng.random() < 0.8 else 0
                for _ in range(ctx.degree)]
        nums[rng.randrange(ctx.degree)] = rng.randrange(1, 2 ** 64)
        a = cyclotomic._make(ctx, nums, rng.randrange(2, 2 ** 64))
        inv = a.invert()
        assert a * inv == ctx.one
        assert inv.invert() == a


@pytest.mark.parametrize("m", (5, 7, 8, 12, 30))
def test_unit_inverse_matches_the_norm_inverse(m, monkeypatch):
    ctx = field_init(m)
    units = [ctx.q_pow(k) for k in range(m)]
    fast = [u.invert() for u in units]
    # with no unit table every inverse takes the norm product
    monkeypatch.setattr(ctx, "_unit_exp", {})
    for k, (u, inv) in enumerate(zip(units, fast)):
        assert inv == u.invert(), (m, k)
        assert (inv.num, inv.den) == (ctx.q_pow(-k).num, 1)


@pytest.mark.parametrize("m", range(5, 37))
def test_q_bracket_matches_its_defining_quotient(m):
    ctx = field_init(m)
    for step in (1, -1, 2, -2, 3, 4, -4):
        inv = (ctx.q_pow(step) - 1).invert()
        for k in range(-2 * m, 2 * m + 1):
            assert ctx.q_bracket(k, step) == (ctx.q_pow(step * k) - 1) * inv, (k, step)


def _assert_canonical(c):
    assert c.den > 0 and math.gcd(c.den, *c.num) == 1


def _large_random_scalars(ctx, rng):
    """Zero, +-1, and integral and fractional scalars with numerators up to 2^64."""
    d = ctx.degree
    out = [ctx.zero, ctx.one, -ctx.one]
    for _ in range(4):
        nums = [rng.randrange(-2 ** 64, 2 ** 64) if rng.random() < 0.7 else 0 for _ in range(d)]
        out.append(cyclotomic._make(ctx, nums, 1))
        out.append(cyclotomic._make(ctx, nums, rng.randrange(2, 2 ** 64)))
        out.append(cyclotomic._make(ctx, [rng.randrange(-9, 10) for _ in range(d)], rng.randrange(1, 6)))
    return out


@pytest.mark.parametrize("m", range(5, 37))
def test_unit_products_match_the_general_product(m):
    ctx = field_init(m)
    rng = random.Random(2000 + m)
    for a in _large_random_scalars(ctx, rng):
        for k in range(m):
            for u in (ctx.q_pow(k), -ctx.q_pow(k)):
                general = cyclotomic._make(ctx, cyclotomic._mul_int(ctx, a.num, u.num), a.den * u.den)
                for c in (a * u, u * a):
                    assert (c.num, c.den) == (general.num, general.den), (a, k)
                    _assert_canonical(c)


def _random_scalar(ctx, rng):
    c = ctx.zero
    for _ in range(rng.randrange(1, 4)):
        c = c + ctx.q_pow(rng.randrange(ctx.m)) * ctx.from_fraction(
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        )
    return c


@pytest.mark.parametrize("m", [5, 6, 8, 12])
def test_field_axioms_random(m):
    ctx = field_init(m)
    rng = random.Random(m)
    for _ in range(60):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng)
        c = _random_scalar(ctx, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.invert() == ctx.one
            assert a / a == ctx.one


def test_fraction_and_int_coercion():
    ctx = field_init(5)
    assert ctx.q + 1 - 1 == ctx.q
    assert 2 * ctx.q == ctx.q * 2
    half = ctx.from_fraction(Fraction(1, 2))
    assert half + half == ctx.one
    assert (ctx.one / 2) == half


@pytest.mark.parametrize("m", [5, 6, 7, 8, 12, 20])
def test_residue_map_is_a_ring_map(m):
    p, rpow = residue_map(m)
    assert p < 2 ** 31 and p % m == 1 and cyclotomic._is_prime(p)
    r = rpow[1]
    assert len(rpow) == m and all(rpow[k] == pow(r, k, p) for k in range(m))
    assert sorted({pow(r, k, p) for k in range(m)}) == sorted(rpow)  # order m
    assert sum(c * rk for c, rk in zip(cyclotomic_polynomial(m), rpow)) % p == 0
    ctx = field_init(m)
    rng = random.Random(m)
    for _ in range(40):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng)
        assert (a * b).residue() == a.residue() * b.residue() % p
        assert (a + b).residue() == (a.residue() + b.residue()) % p
        if a:
            assert a.invert().residue() * a.residue() % p == 1
    assert ctx.q_pow(3).residue() == rpow[3]
    assert ctx.from_fraction(Fraction(3, p)).residue() is None


def test_field_init_leaves_the_residue_map_alone():
    before = residue_map.cache_info().misses
    field_init(29)
    assert residue_map.cache_info().misses == before


def test_is_prime_small_and_strong_pseudoprimes():
    primes = [n for n in range(60) if cyclotomic._is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    # strong pseudoprimes to base 2 (2047), and to bases 2 and 3 (1373653)
    assert not cyclotomic._is_prime(2047) and not cyclotomic._is_prime(1373653)
    assert cyclotomic._is_prime(2 ** 31 - 1)
