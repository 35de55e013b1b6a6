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


def _totient(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def test_cyclotomic_polynomials_are_monic_of_degree_phi():
    for m in range(1, cyclotomic.MAX_ORDER + 1):
        poly = cyclotomic_polynomial(m)
        assert len(poly) == _totient(m) + 1 and poly[-1] == 1, m


@pytest.mark.parametrize("m", list(range(1, 121)) + [997, 998, 999, 1000])
def test_cyclotomic_polynomials_multiply_to_x_m_minus_1(m):
    product = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            product = cyclotomic._poly_mul_int(product, cyclotomic_polynomial(d))
    assert product == [-1] + [0] * (m - 1) + [1]


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


@pytest.mark.parametrize("m", [5, 6, 9, 12, 16, 20, 30, 31, 997])
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


def _norm_inverse(a):
    """1/a as the product P of the nontrivial conjugates of a over the norm
    N = A*P, A = a*den, each conjugate read off ``laurent`` and multiplied in
    by ``CycNum`` products: the reference for ``CycNum.invert``, taking none
    of its closed forms."""
    ctx = a.ctx
    A = dict(enumerate(a.num))
    P = ctx.one
    for j in range(2, ctx.m):
        if math.gcd(j, ctx.m) == 1:
            P = P * ctx.laurent({j * t: x for t, x in A.items()})
    N = ctx.laurent(A) * P
    assert not any(N.num[1:])
    return P * Fraction(a.den * N.den, N.num[0])


@pytest.mark.parametrize("m", range(5, 65))
def test_closed_form_inverses_match_the_norm_product(m, monkeypatch):
    ctx = field_init(m)
    cases = [ctx.from_fraction(Fraction(sign * a, b))
             for a, b in ((1, 1), (2, 1), (1, 3), (6, 35), (2 ** 64 + 1, 3 ** 30)) for sign in (1, -1)]
    for s in range(1, m):
        x = ctx.q_pow(s) - 1
        cases += [x, -x, x * Fraction(1, 6), x * Fraction(-1, 35)]  # q^s - 1, 1 - q^s, over a denominator
    refs = [_norm_inverse(x) for x in cases]
    # a closed form forms no product: every one of these passes no _mul_int
    monkeypatch.setattr(cyclotomic, "_mul_int", None)
    for x, ref in zip(cases, refs):
        inv = x.invert()
        assert inv == ref, (m, x)
        _assert_canonical(inv)


@pytest.mark.parametrize("m", range(5, 37))
def test_q_bracket_matches_its_defining_quotient(m):
    ctx = field_init(m)
    for step in (1, -1, 2, -2, 3, 4, -4):
        # the norm product, so that the bracket is not checked against the
        # closed form 1/(q^s - 1) = sum(i * q^(s*i)) / n of ``CycNum.invert``
        inv = _norm_inverse(ctx.q_pow(step) - 1)
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


def _schoolbook_mod_phi(poly, m):
    """The remainder of ``poly`` (ascending integer coefficients) on long
    division by the monic Phi_m: the reference for the Z[q] kernels."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    r = list(poly) + [0] * d
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if c:
            for i, p in enumerate(phi):
                r[k - d + i] -= c * p
    assert not any(r[d:])
    return r[:d]


def _schoolbook_product(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _kernel_operands(d, rng):
    """Dense vectors, vectors with 1-3 nonzeros, and coefficients near 2^64."""
    out = [[rng.randrange(-9, 10) for _ in range(d)] for _ in range(2)]
    for count in (1, 2, 3):
        vec = [0] * d
        for i in rng.sample(range(d), min(count, d)):
            vec[i] = rng.choice((-1, 1)) * rng.randrange(1, 4)
        out.append(vec)
    out.append([rng.choice((-1, 1)) * (2 ** 64 + rng.randrange(-99, 100)) if rng.random() < 0.7 else 0
                for _ in range(d)])
    return out


def _check_kernels(m, operands, shifts):
    ctx = field_init(m)
    for a in operands:
        for b in operands:
            want = _schoolbook_mod_phi(_schoolbook_product(a, b), m)
            assert cyclotomic._mul_int(ctx, tuple(a), tuple(b)) == want, (a, b)
    for a in operands:
        for j, k in shifts:
            poly = [0] * m
            for t, x in enumerate(a):
                poly[(j * t + k) % m] += x
            want = _schoolbook_mod_phi(poly, m)
            assert cyclotomic._substitute(ctx, tuple(a), j, k) == tuple(want), (a, j, k)


@pytest.mark.parametrize("m", range(5, 65))
def test_kernels_match_long_division_by_phi(m):
    rng = random.Random(3000 + m)
    units = [j for j in range(1, m) if math.gcd(j, m) == 1]
    shifts = [(j, rng.randrange(-2 * m, 2 * m)) for j in units] + [(1, 0), (1, m - 1)]
    _check_kernels(m, _kernel_operands(len(units), rng), shifts)


@pytest.mark.parametrize("m", (997, 1000))
def test_kernels_match_long_division_by_phi_at_large_m(m):
    rng = random.Random(m)
    d = len(cyclotomic_polynomial(m)) - 1
    operands = _kernel_operands(d, rng)[2:]  # one dense operand keeps it to seconds
    shifts = [(1, 0), (1, m - 1), (1, rng.randrange(m)), (m - 1, 0), (7, rng.randrange(m)), (999, 3)]
    _check_kernels(m, operands, shifts)


def test_products_do_not_depend_on_the_order_rows_are_made():
    m = 30
    up, down = field_init(m), field_init(m)
    for k in range(m):
        # each shift of 1 by q^k reads the row of q^k
        cyclotomic._substitute(up, up.one.num, 1, k)
        cyclotomic._substitute(down, down.one.num, 1, m - 1 - k)
    rng = random.Random(m)
    operands = [tuple(a) for a in _kernel_operands(up.degree, rng)]
    for a in operands:
        for b in operands:
            assert cyclotomic._mul_int(up, a, b) == cyclotomic._mul_int(down, a, b)
        for j in (1, 7, 11, 29):
            assert cyclotomic._substitute(up, a, j, 5) == cyclotomic._substitute(down, a, j, 5)


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


@pytest.mark.parametrize("m", [5, 8, 12])
def test_unit_powers_match_square_and_multiply(m):
    # (q^t)^n is read off the q-power table; square-and-multiply by hand
    ctx = field_init(m)

    def square_and_multiply(a, n):
        out = ctx.one
        while n:
            if n & 1:
                out = out * a
            a, n = a * a, n >> 1
        return out

    for t in range(m):
        u = ctx.q_pow(t)
        for n in range(-m, 2 * m + 1):
            want = square_and_multiply(u if n >= 0 else u.invert(), abs(n))
            got = u ** n
            assert (got.num, got.den) == (want.num, want.den), (t, n)
            assert got == ctx.q_pow(t * n)


def test_power_squares_no_further_than_the_top_bit(monkeypatch):
    # square-and-multiply: one product per bit below the top and one per set
    # bit past the first, which multiplies into 1 by the unit path
    ctx = field_init(7)
    calls = []
    mul_int = cyclotomic._mul_int
    monkeypatch.setattr(cyclotomic, "_mul_int", lambda *a: calls.append(a) or mul_int(*a))
    x = 1 + ctx.q
    expected = ctx.one
    for n in range(1, 41):
        expected = expected * x
        calls.clear()
        assert x ** n == expected
        assert len(calls) == n.bit_length() + bin(n).count("1") - 2, n


@pytest.mark.parametrize("m", range(5, 65))
def test_residue_equals_the_dot_product_formula(m):
    # the residue is sum(num_t * r^t) / den mod p; a denominator 1 takes no
    # inverse, and a denominator that p divides has no residue
    ctx = field_init(m)
    p, rpow = residue_map(m)
    rng = random.Random(m)
    values = [ctx.q_pow(rng.randrange(m)) for _ in range(3)] + [-ctx.q_pow(rng.randrange(m))]
    for _ in range(8):
        nums = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(ctx.degree)]
        values.append(cyclotomic._make(ctx, nums, rng.choice((1, rng.randint(2, 10 ** 4)))))
    for x in values:
        expected = sum(n * r for n, r in zip(x.num, rpow)) * pow(x.den, -1, p) % p
        assert x.residue() == expected, (m, x.num, x.den)
    nums = [rng.randint(1, 100) for _ in range(ctx.degree)]
    assert cyclotomic._make(ctx, nums, 3 * p).residue() is None
    assert (ctx.one / p).residue() is None
