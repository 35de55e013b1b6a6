"""Exact arithmetic in the cyclotomic field Q(zeta_m).

A fixed primitive m-th root of unity plays the role of the deformation
parameter q.  Scalars are stored on the power basis 1, q, ..., q^(phi(m)-1)
with exact rational coefficients, reduced modulo the m-th cyclotomic
polynomial, so equality of scalars is literal coefficient equality and every
identity checked downstream is exact (no tolerances anywhere).

Internally a scalar keeps integer numerators over one common denominator;
this keeps the hot paths (addition, convolution, reduction) in pure integer
arithmetic with a single gcd-normalisation per operation.  Inversion stays
integral too: a = A/den has 1/a = den * P / N, where P is the product of the
nontrivial conjugates of A (q -> q^j for 1 < j < m, gcd(j, m) = 1) and
N = A * P is the norm, a rational integer (Cohen, GTM 138, section 4.3).
A unit, a rational and +-(q^s - 1) are inverted in closed form instead.
The q-bracket [k] = (q^(sk) - 1)/(q^s - 1) is the geometric sum of q^(si),
0 <= i < k, taken straight from the q-power table without any division.

Most products have an operand 1 or q^k (the relations only ever bring in
powers of q), so multiplication recognises such a unit operand by its
numerator vector (``FieldContext._unit_exp``) and skips the convolution: 1*a
is a, and q^k * A is the sum of A_t * q^(t+k) read off the q-power table
(``_substitute``), over the same denominator.  That needs no gcd: q^k is a
unit of Z[q] and the power basis is a Z-basis of Z[q], so multiplying by it
keeps the content of A.  -q^k is q^(k + m/2) for even m; for odd m it takes
the general path.  The PBW engine takes the same path on its integer vectors.

The integer kernels touch only nonzero entries.  The convolution loops over
the nonzero pairs of both operands.  Reducing x^k, k >= phi(m), and shifting
by q^k both land on a power q^t, t < m: for t < phi(m) it is a basis vector
and takes one addition, and past the basis its row in the q-power table is
read through its nonzero (index, entry) pairs.  Those rows are sparse: at
m = 16 each has one nonzero (Phi_16 = x^8 + 1), and at prime m every one but
q^(m-1) is a basis vector.  A row's pairs are made the first time a
reduction needs them (``FieldContext._pairs``).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    pairs = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in pairs:
                out[i + j] += x * y
    return out


def cyclotomic_polynomial(m):
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed as the Moebius product Phi_m = prod((x^d - 1)^mu(m/d), d | m):
    the factors with mu = +1 are multiplied in first, then those with
    mu = -1 divided out, each step one linear pass and each division exact.
    """
    # mu(s) != 0 exactly for the squarefree s | m, products of its primes
    signed = [(1, 1)]
    for p in range(2, m + 1):
        if m % p == 0 and _is_prime(p):
            signed += [(s * p, -mu) for s, mu in signed]
    poly = [1]
    for s, mu in signed:
        if mu == 1:  # times x^d - 1
            d = m // s
            poly = list(map(operator.sub, [0] * d + poly, poly + [0] * d))
    for s, mu in signed:
        if mu == -1:  # poly = out * (x^d - 1) gives out[i] = out[i - d] - poly[i]
            d = m // s
            out = [0] * d
            for c in poly[:-d]:
                out.append(out[-d] - c)
            poly = out[d:]
    return poly


# Largest accepted order of q.  A FieldContext holds m q-power vectors of
# length phi(m), so an unbounded m would exhaust memory before any check ran.
MAX_ORDER = 1000


def check_order(m):
    """Reject an order of the root of unity outside 5..MAX_ORDER (the one
    place m is validated)."""
    if not isinstance(m, int) or not 5 <= m <= MAX_ORDER:
        raise ValueError(
            "order of the root of unity must be an integer from 5 to %d" % MAX_ORDER
        )


def _is_prime(n):
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 suffice below 3.2e9."""
    if n < 2:
        return False
    for s in (2, 3, 5, 7):
        if n % s == 0:
            return n == s
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def residue_map(m):
    """(p, (r^0, ..., r^(m-1))) for the largest prime p < 2^31 with p = 1 mod m
    and a primitive m-th root of unity r mod p.

    Sending q to r is a ring map from Q(zeta_m) to F_p on every scalar whose
    denominator p does not divide, so a rank computed from residues is a lower
    bound for the exact rank.  Computed on first use, once per m.
    """
    p = (2 ** 31 - 2) // m * m + 1
    while not _is_prime(p):
        p -= m
    g = 2
    while True:
        r = pow(g, (p - 1) // m, p)
        # r^m = 1; its order is m unless r^(m/s) = 1 for a divisor s > 1
        if all(pow(r, m // s, p) != 1 for s in range(2, m + 1) if m % s == 0):
            break
        g += 1
    powers = [1]
    for _ in range(m - 1):
        powers.append(powers[-1] * r % p)
    return p, tuple(powers)


class FieldContext:
    """Arithmetic context for Q(zeta_m) with m >= 5.

    Attributes:
        m: order of the root of unity q.
        l: m for odd m, m/2 for even m (the order of q^2).
        phi: integer coefficients of the m-th cyclotomic polynomial.
        degree: phi(m), the dimension of the field over Q.
    """

    def __init__(self, m):
        check_order(m)
        self.m = m
        self.l = m if m % 2 else m // 2
        self.phi = tuple(cyclotomic_polynomial(m))
        self.degree = len(self.phi) - 1

        d = self.degree
        # x^d == -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1}); iterate upward.
        base = [-c for c in self.phi[:d]]
        powers = []
        cur = [1] + [0] * (d - 1)
        for _ in range(m):
            powers.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [cur[i] + top * base[i] for i in range(d)]
        self._qpow = powers
        # q^k row -> k, keyed by the rows themselves (no copies)
        self._unit_exp = {row: k for k, row in enumerate(powers)}
        # the nonzero (index, entry) pairs of each row q^t with t >= d, made by
        # ``_pairs`` on first use (see ``_mul_int``)
        self._sparse = [None] * m

        self.zero = CycNum(self, (0,) * d, 1)
        self.one = CycNum(self, self._qpow[0], 1)
        self.q = CycNum(self, self._qpow[1 % m], 1)

    def __repr__(self):
        return "FieldContext(m=%d, l=%d, degree=%d)" % (self.m, self.l, self.degree)

    def q_pow(self, k):
        """q^k for any integer k (negative exponents wrap around)."""
        return CycNum(self, self._qpow[k % self.m], 1)

    def _pairs(self, t):
        """The nonzero (index, entry) pairs of the q^t row, t >= degree."""
        pairs = self._sparse[t] = tuple((i, y) for i, y in enumerate(self._qpow[t]) if y)
        return pairs

    def laurent(self, coeff):
        """The scalar sum of n q^e over a {e: n} mapping, in integer arithmetic."""
        m, d, sparse = self.m, self.degree, self._sparse
        total = [0] * d
        for e, n in coeff.items():
            t = e % m
            if t < d:  # q^t is a basis vector
                total[t] += n
            else:
                for i, y in sparse[t] or self._pairs(t):
                    total[i] += n * y
        return CycNum(self, tuple(total), 1)

    def from_int(self, n):
        d = self.degree
        return CycNum(self, (n,) + (0,) * (d - 1), 1)

    def from_fraction(self, f):
        f = Fraction(f)
        d = self.degree
        return _make(self, [f.numerator] + [0] * (d - 1), f.denominator)

    def scalar(self, value):
        """Coerce an int, Fraction or CycNum into this field."""
        if isinstance(value, CycNum):
            if value.ctx.m != self.m:
                raise ValueError("scalar belongs to a different field")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        raise TypeError("cannot coerce %r into the field" % (value,))

    def ord_q_pow(self, k):
        """Multiplicative order of q^k, i.e. m / gcd(m, k)."""
        return self.m // math.gcd(self.m, k % self.m)

    def q_bracket(self, k, step):
        """[k] = (q^(step*k) - 1) / (q^step - 1), evaluated without division.

        [k] is the geometric sum of q^(step*i) over 0 <= i < k.  It depends on k
        only through q^(step*k), so k is first taken modulo the order of
        q^step, which also covers k < 0.  Requires q^step != 1, i.e. step not
        divisible by m.
        """
        if step % self.m == 0:
            raise ValueError("bracket step must not be divisible by m")
        return self.laurent(dict.fromkeys(range(0, step * (k % self.ord_q_pow(step)), step), 1))


def field_init(m):
    """Build the arithmetic context for Q(zeta_m); rejects m < 5."""
    return FieldContext(m)


def _mul_int(ctx, a, b):
    """Product of two integer power-basis vectors, reduced modulo Phi_m:
    x^k for k >= d is q^t, t = k mod m, a basis vector when t < d and
    otherwise read through the nonzero entries of its row in the q-power
    table.  Those (index, entry) pairs are made the first time a row is
    needed (``FieldContext._pairs``), because making them all with the
    context would cost more than the rest of ``field_init``."""
    d, m, sparse = ctx.degree, ctx.m, ctx._sparse
    conv = _poly_mul_int(a, b)
    out = conv[:d]
    for k in range(d, len(conv)):
        c = conv[k]
        if c:
            t = k % m
            if t < d:
                out[t] += c
            else:
                for i, y in sparse[t] or ctx._pairs(t):
                    out[i] += c * y
    return out


def _substitute(ctx, A, j, k):
    """Integer tuple of q^k * sigma_j(A), where sigma_j sends q to q^j: the
    sum of A_t * q^(j*t + k), read off the q-power table.  A row past the
    basis is read through its nonzero (index, entry) pairs, made the first
    time they are needed, as ``_mul_int`` makes them.  With j = 1 it is the
    unit fast path: q^k * A with no convolution, keeping the content of A
    (``CycNum.__mul__`` and the PBW engine both take it)."""
    m, d, sparse = ctx.m, ctx.degree, ctx._sparse
    out = [0] * d
    s = k % m  # j*t + k mod m, for t = 0, 1, ...
    for x in A:
        if x:
            if s < d:  # q^s is a basis vector
                out[s] += x
            else:
                for i, y in sparse[s] or ctx._pairs(s):
                    out[i] += x * y
        s = (s + j) % m
    return tuple(out)


def _make(ctx, nums, den):
    if den < 0:
        den = -den
        nums = [-n for n in nums]
    g = math.gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [n // g for n in nums]
    return CycNum(ctx, tuple(nums), den)


class CycNum:
    """An element of Q(zeta_m) in canonical power-basis form.

    Instances are immutable; arithmetic returns fresh values.  ``coeffs``
    exposes the rational coordinates on the power basis.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den):
        self.ctx = ctx
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.ctx.m != self.ctx.m:
                raise ValueError("operands belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        nums = [a * d2 + b * d1 for a, b in zip(self.num, o.num)]
        return _make(self.ctx, nums, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.ctx, tuple(-n for n in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        nums = [a * d2 - b * d1 for a, b in zip(self.num, o.num)]
        return _make(self.ctx, nums, d1 * d2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # an operand q^k is a unit: shift the other one a, which stays canonical
        units = self.ctx._unit_exp
        k = units.get(o.num) if o.den == 1 else None
        a = self
        if k is None and self.den == 1:
            k, a = units.get(self.num), o
        if k is None:
            return _make(self.ctx, _mul_int(self.ctx, self.num, o.num), self.den * o.den)
        if k == 0:
            return a
        return CycNum(self.ctx, _substitute(self.ctx, a.num, 1, k), a.den)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse by the norm: 1/a = prod(sigma(a), sigma != 1) / N(a).

        With a = A/den, the conjugates sigma_j(A) (q -> q^j, gcd(j, m) = 1)
        are read off the q-power table and multiplied into P pairwise; then
        N = A*P is a rational integer and 1/a = den*P/N, in integer
        arithmetic throughout.  Three inputs are answered in closed form: a
        unit q^k is inverted as q^(-k), a rational A_0/den as den/A_0, and
        A = +-(t - 1), t = q^s of order n, as +-den/n * sum(i * t^i, i < n),
        since (t - 1) * sum(i * t^i) = n when t^n = 1 and t != 1.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        ctx = self.ctx
        m, A, den, units = ctx.m, self.num, self.den, ctx._unit_exp
        if den == 1 and A in units:
            return ctx.q_pow(-units[A])
        if not any(A[1:]):
            return _make(ctx, [den] + [0] * (len(A) - 1), A[0])
        for sign in (1, -1):  # A = sign * (q^s - 1) when sign*A + 1 is q^s
            s = units.get((sign * A[0] + 1, *(sign * x for x in A[1:])))
            if s is not None:
                n = ctx.ord_q_pow(s)
                total = ctx.laurent({s * i: i for i in range(1, n)}).num
                return _make(ctx, [sign * den * c for c in total], n)
        factors = [_substitute(ctx, A, j, 0) for j in range(2, m) if math.gcd(j, m) == 1]
        # pairwise, so that the two operands of a product have similar sizes
        while len(factors) > 1:
            factors = [_mul_int(ctx, *factors[i:i + 2]) if i + 1 < len(factors)
                       else factors[i] for i in range(0, len(factors), 2)]
        P = factors[0]
        N = _mul_int(ctx, A, P)
        if any(N[1:]):
            raise ArithmeticError("the norm of a field element is not rational")
        return _make(ctx, [self.den * c for c in P], N[0])

    def residue(self):
        """Image in F_p under q -> r, with (p, r) from ``residue_map``; None
        when p divides the denominator."""
        p, rpow = residue_map(self.ctx.m)
        den = self.den
        if den % p == 0:
            return None
        s = sum(map(operator.mul, self.num, rpow))
        return (s if den == 1 else s * pow(den, -1, p)) % p

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        # a unit q^t has (q^t)^k = q^(tk), with no product
        t = self.ctx._unit_exp.get(self.num) if self.den == 1 else None
        if t is not None:
            return self.ctx.q_pow(t * k)
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.ctx.m == other.ctx.m and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.ctx.m, self.num, self.den))

    def __repr__(self):
        """The scalar in the grammar of ``uqb2.expr``, as a polynomial in q on
        the power basis; parsing the text back gives the same scalar."""
        if self.is_zero():
            return "0"
        parts = []
        for t, f in enumerate(self.coeffs):
            if not f:
                continue
            mag = abs(f)
            var = "" if t == 0 else ("q" if t == 1 else "q^%d" % t)
            if var and mag == 1:
                body = var
            elif var:
                body = "%s*%s" % (mag, var)
            else:
                body = str(mag)
            parts.append(("-" if f < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

