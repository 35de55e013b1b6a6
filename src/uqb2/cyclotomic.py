"""Exact arithmetic in the cyclotomic field Q(zeta_m).

A fixed primitive m-th root of unity plays the role of the deformation
parameter q.  Scalars are stored on the power basis 1, q, ..., q^(phi(m)-1)
with exact rational coefficients, reduced modulo the m-th cyclotomic
polynomial, so equality of scalars is literal coefficient equality and every
identity checked downstream is exact (no tolerances anywhere).

Internally a scalar keeps integer numerators over one common denominator;
this keeps the hot paths (addition, convolution, reduction) in pure integer
arithmetic with a single gcd-normalisation per operation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def _poly_divexact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead:
            raise ArithmeticError("division is not exact")
        q = c // lead
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("division left a remainder")
    return out


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def cyclotomic_polynomial(m):
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed by exact division: Phi_m = (x^m - 1) / prod(Phi_d, d | m, d < m).
    """
    polys = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        num = [0] * (d + 1)
        num[0], num[d] = -1, 1
        den = [1]
        for e in range(1, d):
            if d % e == 0:
                den = _poly_mul_int(den, polys[e])
        polys[d] = _poly_divexact(num, den)
    return polys[m]


def check_order(m):
    """Reject an order of the root of unity below 5 (the one place m is validated)."""
    if not isinstance(m, int) or m < 5:
        raise ValueError("order of the root of unity must be an integer >= 5")


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
        red = [base]
        for _ in range(d - 2):
            prev = red[-1]
            nxt = [0] + prev[:-1]
            top = prev[-1]
            if top:
                for i in range(d):
                    nxt[i] += top * base[i]
            red.append(nxt)
        self._red = [tuple(r) for r in red]

        powers = []
        cur = [1] + [0] * (d - 1)
        for _ in range(m):
            powers.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [cur[i] + top * base[i] for i in range(d)]
        self._qpow = powers

        self.zero = CycNum(self, (0,) * d, 1)
        self.one = CycNum(self, self._qpow[0], 1)
        self.q = CycNum(self, self._qpow[1 % m], 1)

    def __repr__(self):
        return "FieldContext(m=%d, l=%d, degree=%d)" % (self.m, self.l, self.degree)

    def q_pow(self, k):
        """q^k for any integer k (negative exponents wrap around)."""
        return CycNum(self, self._qpow[k % self.m], 1)

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
        """(q^(step*k) - 1) / (q^step - 1), evaluated exactly.

        Requires q^step != 1, i.e. step not divisible by m.
        """
        if step % self.m == 0:
            raise ValueError("bracket step must not be divisible by m")
        num = self.q_pow(step * k) - self.one
        den = self.q_pow(step) - self.one
        return num / den


def field_init(m):
    """Build the arithmetic context for Q(zeta_m); rejects m < 5."""
    return FieldContext(m)


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
        d = self.ctx.degree
        a, b = self.num, o.num
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        red = self.ctx._red
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = red[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return _make(self.ctx, out, self.den * o.den)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        phi = [Fraction(c) for c in self.ctx.phi]
        a = [Fraction(n, self.den) for n in self.num]
        r0, r1 = phi, _ptrim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _pdeg(r1) >= 0:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        if _pdeg(r0) != 0:
            raise ArithmeticError("the cyclotomic modulus failed to be irreducible")
        inv = [c / r0[0] for c in s0]
        inv += [Fraction(0)] * (self.ctx.degree - len(inv))
        den = math.lcm(*(f.denominator for f in inv))
        nums = [int(f * den) for f in inv[: self.ctx.degree]]
        return _make(self.ctx, nums, den)

    def residue(self):
        """Image in F_p under q -> r, with (p, r) from ``residue_map``; None
        when p divides the denominator."""
        p, rpow = residue_map(self.ctx.m)
        if self.den % p == 0:
            return None
        return sum(n * r for n, r in zip(self.num, rpow)) * pow(self.den, -1, p) % p

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
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
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


def _pdeg(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _ptrim(p):
    d = _pdeg(p)
    return p[: d + 1] if d >= 0 else []


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _psub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _ptrim([x - y for x, y in zip(a, b)])


def _pdivmod(a, b):
    a = list(a)
    db = _pdeg(b)
    q = [Fraction(0)] * max(len(a) - db, 1)
    lead = b[db]
    for i in range(_pdeg(a) - db, -1, -1):
        c = a[i + db] / lead
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    return _ptrim(q), _ptrim(a)
