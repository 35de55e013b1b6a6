"""PBW normal forms for the four-generator presentation of U_q^+(B_2).

The algebra is generated by e1, e2, e3 and z subject to

    e_i z = z e_i          (z is central)
    e1 e3 = q^-2 e3 e1
    e2 e3 = q^2 e3 e2 + z
    e2 e1 = q^-2 e1 e2 - q^-2 e3

and the ordered monomials z^i e3^j e1^k e2^n form a linear basis.  Elements
are sparse maps from exponent tuples (i, j, k, n) to nonzero field scalars.
Their sums, scalar multiples, powers, equality and printing are defined once,
in ``SparseElement``, which the quantum torus elements of ``uqb2.torus``
share; only the product differs between the two.

Products are normal-formed by repeated single-step swaps of out-of-order
adjacent generator pairs, using exactly the relations above.  The two
nontrivial power-against-power expansions, e2^n * e3^j and e2^n * e1^k, are
entries of one memo table per algebra, (n, j, k) -> e2^n * e3^j * e1^k,
seeded with e2 and filled bottom-up without recursion: a missing entry is
reached from the highest filled one below it by one e3 swap, one e1 swap or
one left product by e2 per step.  A power of one monomial with no e2, or of
e2^e alone, is written directly from the e1-e3 swap that ``mul`` applies to
a left operand with no e2.  Closed-form commutation identities are *never*
used inside the engine, they exist only as independent cross-checks
(``power_commutation_identity``).  The engine runs in integer arithmetic: the
memo table holds integer vectors in Z[q], each operand of a product is put
over one denominator, and one canonical ``CycNum`` is made per output term.

The defining relations are also written once as data, in ``FULL_RELATIONS``
and ``SUBALGEBRA_RELATIONS``, and ``evaluate_relations`` evaluates them on
any images of the letters: PBW elements, torus elements or matrices.  The
rewrite rules above are written by hand and never read the table; the table
is what the engine, the torus realization and the modules are checked
against.  The distinguished elements zt, z1 and zp are written once beside
it, in ``DEFINITIONS``, and built on the same images (``evaluate_letters``).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CycNum, _make, _mul_int, _substitute

GENERATOR_NAMES = ("e1", "e2", "e3", "z")


class Relation(NamedTuple):
    """A defining relation: its residual, the sum of its terms, must vanish.

    A term is (coefficient, word): the coefficient is a Laurent polynomial in
    q written {exponent: integer}, and the word is a product of letters read
    left to right.  ``name`` is the key ``uqb2 check-module`` prints and
    ``torus_name`` the key ``uqb2 torus-check`` prints (None off the torus).
    """

    name: str
    torus_name: str | None
    terms: tuple


# the presentation of U_q^+(B_2) on e1, e2, e3, z; the last two relations are
# the Serre relations on e1, e2 alone
FULL_RELATIONS = (
    Relation("e1*z-z*e1", "e1_z", (({0: 1}, "e1 z"), ({0: -1}, "z e1"))),
    Relation("e2*z-z*e2", "e2_z", (({0: 1}, "e2 z"), ({0: -1}, "z e2"))),
    Relation("e3*z-z*e3", "e3_z", (({0: 1}, "e3 z"), ({0: -1}, "z e3"))),
    Relation("e1*e3-q^-2*e3*e1", "e1_e3", (({0: 1}, "e1 e3"), ({-2: -1}, "e3 e1"))),
    Relation("e2*e3-q^2*e3*e2-z", "e2_e3",
             (({0: 1}, "e2 e3"), ({2: -1}, "e3 e2"), ({0: -1}, "z"))),
    Relation("e2*e1-q^-2*e1*e2+q^-2*e3", "e2_e1",
             (({0: 1}, "e2 e1"), ({-2: -1}, "e1 e2"), ({-2: 1}, "e3"))),
    Relation("serre_degree3", "serre_degree3", (
        ({0: 1}, "e1 e1 e2"), ({2: -1, -2: -1}, "e1 e2 e1"), ({0: 1}, "e2 e1 e1"))),
    Relation("serre_degree4", "serre_degree4", (
        ({0: 1}, "e2 e2 e2 e1"), ({2: -1, 0: -1, -2: -1}, "e2 e2 e1 e2"),
        ({2: 1, 0: 1, -2: 1}, "e2 e1 e2 e2"), ({0: -1}, "e1 e2 e2 e2"))),
)

# the presentation of the e1/e3/z/zt subalgebra: the e1-e3, e1-z and e3-z
# relations above, then the three that involve zt
SUBALGEBRA_RELATIONS = (
    FULL_RELATIONS[3], FULL_RELATIONS[0], FULL_RELATIONS[2],
    Relation("zt*z-z*zt", None, (({0: 1}, "zt z"), ({0: -1}, "z zt"))),
    Relation("zt*e3-q^2*e3*zt", None, (({0: 1}, "zt e3"), ({2: -1}, "e3 zt"))),
    Relation("zt*e1-e1*zt+e3^2", None,
             (({0: 1}, "zt e1"), ({0: -1}, "e1 zt"), ({0: 1}, "e3 e3"))),
)


# the distinguished elements, each a relation solved for its first letter,
# which is the sum of the other terms over minus its coefficient:
#
#     e3c = e1 e2 - q^2 e2 e1          (e3 as a commutator)
#     zc  = e2 e3 - q^2 e3 e2          (z as a commutator)
#     zt  = e2 e3 + z / (q^2 - 1)      (normal in the e2-e3-z subalgebra)
#     z1  = e1 zt + e3^2 / (q^4 - 1)   (central)
#     zp  = e1 w - q^4 w e1,  w = z + (q^2 - 1) e3 e2
#
# ``name`` is the key of ``structure.named``
DEFINITIONS = (
    Relation("e3_as_commutator", None, (({0: -1}, "e3c"), ({0: 1}, "e1 e2"), ({2: -1}, "e2 e1"))),
    Relation("z_as_commutator", None, (({0: -1}, "zc"), ({0: 1}, "e2 e3"), ({2: -1}, "e3 e2"))),
    Relation("z_tilde", None, (({0: 1, 2: -1}, "zt"), ({2: 1, 0: -1}, "e2 e3"), ({0: 1}, "z"))),
    Relation("z_one", None, (({0: 1, 4: -1}, "z1"), ({4: 1, 0: -1}, "e1 zt"), ({0: 1}, "e3 e3"))),
    Relation("w", None, (({0: -1}, "w"), ({0: 1}, "z"), ({2: 1, 0: -1}, "e3 e2"))),
    Relation("z_prime", None, (({0: -1}, "zp"), ({0: 1}, "e1 w"), ({4: -1}, "w e1"))),
)

# the product of two images, the multiple of one by a scalar, their sum and difference
ELEMENT_OPS = (operator.mul, operator.mul, operator.add, operator.sub)


def letter_image(letter, images, ctx, ops=ELEMENT_OPS):
    """The image of ``letter``; one missing from ``images`` is evaluated from
    ``DEFINITIONS`` and added to ``images``, so it is built once."""
    if letter not in images:
        (c0, _), *rest = next(r.terms for r in DEFINITIONS if r.terms[0][1] == letter)
        over = -ctx.laurent(c0)
        images[letter] = _combine(rest, images, ctx, ops,
                                  ctx.one if over == ctx.one else over.invert())
    return images[letter]


def _word_image(word, images, ctx, ops):
    """The image of ``word``, letters separated by spaces: the product of the
    images of its two halves, each looked up in and stored to ``images`` as a
    letter is, so a subword that several words share is multiplied once."""
    if word not in images:
        letters = word.split()
        if len(letters) == 1:
            return letter_image(word, images, ctx, ops)
        h = len(letters) // 2
        images[word] = ops[0](_word_image(" ".join(letters[:h]), images, ctx, ops),
                              _word_image(" ".join(letters[h:]), images, ctx, ops))
    return images[word]


def _combine(terms, images, ctx, ops, factor):
    """The sum of coefficient * factor * word over ``terms``."""
    _, scale, add, sub = ops
    total = None
    for coeff, word in terms:
        x = _word_image(word, images, ctx, ops)
        # after the first term a negative coefficient is subtracted, so the
        # scalar is more often a unit q^k: -q^k is not one at odd m
        sign = 1 if total is None or any(n > 0 for n in coeff.values()) else -1
        c = ctx.laurent({e: sign * n for e, n in coeff.items()}) * factor
        if c != ctx.one:
            x = scale(x, c)
        total = x if total is None else (add if sign > 0 else sub)(total, x)
    return total


def evaluate_relations(relations, images, ctx, ops=ELEMENT_OPS):
    """Each relation paired with its residual, in order, with every letter
    sent to its entry in ``images`` or, failing that, to its definition."""
    images = dict(images)
    return [(rel, _combine(rel.terms, images, ctx, ops, ctx.one)) for rel in relations]


def evaluate_letters(letters, images, ctx, ops=ELEMENT_OPS):
    """The value of each of ``letters``, in order: its entry in ``images`` or
    its definition, evaluated as ``evaluate_relations`` does."""
    images = dict(images)
    return [letter_image(x, images, ctx, ops) for x in letters]


_UNIT = (0, 0, 0, 0)


def _times(ctx, a, b):
    """The integer vector a * b; the row of 1 is recognised by identity."""
    one = ctx.one.num
    return b if a is one else a if b is one else tuple(_mul_int(ctx, a, b))


def _add_terms(ctx, sums, terms):
    """Add q^k * vec to the integer vector ``sums[key]`` for each (key, vec, k)."""
    one, qpow, m = ctx.one.num, ctx._qpow, ctx.m
    for key, vec, k in terms:
        if vec is one:
            vec = qpow[k % m]
        elif k % m:
            vec = _substitute(ctx, vec, 1, k)
        acc = sums.get(key)
        sums[key] = vec if acc is None else tuple(map(operator.add, acc, vec))


# the operand types that act on elements as field scalars
_SCALARS = (int, Fraction, CycNum)


class PBWAlgebra:
    """Rewriting engine over a fixed cyclotomic field context."""

    # the letters of a basis monomial, in the order of its exponent tuple
    NAMES = ("z", "e3", "e1", "e2")

    def __init__(self, ctx):
        self.ctx = ctx
        # elements combine only within one field
        self.key = ctx.m
        # the one memo table: (n, j, k) -> entries of e2^n * e3^j * e1^k,
        # seeded with e2 itself and filled bottom-up by ``_e2n``
        self._table = {(1, 0, 0): (((0, 0, 0, 1), ctx.one.num, 0),)}

    # -- element constructors -------------------------------------------------

    def element(self, terms):
        """Element from a {(i,j,k,n): scalar} mapping; zero terms are dropped."""
        clean = {}
        for key, coeff in terms.items():
            c = self.ctx.scalar(coeff)
            if c:
                clean[tuple(key)] = c
        return PBWElement(self, clean)

    def zero(self):
        return PBWElement(self, {})

    def unit(self):
        return PBWElement(self, {_UNIT: self.ctx.one})

    def generator(self, name):
        if name not in self.NAMES:
            raise ValueError("unknown generator %r" % (name,))
        return PBWElement(self, {tuple(int(a == name) for a in self.NAMES): self.ctx.one})

    def generators(self):
        """The tuple (e1, e2, e3, z)."""
        return tuple(self.generator(g) for g in GENERATOR_NAMES)

    def scalar(self, c):
        c = self.ctx.scalar(c)
        return PBWElement(self, {_UNIT: c} if c else {})

    # -- memoized power-against-power products --------------------------------
    #
    # Every coefficient here lies in Z[q], so the table holds integer vectors
    # on the power basis.  An entry is (monomial, vec, k) for the coefficient
    # q^k * vec; a unit q^k is held as (the row of 1, k), so that a product
    # of units is a sum of exponents and the q^k shift (the unit fast path of
    # ``cyclotomic._substitute``) is taken once, when a term is written.

    def _summed(self, terms):
        """Entries of the sum of ``terms``, read as ``_add_terms`` reads them."""
        sums = {}
        _add_terms(self.ctx, sums, terms)
        units, one = self.ctx._unit_exp, self.ctx.one.num
        return tuple((key, one, units[vec]) if vec in units else (key, vec, 0)
                     for key, vec in sums.items() if any(vec))

    def _e2n(self, n, j, k):
        """Entries of e2^n * e3^j * e1^k."""
        tab = self._table
        out = tab.get((n, j, k))
        if out is not None:
            return out
        one = self.ctx.one.num
        if n == 0:
            return (((0, j, k, 0), one, 0),)
        if j and k:
            # e2^n e3^j is a sum of z^a e3^b e2^c, and z^a e3^b times the
            # normal form of e2^c e1^k is in normal form
            ctx = self.ctx
            out = tab[n, j, k] = self._summed([
                ((a + p, b + qq, r, u), _times(ctx, vec, vec1), e + e1)
                for (a, b, _, c), vec, e in self._e2n(n, j, 0)
                for (p, qq, r, u), vec1, e1 in self._e2n(c, 0, k)])
            return out
        # walk down (n, j, 0) -> (n-1, j, 0) -> ... -> (1, j, 0) -> (1, j-1, 0)
        # (and likewise for e1) to the highest filled entry, then fill upward
        path, key = [], (n, j, k)
        while key not in tab:
            path.append(key)
            n, j, k = key
            key = (n - 1, j, k) if n > 1 else (1, j - 1, 0) if j else (1, 0, k - 1)
        out = tab[key]
        for key in reversed(path):
            out = tab[key] = self._step(*key, out)
        return out

    def _step(self, n, j, k, prev):
        """Entries of e2^n * e3^j * e1^k from ``prev``, the entries of the
        one below it on the walk of ``_e2n``."""
        ctx, one = self.ctx, self.ctx.one.num
        if n == 1 and not k:
            # e2 * e3^j = q^2 e3 (e2 e3^(j-1)) + z e3^(j-1)
            return self._summed([((i, b + 1, 0, c), vec, e + 2) for (i, b, _, c), vec, e in prev]
                                + [((1, j - 1, 0, 0), one, 0)])
        if n == 1:
            # e2 * e1^k = q^-2 e1 (e2 e1^(k-1)) - q^-2 e3 e1^(k-1); the fresh
            # e1 moves leftward past e3^b, so q^-2 * q^(-2b) is one shift
            minus_one = tuple(-v for v in one)
            return self._summed([((i, b, c + 1, d), vec, e - 2 - 2 * b)
                                 for (i, b, c, d), vec, e in prev]
                                + [((0, 1, k - 1, 0), minus_one, -2)])
        terms = []
        for (i, b, c, d), vec, e in prev:
            # left-multiply the monomial by e2: first push e2 past e3^b,
            # then push any produced e2 past e1^c
            for (i1, b1, _, c1), vec1, e1 in self._e2n(1, b, 0):
                lead = _times(ctx, vec, vec1)
                if c1 and c:
                    for (p, qq, r, u), vec2, e2 in self._e2n(1, 0, c):
                        terms.append(((i + i1 + p, b1 + qq, r, u + d),
                                      _times(ctx, lead, vec2), e + e1 + e2))
                else:
                    terms.append(((i + i1, b1, c, d + c1), lead, e + e1))
        return self._summed(terms)

    # -- products --------------------------------------------------------------

    def _integral(self, x):
        """(terms, D): x over D, the lcm of its denominators, with a term
        (monomial, vec, k, s) for each coefficient s * q^k * vec / D."""
        units, one = self.ctx._unit_exp, self.ctx.one.num
        D = math.lcm(*[c.den for c in x.terms.values()])
        return [(key, c.num, 0, D // c.den) if (k := units.get(c.num)) is None
                else (key, one, k, D // c.den) for key, c in x.terms.items()], D

    def mul(self, x, y):
        """The product in integer arithmetic: each operand over one
        denominator, the sums of a common scale s1 * s2 kept apart, and one
        canonical scalar made per output term."""
        ctx, e2n = self.ctx, self._e2n
        xs, dx = self._integral(x)
        ys, dy = self._integral(y)
        by_scale = {}
        for (i1, j1, k1, n1), v1, e1, s1 in xs:
            for (i2, j2, k2, n2), v2, e2, s2 in ys:
                vec = _times(ctx, v1, v2)
                i, e = i1 + i2, e1 + e2
                if not n1:
                    # no e2 on the left: e1^k1 e3^j2 = q^(-2 k1 j2) e3^j2 e1^k1
                    terms = (((i, j1 + j2, k1 + k2, n2), vec, e - 2 * k1 * j2),)
                elif not (j2 or k2):
                    terms = (((i, j1, k1, n1 + n2), vec, e),)
                else:
                    # e2^n1 e3^j2 e1^k2 from the table; e1^k1 moves past its e3^b
                    terms = [((i + a, j1 + b, k1 + c, d + n2), _times(ctx, vec, ve),
                              e + ee - 2 * k1 * b)
                             for (a, b, c, d), ve, ee in e2n(n1, j2, k2)]
                _add_terms(ctx, by_scale.setdefault(s1 * s2, {}), terms)
        total = by_scale.pop(1, {})
        for s, sums in by_scale.items():
            _add_terms(ctx, total, [(key, tuple([s * v for v in vec]), 0)
                                    for key, vec in sums.items()])
        den = dx * dy
        return PBWElement(self, {key: _make(ctx, vec, den)
                                 for key, vec in total.items() if any(vec)})

    # -- derived operations ------------------------------------------------------

    def commutator(self, x, y):
        return self.mul(x, y) - self.mul(y, x)

    def commutator_witness(self, x):
        """The first nonzero commutator of x against e1, then e2, if any.

        Returns (generator name, least monomial of the commutator, its
        coefficient), or None when x is central: e1 and e2 generate the
        algebra.
        """
        for gname in ("e1", "e2"):
            c = self.commutator(x, self.generator(gname))
            if c:
                key = min(c.terms)
                return gname, key, c.terms[key]
        return None

    def is_central(self, x):
        """True iff x commutes with e1 and e2 (which generate the algebra)."""
        return self.commutator_witness(x) is None

    def serre_residuals(self):
        """Normal forms of the two defining relations on e1, e2 alone.

        Both must reduce to zero; e3 and z enter through their commutator
        definitions baked into the rewrite rules.
        """
        images = {g: self.generator(g) for g in ("e1", "e2")}
        (_, deg3), (_, deg4) = evaluate_relations(FULL_RELATIONS[6:], images, self.ctx)
        return {"degree3": deg3, "degree4": deg4}

    def power_commutation_identity(self, index, k):
        """Residual LHS - RHS of the four power-commutation identities.

        The right-hand sides are assembled from closed-form bracket
        coefficients, independently of the rewrite engine, so a zero residual
        cross-validates the engine against the closed forms.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        ctx = self.ctx
        el = self.element
        e2 = self.generator("e2")
        if index == 1:
            lhs = self.mul(e2, el({(0, k, 0, 0): 1}))
            rhs = el({(0, k, 0, 1): ctx.q_pow(2 * k), (1, k - 1, 0, 0): ctx.q_bracket(k, 2)})
        elif index == 2:
            lhs = self.mul(el({(0, 0, 0, k): 1}), self.generator("e3"))
            rhs = el({(0, 1, 0, k): ctx.q_pow(2 * k), (1, 0, 0, k - 1): ctx.q_bracket(k, 2)})
        elif index == 3:
            lhs = self.mul(e2, el({(0, 0, k, 0): 1}))
            rhs = el({
                (0, 0, k, 1): ctx.q_pow(-2 * k),
                (0, 1, k - 1, 0): -ctx.q_pow(-2) * ctx.q_bracket(k, -4),
            })
        elif index == 4:
            if k < 2:
                raise ValueError("the fourth identity requires k >= 2")
            lhs = self.mul(el({(0, 0, 0, k): 1}), self.generator("e1"))
            sym = (ctx.q_pow(2 * k) - ctx.q_pow(-2 * k)) / (ctx.q_pow(2) - ctx.q_pow(-2))
            dbl = ((ctx.q_pow(2 * k) - 1) * (ctx.q_pow(2 * (k - 1)) - 1)) / (
                (ctx.q_pow(4) - 1) * (ctx.q_pow(2) - 1)
            )
            rhs = el({
                (0, 0, 1, k): ctx.q_pow(-2 * k),
                (0, 1, 0, k - 1): -ctx.q_pow(-2) * sym,
                (1, 0, 0, k - 2): -ctx.q_pow(-2 * (k - 1)) * dbl,
            })
        else:
            raise ValueError("identity index must be 1, 2, 3 or 4")
        return lhs - rhs


class SparseElement:
    """A finite sum of monomials with nonzero field coefficients; immutable.

    ``terms`` maps exponent tuples, one exponent per letter of ``alg.NAMES``,
    to scalars.  The arithmetic here is shared by every algebra; each algebra
    supplies only its product ``mul``, its ``scalar`` and ``unit`` elements,
    and ``key``: operands of one kind combine only when their keys agree.
    ``PBWElement`` adds its own powers of a monomial.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        # the other operand as an element of this algebra, or None
        if isinstance(other, type(self)):
            if other.alg is not self.alg and other.alg.key != self.alg.key:
                raise ValueError("operands belong to different algebras")
            return other
        if isinstance(other, _SCALARS):
            return self.alg.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, co in o.terms.items():
            acc = out.get(key)
            s = co if acc is None else acc + co
            if s:
                out[key] = s
            elif acc is not None:
                del out[key]
        return type(self)(self.alg, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.alg, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            o = self._coerce(other)
            return NotImplemented if o is None else self.alg.mul(self, o)
        c = self.alg.ctx.scalar(other)
        if not c:
            return type(self)(self.alg, {})
        return type(self)(self.alg, {k: v * c for k, v in self.terms.items()})

    # only a scalar reaches here from the left, and scalars commute with
    # everything, so this is the same product
    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self * self.alg.ctx.scalar(other).invert()

    def __pow__(self, n):
        # a linear loop, n - 1 products from x: square-and-multiply was
        # measured slower here, since squaring multiplies two large sums
        # where this multiplies by x
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        if n == 0:
            return self.alg.unit()
        out = self
        for _ in range(n - 1):
            out = self.alg.mul(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.alg.key == other.alg.key and self.terms == other.terms

    def __hash__(self):
        return hash((self.alg.key, frozenset(self.terms.items())))

    def __repr__(self):
        """The element in the grammar of ``uqb2.expr``: bracketed coefficient
        times monomial, the constant term bare, in increasing key order."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            mono = "*".join(
                name + ("" if e == 1 else "^%d" % e)
                for name, e in zip(self.alg.NAMES, key)
                if e
            )
            co = repr(self.terms[key])
            parts.append("(%s)*%s" % (co, mono) if mono else co)
        return " + ".join(parts)


class PBWElement(SparseElement):
    """A finite sum of basis monomials z^i e3^j e1^k e2^n; immutable."""

    __slots__ = ()

    def __pow__(self, n):
        # A monomial c z^i e3^j e1^k with no e2, or c e2^e alone, has its
        # power written directly: x^n = x^(n-1) x moves e1^(k(n-1)) past
        # e3^j, the swap ``mul`` applies when its left operand has no e2, so
        # (c z^i e3^j e1^k)^n = c^n q^(-jk n(n-1)) z^(in) e3^(jn) e1^(kn).
        # Any other base takes the shared loop.
        if isinstance(n, int) and n >= 1 and len(self.terms) == 1:
            ((i, j, k, e), c), = self.terms.items()
            if not e or not (i or j or k):
                c = c ** n
                if j and k:
                    c = c * self.alg.ctx.q_pow(-j * k * n * (n - 1))
                return PBWElement(self.alg, {(i * n, j * n, k * n, e * n): c})
        return super().__pow__(n)

    def as_scalar(self):
        """The field scalar this element equals, if it is one."""
        if not self.terms:
            return self.alg.ctx.zero
        if len(self.terms) == 1 and _UNIT in self.terms:
            return self.terms[_UNIT]
        raise ValueError("element is not a scalar")
