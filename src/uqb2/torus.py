"""Quantum torus / quantum affine space arithmetic and the embedding check.

A QCommAlgebra is a (Laurent) polynomial ring whose generators q-commute:
X_a X_b = q^(H[a][b]) X_b X_a for an antisymmetric integer matrix H.  The
normal form orders generators by index; multiplying two normal monomials
picks up q to the pairing of their exponent vectors under H.  Elements are
``pbw.SparseElement`` maps from exponent tuples to scalars, like PBW
elements: this module supplies only their product.

``verify_embedding`` realizes the four-generator algebra inside a rank-4
torus and checks that the images of all defining relations vanish: the table
``pbw.FULL_RELATIONS``, both relations on e1, e2 alone among them.  The
commutation matrix below is fixed by the relation list

    X1 X2 = q^-2 X2 X1,  X1 X3 = X3 X1,  X1 X4 = q^2 X4 X1,
    X2 X3 = X3 X2,       X2 X4 = q^-2 X4 X2,  X3 X4 = X4 X3.
"""

from __future__ import annotations

from .lattice import NAMED_MATRICES
from .pbw import (FULL_RELATIONS, GENERATOR_NAMES, SparseElement, evaluate_letters,
                  evaluate_relations)

TORUS_COMMUTATION = (
    (0, -2, 0, 2),
    (2, 0, 0, -2),
    (0, 0, 0, 0),
    (-2, 2, 0, 0),
)

# the associated quantum affine space, whose invariant factors give the PI
# degree: X2 X1 = q^-2 X1 X2, X3 X1 = q^2 X1 X3, X3 X2 = q^-2 X2 X3, Z central
AFFINE_COMMUTATION = NAMED_MATRICES["uqb2"]


class QCommAlgebra:
    """q-commuting polynomial algebra with fixed integer commutation matrix."""

    def __init__(self, ctx, skew, laurent):
        rank = len(skew)
        for a in range(rank):
            if skew[a][a]:
                raise ValueError("commutation matrix must have zero diagonal")
            for b in range(rank):
                if skew[a][b] != -skew[b][a]:
                    raise ValueError("commutation matrix must be antisymmetric")
        self.ctx = ctx
        self.rank = rank
        self.skew = tuple(tuple(row) for row in skew)
        self.laurent = laurent
        # elements combine only within one field and one commutation matrix
        self.key = (ctx.m, self.skew)
        self.NAMES = tuple("X%d" % (a + 1) for a in range(rank))

    def element(self, terms):
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != self.rank:
                raise ValueError("exponent tuple has wrong rank")
            if not self.laurent and any(e < 0 for e in exps):
                raise ValueError("negative exponents need the Laurent (torus) mode")
            c = self.ctx.scalar(coeff)
            if c:
                clean[exps] = c
        return LaurentElement(self, clean)

    def zero(self):
        return LaurentElement(self, {})

    def unit(self):
        return self.monomial((0,) * self.rank)

    def scalar(self, c):
        return self.monomial((0,) * self.rank, c)

    def monomial(self, exps, coeff=1):
        return self.element({tuple(exps): coeff})

    def gen(self, idx):
        """The idx-th generator (0-based)."""
        exps = [0] * self.rank
        exps[idx] = 1
        return self.monomial(exps)

    def _pairing(self, a, b):
        # q-exponent collected when X^a (left) absorbs X^b (right)
        total = 0
        skew = self.skew
        for u in range(self.rank):
            au = a[u]
            if not au:
                continue
            row = skew[u]
            for v in range(self.rank):
                if v < u and b[v]:
                    total += row[v] * au * b[v]
        return total

    def mul(self, x, y):
        out = {}
        for ea, ca in x.terms.items():
            for eb, cb in y.terms.items():
                exps = tuple(a + b for a, b in zip(ea, eb))
                if not self.laurent and any(e < 0 for e in exps):
                    raise ValueError("negative exponents need the Laurent (torus) mode")
                co = ca * cb * self.ctx.q_pow(self._pairing(ea, eb))
                acc = out.get(exps)
                s = co if acc is None else acc + co
                if s:
                    out[exps] = s
                elif acc is not None:
                    del out[exps]
        return LaurentElement(self, out)

    def commutes_with_generators(self, x):
        return all(not (self.mul(x, g) - self.mul(g, x)) for g in map(self.gen, range(self.rank)))


class LaurentElement(SparseElement):
    """Sparse q-commuting (Laurent) polynomial in normal-ordered form."""

    __slots__ = ()


def quantum_torus(ctx):
    return QCommAlgebra(ctx, TORUS_COMMUTATION, laurent=True)


def quantum_affine_space(ctx):
    return QCommAlgebra(ctx, AFFINE_COMMUTATION, laurent=False)


def embedding_scale(ctx):
    """The normalizing scalar q / ((q^2 - q^-2)(q - q^-1)) of the e2-image."""
    den = (ctx.q_pow(2) - ctx.q_pow(-2)) * (ctx.q - ctx.q_pow(-1))
    if not den:
        raise ZeroDivisionError("embedding scale undefined: q^4 = 1 or q^2 = 1")
    return ctx.q / den


def embedding_image(torus, gname):
    """Image of a generator inside the rank-4 quantum torus.

    e1, e3, z map to X1, X2, X3.  The e2-image is the three-term combination
    lam * (X4 + (q^-4 - 1) X2^-1 X3 + (q^-2 - 1) X2 X1^-1); with this middle
    coefficient all defining relations are preserved (the engine checks this
    rather than assuming it).
    """
    ctx = torus.ctx
    X1, X2, X3, X4 = (torus.gen(i) for i in range(4))
    if gname == "e1":
        return X1
    if gname == "e3":
        return X2
    if gname == "z":
        return X3
    if gname == "e2":
        lam = embedding_scale(ctx)
        middle = torus.monomial((0, -1, 1, 0), ctx.q_pow(-4) - 1)
        last = torus.mul(X2, torus.monomial((-1, 0, 0, 0), ctx.q_pow(-2) - 1))
        return lam * (X4 + middle + last)
    raise ValueError("unknown generator %r" % (gname,))


def verify_embedding(ctx):
    """Residuals of all defining relations under the torus realization.

    Returns a report whose ``residuals`` are all expected to vanish; the
    comparison of the image of zp (``pbw.DEFINITIONS``) with the monomial
    X2 X4 X1 is computed and reported alongside rather than asserted.
    """
    torus = quantum_torus(ctx)
    images = {g: embedding_image(torus, g) for g in GENERATOR_NAMES}
    residuals = {rel.torus_name: r for rel, r in evaluate_relations(FULL_RELATIONS, images, ctx)}
    (zp_image,) = evaluate_letters(("zp",), images, ctx)
    X1, X2, _, X4 = (torus.gen(i) for i in range(4))
    reference = X2 * X4 * X1
    return {
        "residuals": residuals,
        "all_relations_hold": all(r.is_zero() for r in residuals.values()),
        "zp_image_matches": zp_image == reference,
        "zp_difference": zp_image - reference,
    }


def affine_center_checks(ctx):
    """Commutation of the expected central monomials of the affine space."""
    A = quantum_affine_space(ctx)
    l = ctx.l
    candidates = {
        "X1^l": A.monomial((l, 0, 0, 0)),
        "X2^l": A.monomial((0, l, 0, 0)),
        "X3^l": A.monomial((0, 0, l, 0)),
        "Z": A.monomial((0, 0, 0, 1)),
        "X1X2X3": A.monomial((1, 1, 1, 0)),
    }
    return {name: A.commutes_with_generators(x) for name, x in candidates.items()}
