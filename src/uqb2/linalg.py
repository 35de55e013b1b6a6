"""Small exact linear algebra helpers over a cyclotomic field context or F_p.

A matrix is a list of d rows, and row i is a dict {column: entry} holding
exactly the nonzero entries: field scalars, or integer residues in [1, p)
mod a prime p.  No zero is ever stored, so two matrices are equal exactly
when their rows are, and the kernels touch nonzero entries only: ``mat_mul``
walks the rows of a into the rows of b (Gustavson's row-wise product), and
``mat_add``/``mat_sub`` merge rows and delete entries that cancel.  One exact
elimination kernel, ``SparseEchelon`` with ``nullspace`` on top, serves both
rings: given ``p`` it works over F_p.
"""

from __future__ import annotations

import operator


def zero_matrix(n):
    return [{} for _ in range(n)]


def scalar_matrix(n, c):
    return [{i: c} for i in range(n)] if c else zero_matrix(n)


def identity(ctx, n):
    return scalar_matrix(n, ctx.one)


def transpose(a):
    """The transpose of the square matrix a."""
    out = zero_matrix(len(a))
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


def _merge(a, b, op, lone):
    """Row by row, op(x, y) where both hold an entry and lone(y) where only b does."""
    out = [dict(row) for row in a]
    for row, rb in zip(out, b):
        for j, y in rb.items():
            x = row.get(j)
            if x is None:
                row[j] = lone(y)
            elif x := op(x, y):
                row[j] = x
            else:
                del row[j]
    return out


def mat_add(a, b):
    return _merge(a, b, operator.add, lambda y: y)


def mat_sub(a, b):
    return _merge(a, b, operator.sub, operator.neg)


def mat_scale(a, c):
    return [{j: x * c for j, x in row.items()} for row in a] if c else zero_matrix(len(a))


def mat_mul(a, b, p=None):
    """a*b over the field, or over F_p when ``p`` is given (entries residues):
    each entry a[i][k] scales row k of b into row i of the product."""
    out = []
    for arow in a:
        row = {}
        for k, c in arow.items():
            for j, x in b[k].items():
                y = row.get(j)
                row[j] = c * x if y is None else y + c * x
        out.append({j: r for j, x in row.items() if (r := x if p is None else x % p)})
    return out


def mat_pow(ctx, a, n):
    """a^n for n >= 0 by square-and-multiply."""
    out = identity(ctx, len(a))
    while n:
        if n & 1:
            out = mat_mul(out, a)
        n >>= 1
        if n:
            a = mat_mul(a, a)
    return out


def is_zero_matrix(a):
    return not any(a)


def scalar_of(a, zero=0):
    """The scalar c with a == c * I (``zero`` for the zero matrix), or None
    if a is not a scalar matrix."""
    c = a[0].get(0)
    if c is None:
        return None if any(a) else zero
    return c if all(len(row) == 1 and row.get(i) == c for i, row in enumerate(a)) else None


def mat_rank(a, p=None):
    """Rank by elimination of the rows in a ``SparseEchelon``, over F_p when ``p`` is given."""
    ech = SparseEchelon(p)
    for row in a:
        ech.insert(row)
    return len(ech)


def is_invertible(a):
    return mat_rank(a) == len(a)


class SparseEchelon:
    """Incremental reduced row echelon form over sparse dict vectors, over
    the field or, when ``p`` is given, over F_p with integer entries kept in
    [0, p).

    ``insert`` reduces a vector against the current basis and, when a nonzero
    remainder survives, normalizes it, back-substitutes into the stored rows
    and records the new pivot.  Used to track the span of vectorized matrices.
    """

    def __init__(self, p=None):
        self.p = p
        self.rows = {}  # pivot column -> dict vector with that pivot == 1

    def __len__(self):
        return len(self.rows)

    def _subtract(self, vec, c, row):
        """vec -= c * row in place, mod p over F_p; zero entries are deleted.
        The one elimination loop of ``reduce`` and ``insert``."""
        p = self.p
        for j, v in row.items():
            acc = vec.get(j)
            s = -c * v if acc is None else acc - c * v
            if p is not None:
                s %= p
            if s:
                vec[j] = s
            elif acc is not None:
                del vec[j]

    def reduce(self, vec):
        p, rows = self.p, self.rows
        vec = dict(vec) if p is None else {k: v % p for k, v in vec.items()}
        for col in list(vec):
            c = vec.get(col)
            row = rows.get(col)
            if c and row is not None:
                self._subtract(vec, c, row)
        return {k: v for k, v in vec.items() if v}

    def insert(self, vec):
        """Add vec to the span; returns True if it enlarged the span."""
        rem = self.reduce(vec)
        if not rem:
            return False
        p = self.p
        pivot = min(rem)
        if p is None:
            inv = rem[pivot].invert()
            rem = {k: v * inv for k, v in rem.items()}
        else:
            inv = pow(rem[pivot], -1, p)
            rem = {k: v * inv % p for k, v in rem.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                self._subtract(row, c, rem)
        self.rows[pivot] = rem
        return True


def nullspace(rows, ncols, ctx=None, p=None):
    """Basis of the solution space of a sparse homogeneous system, over the
    field of ``ctx`` or, when ``p`` is given, over F_p.

    ``rows`` is a list of dict vectors {column: coefficient}; returns a list
    of dict solution vectors, one per free column, with zero entries absent.
    """
    ech = SparseEchelon(p)
    for row in rows:
        ech.insert(row)
    one = ctx.one if p is None else 1
    return [{fc: one, **{pc: -row[fc] if p is None else p - row[fc]
                         for pc, row in ech.rows.items() if fc in row}}
            for fc in range(ncols) if fc not in ech.rows]


def mat_residues(a):
    """Entrywise ``CycNum.residue`` of a matrix, with entries whose residue
    is 0 left out, or None if an entry has none.

    Reduction to F_p can only lower a rank, so a full rank of the residues
    proves full rank over the field, and any other outcome decides nothing.
    """
    out = []
    for row in a:
        res = {j: c.residue() for j, c in row.items()}
        if None in res.values():
            return None
        out.append({j: r for j, r in res.items() if r})
    return out
