"""Small exact linear algebra helpers over a cyclotomic field context.

Matrices are plain lists of lists of field scalars.  Everything here is
elimination-based and exact; sparse dict vectors are used where the callers
(module simplicity certification, intertwiner solving) produce mostly-zero
data.  The action matrices have at most two nonzeros per row, so the kernels
touch nonzero entries only: ``mat_mul`` walks the nonzero ``(column, entry)``
pairs of each right-factor row, and ``mat_add``/``mat_sub`` return an entry
as it is when the other one is zero, so a zero never costs a field sum.
"""

from __future__ import annotations


def zero_matrix(ctx, n):
    z = ctx.zero
    return [[z] * n for _ in range(n)]


def identity(ctx, n):
    out = zero_matrix(ctx, n)
    for i in range(n):
        out[i][i] = ctx.one
    return out


def scalar_matrix(ctx, n, c):
    out = zero_matrix(ctx, n)
    for i in range(n):
        out[i][i] = c
    return out


def mat_add(a, b):
    return [[(x + y if x else y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[(x - y if x else -y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x and x * c for x in row] for row in a]


def nonzero_rows(a):
    """The nonzero ``(column, entry)`` pairs of each row of a."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def mat_mul(a, b, p=None):
    """a*b over the field, or over F_p when ``p`` is given (entries residues)."""
    m = len(b[0])
    zero = 0 if p is not None else a[0][0].ctx.zero if a else None
    bnz = nonzero_rows(b)
    out = []
    for arow in a:
        row = [zero] * m
        for c, brow in zip(arow, bnz):
            if c:
                for j, x in brow:
                    y = row[j]
                    row[j] = y + c * x if y else c * x
        out.append(row if p is None else [x % p for x in row])
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
    return all(not x for row in a for x in row)


def scalar_of(a):
    """The scalar c with a == c * I, or None if a is not a scalar matrix."""
    n = len(a)
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if a[i][j] != c:
                    return None
            elif a[i][j]:
                return None
    return c


def mat_rank(a):
    """Rank by exact elimination of the rows in a ``SparseEchelon``."""
    ech = SparseEchelon()
    for row in a:
        ech.insert({j: c for j, c in enumerate(row) if c})
    return len(ech)


def is_invertible(a):
    return mat_rank(a) == len(a)


class SparseEchelon:
    """Incremental reduced row echelon form over sparse dict vectors.

    ``insert`` reduces a vector against the current basis and, when a nonzero
    remainder survives, normalizes it, back-substitutes into the stored rows
    and records the new pivot.  Used to track the span of vectorized matrices.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> dict vector with that pivot == 1

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = dict(vec)
        for col in list(vec):
            if not vec.get(col):
                continue
            row = self.rows.get(col)
            if row is None:
                continue
            c = vec[col]
            for j, v in row.items():
                acc = vec.get(j)
                s = -c * v if acc is None else acc - c * v
                if s:
                    vec[j] = s
                elif acc is not None:
                    del vec[j]
        return {k: v for k, v in vec.items() if v}

    def insert(self, vec):
        """Add vec to the span; returns True if it enlarged the span."""
        rem = self.reduce(vec)
        if not rem:
            return False
        pivot = min(rem)
        inv = rem[pivot].invert()
        rem = {k: v * inv for k, v in rem.items()}
        for col, row in self.rows.items():
            c = row.get(pivot)
            if c:
                for j, v in rem.items():
                    acc = row.get(j)
                    s = -c * v if acc is None else acc - c * v
                    if s:
                        row[j] = s
                    elif acc is not None:
                        del row[j]
        self.rows[pivot] = rem
        return True


def nullspace(rows, ncols, ctx):
    """Basis of the solution space of a sparse homogeneous system.

    ``rows`` is a list of dict vectors {column: coefficient}; returns a list
    of dense solution vectors.
    """
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    pivots = ech.rows
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [ctx.zero] * ncols
        vec[fc] = ctx.one
        for pcol, row in pivots.items():
            c = row.get(fc)
            if c:
                vec[pcol] = -c
        basis.append(vec)
    return basis


# -- residues mod a prime ----------------------------------------------------
#
# Reduction to F_p can only lower a rank, so these helpers give one-sided
# certificates: a full rank mod p proves full rank over the field, and any
# other outcome decides nothing.


def mat_residues(a):
    """Entrywise ``CycNum.residue`` of a matrix, or None if an entry has none."""
    out = []
    for row in a:
        res = [c.residue() if c else 0 for c in row]
        if None in res:
            return None
        out.append(res)
    return out


class ModEchelon:
    """``SparseEchelon`` over F_p: the same incremental reduced row echelon
    form, on dict vectors of integers taken mod p."""

    def __init__(self, p):
        self.p = p
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def insert(self, vec):
        """Add vec to the span; returns True if it enlarged the span."""
        p, rows = self.p, self.rows
        vec = {k: v % p for k, v in vec.items()}
        for col in list(vec):
            c = vec.get(col)
            row = rows.get(col)
            if not c or row is None:
                continue
            for j, v in row.items():
                vec[j] = (vec.get(j, 0) - c * v) % p
        rem = {k: v for k, v in vec.items() if v}
        if not rem:
            return False
        pivot = min(rem)
        inv = pow(rem[pivot], -1, p)
        rem = {k: v * inv % p for k, v in rem.items()}
        for row in rows.values():
            c = row.get(pivot)
            if c:
                for j, v in rem.items():
                    s = (row.get(j, 0) - c * v) % p
                    if s:
                        row[j] = s
                    else:
                        del row[j]
        rows[pivot] = rem
        return True


def mod_nullspace(a, p):
    """``nullspace`` over F_p: a basis of {x : a x = 0} for a matrix of
    residues, as dict vectors."""
    ech = ModEchelon(p)
    for row in a:
        ech.insert({j: x for j, x in enumerate(row) if x})
    return [{fc: 1, **{pc: p - row[fc] for pc, row in ech.rows.items() if fc in row}}
            for fc in range(len(a[0])) if fc not in ech.rows]
