"""Small exact linear algebra helpers over a cyclotomic field context or F_p.

Matrices are plain lists of lists of field scalars, or of integer residues
mod a prime p.  Everything here is elimination-based and exact; sparse dict
vectors are used where the callers (module simplicity certification,
intertwiner solving) produce mostly-zero data.  One elimination kernel,
``SparseEchelon`` with ``nullspace`` on top, serves both rings: given ``p``
it works over F_p.  The action matrices have at most two nonzeros per row, so
the kernels touch nonzero entries only: ``mat_mul`` walks the nonzero
``(column, entry)`` pairs of each right-factor row, and ``mat_add``/``mat_sub``
return an entry as it is when the other one is zero, so a zero never costs a
field sum.
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


def mat_rank(a, p=None):
    """Rank by elimination of the rows in a ``SparseEchelon``, over F_p when ``p`` is given."""
    ech = SparseEchelon(p)
    for row in a:
        ech.insert({j: c for j, c in enumerate(row) if c})
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
    """Entrywise ``CycNum.residue`` of a matrix, or None if an entry has none.

    Reduction to F_p can only lower a rank, so a full rank of the residues
    proves full rank over the field, and any other outcome decides nothing.
    """
    out = []
    for row in a:
        res = [c.residue() if c else 0 for c in row]
        if None in res:
            return None
        out.append(res)
    return out
