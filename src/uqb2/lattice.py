"""Integer matrix toolkit: Smith normal form, PI degree, kernel lattices.

Everything here is exact integer arithmetic on small (typically 4x4)
matrices, so the algorithms favour simplicity: elementary row/column
operations with smallest-pivot selection for the Smith form, and the
minimal points among the residues of the kernel lattice for the
nonnegative kernel semigroup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# Built-in commutation matrices exposed through the command-line interface.
# "uqb2" / "balg" are the 4x4 integral matrices whose invariant factors give
# the polynomial-identity degree of the full algebra and of the e1/e3/z/zt
# subalgebra; "qaspace" is the q^2-weighted matrix of the associated
# quasipolynomial algebra whose kernel describes its center.
NAMED_MATRICES = {
    "uqb2": ((0, 2, -2, 0), (-2, 0, 2, 0), (2, -2, 0, 0), (0, 0, 0, 0)),
    "balg": ((0, 0, 0, 0), (0, 0, 2, -2), (0, -2, 0, 0), (0, 2, 0, 0)),
    "qaspace": ((0, 1, -1, 0), (-1, 0, 1, 0), (1, -1, 0, 0), (0, 0, 0, 0)),
}


@dataclass(frozen=True)
class SNFDecomposition:
    """U * H * V = D with unimodular U, V and divisibility chain on diag."""

    U: tuple
    D: tuple
    V: tuple
    diag: tuple


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(H):
    """Smith normal form of a square integer matrix.

    Returns U, D, V with U*H*V = D diagonal, U and V of determinant +-1, and
    the diagonal entries nonnegative with d1 | d2 | ... .
    """
    A = [list(map(int, row)) for row in H]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    U = _identity(n)
    V = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    for t in range(n):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    v = abs(A[i][j])
                    if v and (best is None or v < best):
                        best, pivot = v, (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                swap_rows(t, pivot[0])
                swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, n):
                if A[i][t]:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        dirty = True
            if dirty:
                continue
            # enforce the divisibility chain before moving on
            d = A[t][t]
            culprit = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if A[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)

    for i in range(n):
        if A[i][i] < 0:
            negate_row(i)

    diag = tuple(A[i][i] for i in range(n))
    freeze = lambda M: tuple(tuple(row) for row in M)
    return SNFDecomposition(U=freeze(U), D=freeze(A), V=freeze(V), diag=diag)


def determinant(M):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def pi_degree(H, m):
    """Polynomial-identity degree from the invariant factors of H.

    The nonzero invariant factors of an antisymmetric integer matrix come in
    equal pairs (h, h); the degree is the product, over one representative h
    of each pair, of the multiplicative order of q^h in the field with a
    primitive m-th root q.  This pairing formula reproduces every instance
    this package needs; other antisymmetric matrices are computed with the
    same rule.
    """
    return smith_form_and_pi_degree(H, m)[1]


def smith_form_and_pi_degree(H, m):
    """``(smith_normal_form(H), pi_degree(H, m))`` from one Smith form."""
    n = len(H)
    if any(H[a][b] != -H[b][a] for a in range(n) for b in range(n)):
        raise ValueError("PI degree needs an antisymmetric matrix")
    snf = smith_normal_form(H)
    nonzero = [d for d in snf.diag if d]
    if len(nonzero) % 2:
        raise ArithmeticError(
            "antisymmetric matrix produced an odd number of nonzero invariant factors"
        )
    if nonzero[0::2] != nonzero[1::2]:
        raise ArithmeticError("nonzero invariant factors failed to pair up")
    return snf, math.prod(m // math.gcd(m, h % m) for h in nonzero[0::2])


def kernel_mod(H, l):
    """Z-basis of the lattice {v : H v == 0 (mod l)}.

    Diagonalize H = U^-1 D V^-1; in the coordinates u = V^-1 v the condition
    is d_i u_i == 0 (mod l), so u_i runs over multiples of l / gcd(d_i, l).
    """
    if l < 1:
        raise ValueError("modulus must be >= 1")
    snf = smith_normal_form(H)
    return [tuple(l // math.gcd(d, l) * row[i] for row in snf.V) for i, d in enumerate(snf.diag)]


def nonneg_hilbert_basis(H, l):
    """Minimal generators of the semigroup S = {v >= 0 : H v == 0 (mod l)}.

    Complete for every square H and every l >= 1, by four facts:

    * Decomposable means dominated.  v in S - {0} is a + b with a, b in
      S - {0} exactly when some other a in S - {0} has a <= v componentwise:
      then v - a >= 0, and it lies in the kernel lattice, which is a group.
    * Entries below l.  Each l*e_i lies in S, so a generator other than
      l*e_i has every entry below l.
    * The candidates.  Those points are the residues mod l of sum c_i b_i,
      where b_i = (l / gcd(d_i, l)) V[:, i] is the basis from ``kernel_mod``
      and 0 <= c_i < gcd(d_i, l): prod gcd(d_i, l) points in all.
    * The generators.  They are the componentwise-minimal points among those
      residues and the l*e_i.  One pass in increasing coordinate sum, keeping
      v when no kept point lies below it, finds them.
    """
    basis = kernel_mod(H, l)
    n = len(basis)
    # V[:, i] is primitive, so gcd(d_i, l), the order of b_i mod l, is l over
    # the gcd of b_i's entries with l
    orders = [range(l // math.gcd(l, *b)) for b in basis]
    candidates = {tuple(sum(c * b[r] for c, b in zip(cs, basis)) % l for r in range(n))
                  for cs in itertools.product(*orders)} - {(0,) * n}
    candidates |= {tuple(l * (i == j) for j in range(n)) for i in range(n)}
    kept = []
    for v in sorted(candidates, key=sum):
        if not any(all(x <= y for x, y in zip(a, v)) for a in kept):
            kept.append(v)
    return sorted(kept)
