"""Isomorphism classification of the module families.

Two routes that must agree: a parameter predicate scanning the witness range
p in [0, l-1] for the closed-form matching equations of each family, and an
independent brute-force intertwiner solver that looks for an invertible T
with A_g T = T B_g for all generator actions (row-vector right modules, so
such a T is exactly a module isomorphism).  The solver spins one eigenvector
mod p (the MeatAxe isomorphism test) and only then solves for T exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .repmod import (base_family, build, choose_theta, eigenvectors, replay, residue_action,
                     spin, word_matrix)


@dataclass
class IsoVerdict:
    isomorphic: bool
    witness_p: object = None
    intertwiner: object = None


def _witness(ctx, kind, p1, p2, p):
    # The matching equations below are the ones the intertwiner solver
    # confirms.  The q^(2p) twist is genuine only for the V1 family, whose
    # e1-action is an invertible cyclic shift; for the other families the
    # kernel of e1 (resp. of e3) carries an eigenvalue that any isomorphism
    # must preserve on the nose, so their remaining freedom sits in alpha^l
    # alone (V2) or vanishes entirely (V3, V4p).  A primed family V1p, V2p,
    # V3p has the parameters, and so the equations, of the family it extends.
    q = ctx.q_pow
    if kind == "V1":
        return (
            p1.alpha ** ctx.l == p2.alpha ** ctx.l
            and p1.beta == q(-2 * p) * p2.beta
            and p1.gamma == p2.gamma
            and p1.delta == p2.delta + ctx.q_bracket(p, -4) * p2.beta * p2.beta
        )
    if kind == "V2":
        # alpha1 = q^(2p) alpha2 for some p is equivalent to alpha1^l = alpha2^l:
        # the l-th roots of unity in the field are exactly the powers of q^2
        return (
            p1.alpha == q(2 * p) * p2.alpha
            and p1.beta == p2.beta
            and p1.gamma == p2.gamma
        )
    if kind == "V3":
        return p == 0 and p1.alpha == p2.alpha and p1.beta == p2.beta
    if kind == "V4p":
        return (
            p == 0
            and p1.alpha == p2.alpha
            and p1.beta == p2.beta
            and p1.gamma == p2.gamma
        )
    raise ValueError(kind)


def iso_predicate(ctx, params1, params2):
    """Closed-form isomorphism test; modules from different families never match."""
    if params1.family != params2.family:
        return IsoVerdict(isomorphic=False)
    kind = base_family(params1.family)
    for p in range(ctx.l):
        if _witness(ctx, kind, params1, params2, p):
            return IsoVerdict(isomorphic=True, witness_p=p)
    return IsoVerdict(isomorphic=False)


def iso_witnesses(ctx, params1, params2):
    """All witnesses p in [0, l-1]; more than one signals a redundant range."""
    if params1.family != params2.family:
        return []
    kind = base_family(params1.family)
    return [p for p in range(ctx.l) if _witness(ctx, kind, params1, params2, p)]


def _commute(act1, act2, T, p=None):
    """True iff A_g T = T B_g for every generator g, over F_p when ``p`` is given."""
    return all(linalg.mat_mul(act1[g], T, p) == linalg.mat_mul(T, act2[g], p) for g in act1)


def intertwines(r1, r2, T):
    """True iff A_g T = T B_g for every generator action."""
    return _commute(r1.act, r2.act, T)


def _system_rows(act1, act2, d):
    """Sparse rows {column: coefficient} of A_g T - T B_g = 0 in the entries of T.

    Row (i, j) is built from row i of A_g and row j of the transpose of B_g,
    so one generator costs O(d^2 * nnz) rather than O(d^3).  Works on field
    scalars and on residues mod p alike: each coefficient is one entry, or
    the difference A[i][i] - B[j][j] of two.
    """
    rows = []
    for gname in sorted(act1):
        bcols = linalg.transpose(act2[gname])
        for i, arow in enumerate(act1[gname]):
            for j, bcol in enumerate(bcols):
                row = {k * d + j: x for k, x in arow.items()}
                for k, y in bcol.items():
                    col = i * d + k
                    x = row.get(col)
                    row[col] = -y if x is None else x - y
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def _solve(basis1, basis2, p=None):
    """T with B1 T = B2 for the rows of B1 and B2, or None when B1 is singular."""
    d, ech = len(basis1), linalg.SparseEchelon(p)
    for u, w in zip(basis1, basis2):
        ech.insert({**u, **{d + j: x for j, x in w.items()}})
    if any(k not in ech.rows for k in range(d)):
        return None
    return [{j - d: x for j, x in ech.rows[k].items() if j >= d} for k in range(d)]


def _spin_intertwiner(r1, r2):
    """The MeatAxe isomorphism test: ``(True, T or None)`` when it decides,
    ``(False, None)`` when the system in all d*d entries of T must.

    theta (``choose_theta`` on r1 mod p) has a simple eigenvalue lambda; v1
    and v2 span the null spaces of theta - lambda on r1 and r2.  An invertible
    T makes the two thetas similar, so nullity 0 on r2 rules it out.  Any
    intertwiner sends v1 to a multiple of v2, so once v1 spins to the whole
    space (basis B1) it is a multiple of the T with B1 T = B2, the same words
    on v2.  A nonzero intertwiner over the field reduces to a nonzero one mod
    p, so a T mod p that does not intertwine rules T out too.
    """
    reduced1, reduced2 = residue_action(r1), residue_action(r2)
    if reduced1 is None or reduced2 is None:
        return False, None
    p, d, names = reduced1[0], r1.dim, list(r1.act)
    gens1, gens2 = ([red[1][g] for g in names] for red in (reduced1, reduced2))
    chosen = choose_theta(gens1, p)
    if chosen is None:
        return False, None
    word, theta, i = chosen
    lam = theta[i].get(i, 0)
    null2 = eigenvectors(word_matrix(gens2, word, p), lam, p=p)
    if not null2:
        return True, None
    basis1, words = spin(gens1, p, eigenvectors(theta, lam, p=p)[0])
    if len(null2) > 1 or len(words) < d:
        return False, None
    T = _solve(basis1, replay(gens2, null2[0], words, p), p)
    if not _commute(reduced1[1], reduced2[1], T, p):
        return True, None
    full_rank = linalg.mat_rank(T, p) == d  # then so is the rank of the exact T
    exact = [[r.act[g] for g in names] for r in (r1, r2)]
    thetas = [word_matrix(gens, word) for gens in exact]
    lam = thetas[0][i].get(i, r1.ctx.zero)
    null1, null2 = (eigenvectors(t, lam, r1.ctx) for t in thetas)
    if len(null1) != 1 or len(null2) != 1:
        return False, None
    T = _solve(replay(exact[0], null1[0], words), replay(exact[1], null2[0], words))
    if T is None:
        return False, None
    if not intertwines(r1, r2, T) or not (full_rank or linalg.is_invertible(T)):
        return True, None
    last = next(row for row in reversed(T) if row)
    return True, linalg.mat_scale(T, last[max(last)].invert())


# q-power weighted combinations of a solution basis tried for invertibility
_COMBINATIONS = 8


def find_intertwiner(r1, r2):
    """Invertible solution T of the joint system A_g T = T B_g, or None.

    ``_spin_intertwiner`` decides every pair of simple modules this package
    builds.  Other inputs, such as direct sums, solve for all d*d entries of
    T exactly, then try the solution basis and a fixed set of combinations,
    which can in principle miss an invertible one.  T is scaled as the exact
    nullspace scales a basis vector: its last nonzero entry (row-major) is 1.
    """
    if r1.dim != r2.dim or set(r1.act) != set(r2.act):
        return None
    decided, T = _spin_intertwiner(r1, r2)
    if decided:
        return T
    ctx, d = r1.ctx, r1.dim
    basis = linalg.nullspace(_system_rows(r1.act, r2.act, d), d * d, ctx)
    mats = [[{k % d: x for k, x in v.items() if k // d == i} for i in range(d)] for v in basis]
    for T in mats:
        if linalg.is_invertible(T):
            return T
    if len(mats) > 1:
        # deterministic combinations with q-power weights
        for t in range(1, _COMBINATIONS + 1):
            combo = linalg.zero_matrix(d)
            for s, M in enumerate(mats):
                combo = linalg.mat_add(combo, linalg.mat_scale(M, ctx.q_pow(t * (s + 1)) + t))
            if linalg.is_invertible(combo):
                return combo
    return None


def isomorphism_verdict(ctx, params1, params2):
    """Predicate verdict with the solver's intertwiner attached when it exists."""
    verdict = iso_predicate(ctx, params1, params2)
    if params1.family != params2.family:
        return verdict
    T = find_intertwiner(build(ctx, params1), build(ctx, params2))
    if T is not None:
        verdict.intertwiner = T
    return verdict


def explicit_shift_intertwiner(ctx, params1, params2, p):
    """The closed-form isomorphism v_k -> (a1^-1 a2)^k v_(k+p) for V1-type pairs."""
    d = ctx.l
    c = params1.alpha.invert() * params2.alpha
    T = linalg.zero_matrix(d)
    acc = ctx.one
    for k in range(d):
        T[k][(k + p) % d] = acc
        acc = acc * c
    return T
