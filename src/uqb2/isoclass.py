"""Isomorphism classification of the module families.

Two routes that must agree: a parameter predicate scanning the witness range
p in [0, l-1] for the closed-form matching equations of each family, and an
independent brute-force intertwiner solver that looks for an invertible T
with A_g T = T B_g for all generator actions (row-vector right modules, so
such a T is exactly a module isomorphism).  The solver rules out an
intertwiner mod p first, when it can, and otherwise solves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .repmod import base_family, build, residue_action


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


def intertwines(r1, r2, T):
    """True iff A_g T = T B_g for every generator action."""
    for gname in r1.act:
        lhs = linalg.mat_mul(r1.act[gname], T)
        rhs = linalg.mat_mul(T, r2.act[gname])
        if lhs != rhs:
            return False
    return True


def _system_rows(act1, act2, d):
    """Sparse rows {column: coefficient} of A_g T - T B_g = 0 in the entries of T.

    Row (i, j) is built from the nonzero entries of row i of A_g and column j
    of B_g, so one generator costs O(d^2 * nnz) rather than O(d^3).  Works on
    field scalars and on residues mod p alike: each coefficient is one entry,
    or the difference A[i][i] - B[j][j] of two.
    """
    rows = []
    for gname in sorted(act1):
        arows = linalg.nonzero_rows(act1[gname])
        bcols = linalg.nonzero_rows(zip(*act2[gname]))
        for i, arow in enumerate(arows):
            for j, bcol in enumerate(bcols):
                row = {k * d + j: x for k, x in arow}
                for k, y in bcol:
                    col = i * d + k
                    x = row.get(col)
                    row[col] = -y if x is None else x - y
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def _full_rank_mod_p(r1, r2):
    """True when the system has rank d*d over F_p, which proves T = 0 is its
    only solution over the field; False decides nothing."""
    d = r1.dim
    reduced1, reduced2 = residue_action(r1), residue_action(r2)
    if reduced1 is None or reduced2 is None:
        return False
    p = reduced1[0]
    ech = linalg.SparseEchelon(p)
    for row in _system_rows(reduced1[1], reduced2[1], d):
        ech.insert(row)
        if len(ech) == d * d:
            return True
    return False


# q-power weighted combinations of a solution basis tried for invertibility
_COMBINATIONS = 8


def find_intertwiner(r1, r2):
    """Invertible solution T of the joint system A_g T = T B_g, or None.

    A system of full rank mod p has only T = 0 as solution, so None is
    returned at once.  Otherwise the solution space is computed exactly;
    between simple modules it has dimension at most one, so testing its basis
    decides.  For non-simple inputs with a solution space of dimension > 1, a
    fixed deterministic set of combinations is tried as well, which can in
    principle miss an invertible element (documented limitation; never
    triggered by the simple families this package builds).
    """
    if r1.dim != r2.dim or set(r1.act) != set(r2.act):
        return None
    if _full_rank_mod_p(r1, r2):
        return None
    ctx = r1.ctx
    d = r1.dim
    rows = _system_rows(r1.act, r2.act, d)
    basis = linalg.nullspace(rows, d * d, ctx)
    if not basis:
        return None

    def devec(vec):
        return [[vec.get(i * d + j, ctx.zero) for j in range(d)] for i in range(d)]

    mats = [devec(v) for v in basis]
    for T in mats:
        if linalg.is_invertible(T):
            return T
    if len(mats) > 1:
        # deterministic combinations with q-power weights
        for t in range(1, _COMBINATIONS + 1):
            combo = linalg.zero_matrix(ctx, d)
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
    T = linalg.zero_matrix(ctx, d)
    acc = ctx.one
    for k in range(d):
        T[k][(k + p) % d] = acc
        acc = acc * c
    return T
