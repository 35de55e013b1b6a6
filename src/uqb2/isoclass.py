"""Isomorphism classification of the module families.

Two routes that must agree: a parameter predicate scanning the witness range
p in [0, l-1] for the closed-form matching equations of each family, and an
independent brute-force intertwiner solver that looks for an invertible T
with A_g T = T B_g for all generator actions (row-vector right modules, so
such a T is exactly a module isomorphism).  The solver spins one eigenvector
(the MeatAxe isomorphism test) mod p, else over the field; sums match summands.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cyclotomic import residue_map
from .repmod import (base_family, build, choose_theta, eigenvectors, is_simple, replay, spin,
                     word_matrix)


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


def _commute(gens1, gens2, T, p=None):
    """True iff G1 T = T G2 for each pair of generator matrices, over F_p when ``p`` is given."""
    return all(linalg.mat_mul(A, T, p) == linalg.mat_mul(T, B, p) for A, B in zip(gens1, gens2))


def intertwines(r1, r2, T):
    """True iff A_g T = T B_g for every generator action."""
    return _commute(r1.act.values(), [r2.act[g] for g in r1.act], T)


def _solve(basis1, basis2, d, p=None):
    """T with B1 T = B2 for the rows of B1 and B2, or None when B1 has rank below d."""
    ech = linalg.SparseEchelon(p)
    for u, w in zip(basis1, basis2):
        ech.insert({**u, **{d + j: x for j, x in w.items()}})
    if any(k not in ech.rows for k in range(d)):
        return None
    return [{j - d: x for j, x in ech.rows[k].items() if j >= d} for k in range(d)]


def _spun_candidate(gens1, gens2, word, i, ctx, p=None, words=None):
    """``(decided, T or None, words)`` from theta, the product of ``gens[g]``
    for g in ``word``, and lambda = theta1[i][i], over F_p or the field.

    v1 and v2 span the null spaces of theta - lambda.  Any intertwiner sends
    v1 to a multiple of v2, so once v1 spins to the whole space (basis B1,
    or ``words`` replayed) it is a multiple of the T with B1 T = B2, the same
    words on v2: T intertwines or nothing nonzero does.  An isomorphism makes
    the thetas similar, so where theta1 was chosen (no ``words``) and has
    nullity 1, nullity 0 on r2 rules it out; so does an exact nullity above
    1, but not one mod p, as reduction can only raise a nullity.
    """
    thetas = [word_matrix(gens, word, p) for gens in (gens1, gens2)]
    lam = thetas[0][i].get(i, 0 if p else ctx.zero)
    null2 = eigenvectors(thetas[1], lam, ctx, p)
    if len(null2) != 1:
        return words is None and (not null2 or p is None), None, None
    null1 = eigenvectors(thetas[0], lam, ctx, p)
    if len(null1) != 1:
        return False, None, None
    if words is None:
        basis1, words = spin(gens1, null1[0], p)
    else:
        basis1 = replay(gens1, null1[0], words, p)
    T = _solve(basis1, replay(gens2, null2[0], words, p), len(gens1[0]), p)
    if T is None:
        return False, None, None
    return True, T if _commute(gens1, gens2, T, p) else None, words


def _spin_intertwiner(r1, r2, p=None):
    """The MeatAxe isomorphism test on the actions mod p (``p`` from
    ``cyclotomic.residue_map``) or, when ``p`` is None, over the field:
    ``(True, T or None)`` when it decides, ``(False, None)`` when not.

    theta (``choose_theta`` on r1) is triangular with a diagonal entry lambda
    occurring once, so theta1 - lambda has nullity 1.  A nonzero intertwiner
    over the field reduces to a nonzero one mod p, so every "no" mod p is
    final; a T mod p that intertwines fixes the words, replayed exactly.
    """
    exact = [[r.act[g] for g in r1.act] for r in (r1, r2)]
    gens = exact if p is None else [[linalg.mat_residues(G) for G in gs] for gs in exact]
    if any(G is None for gs in gens for G in gs):
        return False, None
    chosen = choose_theta(gens[0], p)
    if chosen is None:
        return False, None
    word, _, i = chosen
    decided, T, words = _spun_candidate(*gens, word, i, r1.ctx, p)
    full_rank = False
    if p is not None and T is not None:
        full_rank = linalg.mat_rank(T, p) == r1.dim  # then so is the rank of the exact T
        decided, T, _ = _spun_candidate(*exact, word, i, r1.ctx, words=words)
    if T is not None and not (full_rank or linalg.is_invertible(T)):
        return True, None
    return decided, T


def _sum_intertwiner(r1, r2):
    """Krull-Schmidt: sums of simple modules are isomorphic exactly when their
    summands match up to order, and as isomorphism is an equivalence
    relation a greedy match finds one if there is one.  T is the block
    permutation of the summands' intertwiners.  ``direct_sum`` records the
    summands flat, so a nested sum matches summand by summand.
    """
    summands1, summands2 = r1.summands, r2.summands
    if not all(is_simple(s).simple for s in summands1 + summands2):
        raise ValueError("a summand of the direct sum is not simple")
    starts = [sum(s.dim for s in summands2[:k]) for k in range(len(summands2))]
    T, free = [], list(range(len(summands2)))
    for s1 in summands1:
        for k in free:
            S = find_intertwiner(s1, summands2[k])
            if S is not None:
                break
        else:
            return None
        free.remove(k)
        T += [{starts[k] + j: x for j, x in row.items()} for row in S]
    return T


def find_intertwiner(r1, r2):
    """Invertible T with A_g T = T B_g for every generator g, or None.

    Two recorded direct sums are decided by ``_sum_intertwiner``, any other
    pair by ``_spin_intertwiner`` mod p, else over the field, which decides
    whenever r1 has a theta there and v1 spins to the whole space, as it does
    when r1 is simple.  Any other input, such as a sum paired with a simple
    module or one whose generators all act as scalars, raises ``ValueError``.
    T is scaled as the exact nullspace scales a basis vector: its last
    nonzero entry (row-major) is 1.
    """
    if r1.dim != r2.dim or set(r1.act) != set(r2.act):
        return None
    if r1.summands and r2.summands:
        return _sum_intertwiner(r1, r2)
    decided, T = _spin_intertwiner(r1, r2, residue_map(r1.ctx.m)[0])
    if not decided:
        decided, T = _spin_intertwiner(r1, r2)
    if not decided:
        raise ValueError("the first module has no theta over the field or is not simple")
    if T is None:
        return None
    last = next(row for row in reversed(T) if row)
    return linalg.mat_scale(T, last[max(last)].invert())


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
