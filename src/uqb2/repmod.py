"""Construction and certification of the simple module families.

Seven families are built as explicit matrices over the cyclotomic field.
V1, V2, V3 are modules over the subalgebra generated by e1, e3, z, zt; the
primed families V1p, V2p, V3p extend them to modules over the full algebra
through e2 = (zt - z/(q^2-1)) e3^(-1), and V4p covers the case where e3 acts
nilpotently.  All modules are right modules: the matrix of a generator g has
row k listing the coefficients of v_k . g, so words act by left-to-right
matrix products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .cyclotomic import residue_map
from .pbw import (FULL_RELATIONS, SUBALGEBRA_RELATIONS, PBWElement, evaluate_letters,
                  evaluate_relations)

FAMILIES = ("V1", "V2", "V3", "V1p", "V2p", "V3p", "V4p")

# the subalgebra family each primed family extends: it shares that family's
# parameters and e1, e3, z actions; V4p extends none
EXTENDS = {"V1p": "V1", "V2p": "V2", "V3p": "V3"}

# parameter slots per family, primed ones under the family they extend;
# starred slots must be nonzero
_PARAM_SPEC = {
    "V1": (("alpha", True), ("beta", True), ("gamma", True), ("delta", False)),
    "V2": (("alpha", True), ("beta", True), ("gamma", True)),
    "V3": (("alpha", True), ("beta", True)),
    "V4p": (("alpha", True), ("beta", False), ("gamma", False)),
}


def base_family(family):
    """The family whose parameters and e1, e3, z actions ``family`` has."""
    return EXTENDS.get(family, family)


def _param_spec(family):
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    return _PARAM_SPEC[base_family(family)]


@dataclass(frozen=True)
class ModuleParams:
    family: str
    alpha: object = None
    beta: object = None
    gamma: object = None
    delta: object = None


def module_params(ctx, family, *values):
    """Validated parameter tuple for a family; starred slots must be nonzero."""
    spec = _param_spec(family)
    if len(values) != len(spec):
        raise ValueError(
            "family %s takes %d parameters, got %d" % (family, len(spec), len(values))
        )
    fields = {}
    for (slot, must_be_nonzero), value in zip(spec, values):
        c = ctx.scalar(value)
        if must_be_nonzero and not c:
            raise ValueError("parameter %s of %s must be nonzero" % (slot, family))
        fields[slot] = c
    return ModuleParams(family=family, **fields)


@dataclass
class Representation:
    family: str
    params: object
    dim: int
    act: dict
    ctx: object
    summands: tuple = ()  # the two modules of a direct sum, else empty

    @property
    def generator_names(self):
        return tuple(self.act)


def module_dimension(ctx, family):
    if base_family(family) == "V3":
        return ctx.ord_q_pow(4)
    return ctx.l


def build(ctx, params):
    """Action matrices for one family at the given parameters.

    A primed family V1p, V2p, V3p takes the e1, e3 and z actions of the
    subalgebra family it extends, and e2 = (zt - z/(q^2-1)) e3^(-1) with the
    diagonal e3 inverted in closed form.
    """
    family = params.family
    for slot, must in _param_spec(family):
        c = getattr(params, slot)
        if c is None:
            raise ValueError("family %s needs parameter %s" % (family, slot))
        if must and not c:
            raise ValueError("parameter %s of %s must be nonzero" % (slot, family))
    d = module_dimension(ctx, family)
    q = ctx.q_pow
    a, b, g, dl = params.alpha, params.beta, params.gamma, params.delta
    e1, e3 = linalg.zero_matrix(ctx, d), linalg.zero_matrix(ctx, d)
    base = base_family(family)
    if base == "V4p":
        e2 = linalg.zero_matrix(ctx, d)
        den_inv = ((q(4) - 1) * (q(2) - 1)).invert()
        for k in range(d):
            e1[k][k] = b * q(-2 * k)
            if k >= 2:
                e1[k][k - 2] = (
                    -q(-2 * (k - 1)) * ((q(2 * k) - 1) * (q(2 * (k - 1)) - 1) * den_inv) * a
                )
            if k != d - 1:
                e2[k][k + 1] = ctx.one
            else:
                e2[k][0] = g
            if k:
                e3[k][k - 1] = a * ctx.q_bracket(k, 2)
        return Representation(family, params, d, {
            "e1": e1, "e2": e2, "e3": e3, "z": linalg.scalar_matrix(ctx, d, a)}, ctx)
    # e3 = diag(q^(step*k) * unit) and z = central * 1
    step, unit, central = {"V1": (-2, b, g), "V2": (2, b, g), "V3": (2, a, b)}[base]
    zt = linalg.zero_matrix(ctx, d)
    for k in range(d):
        e3[k][k] = q(step * k) * unit
    if base == "V1":
        ainv = a.invert()
        for k in range(d):
            e1[k][(k + 1) % d] = a
            zt[k][(k - 1) % d] = ainv * (dl + ctx.q_bracket(k, -4) * b * b)
    elif base == "V2":
        ainv = a.invert()
        for k in range(d):
            if k:
                e1[k][k - 1] = ainv * b * b * (-ctx.q_bracket(k, 4))
            zt[k][(k + 1) % d] = a
    else:
        for k in range(d):
            if k:
                e1[k][k - 1] = a * a * (-ctx.q_bracket(k, 4))
            if k != d - 1:
                zt[k][k + 1] = ctx.one
    z = linalg.scalar_matrix(ctx, d, central)
    if family == base:
        return Representation(family, params, d, {"e1": e1, "e3": e3, "z": z, "zt": zt}, ctx)
    # e3^(-1) = diag(q^(-step*k) / unit)
    uinv = unit.invert()
    e2 = [[x and x * q(-step * j) * uinv for j, x in enumerate(row)] for row in zt]
    zq = central * (q(2) - 1).invert()
    for k in range(d):
        e2[k][k] = e2[k][k] - zq * q(-step * k) * uinv
    return Representation(family, params, d, {"e1": e1, "e2": e2, "e3": e3, "z": z}, ctx)


def direct_sum(r1, r2):
    """Block-diagonal sum; useful as a non-simple control."""
    if r1.generator_names != r2.generator_names or r1.ctx.m != r2.ctx.m:
        raise ValueError("summands are not over the same algebra")
    ctx = r1.ctx
    d = r1.dim + r2.dim
    act = {}
    for gname in r1.act:
        M = linalg.zero_matrix(ctx, d)
        for i in range(r1.dim):
            for j in range(r1.dim):
                M[i][j] = r1.act[gname][i][j]
        for i in range(r2.dim):
            for j in range(r2.dim):
                M[r1.dim + i][r1.dim + j] = r2.act[gname][i][j]
        act[gname] = M
    return Representation(family="direct_sum", params=None, dim=d, act=act, ctx=ctx,
                          summands=(r1, r2))


def _matrix_ops():
    """``pbw.ELEMENT_OPS`` for matrices, read at call time so wrappers on ``linalg`` see them."""
    return linalg.mat_mul, linalg.mat_scale, linalg.mat_add, linalg.mat_sub


def relation_residuals(rep):
    """Matrix residual of every defining relation of the relevant presentation."""
    relations = FULL_RELATIONS if "e2" in rep.act else SUBALGEBRA_RELATIONS
    residuals = evaluate_relations(relations, rep.act, rep.ctx, _matrix_ops())
    return {rel.name: r for rel, r in residuals}


def verify_relations(rep):
    """Report {relation: residual-is-zero} plus the residual matrices."""
    residuals = relation_residuals(rep)
    return {
        "zero": {name: linalg.is_zero_matrix(mat) for name, mat in residuals.items()},
        "residuals": residuals,
        "all_zero": all(linalg.is_zero_matrix(mat) for mat in residuals.values()),
    }


@dataclass(frozen=True)
class SimplicityCertificate:
    simple: bool
    span_dim: int
    # which computation decided the verdict: "modular" for Norton's test mod
    # p, "exact" for the word closure over the field, or "summands" for a
    # direct sum of certified simple modules
    path: str


def residue_action(rep):
    """(p, {generator: matrix of residues mod p}) from ``cyclotomic.residue_map``,
    or None when p divides the denominator of some entry."""
    p, _ = residue_map(rep.ctx.m)
    act = {}
    for gname, M in rep.act.items():
        act[gname] = linalg.mat_residues(M)
        if act[gname] is None:
            return None
    return p, act


def _times(W, G, d, p):
    """The vectorized word W times a generator held as its nonzero rows."""
    out = {}
    for idx, x in W.items():
        j = idx % d
        base = idx - j
        for k, y in G[j]:
            key = base + k
            acc = out.get(key)
            out[key] = x * y if acc is None else acc + x * y
    if p is not None:
        out = {k: v % p for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


def spin(gens, p=None, start=None):
    """Basis of the span of all words in the d x d matrices ``gens``, applied
    to ``start`` (the identity by default), and ``words[n] = (k, g)``: basis
    vector n is vector k times ``gens[g]`` (``words[0]`` is None).

    Words are sparse vectorized dicts {i*d + j: entry}, multiplied by the
    nonzero ``(column, entry)`` pairs of each generator row and inserted
    breadth first until the span is full or stops growing.  A ``start``
    vector (indices below d) spans at most d, not d*d.  Over F_p (``p``
    given, entries residues) entries are reduced mod p.  A scalar generator
    is left out: c*W adds nothing to a span that holds W.
    """
    d = len(gens[0])
    target = d * d if start is None else d
    rows = [(g, linalg.nonzero_rows(G)) for g, G in enumerate(gens) if linalg.scalar_of(G) is None]
    span = linalg.SparseEchelon(p)
    if start is None:
        one = gens[0][0][0].ctx.one if p is None else 1
        start = {i * d + i: one for i in range(d)}
    span.insert(start)
    basis, words, k = [start], [None], 0
    while k < len(basis) < target:
        for g, G in rows:
            P = _times(basis[k], G, d, p)
            if span.insert(P):
                basis.append(P)
                words.append((k, g))
                if len(basis) == target:
                    break
        k += 1
    return basis, words


def word_span(gens, p=None, start=None):
    """Dimension of the span that ``spin`` finds."""
    return len(spin(gens, p, start)[0])


def replay(gens, start, words, p=None):
    """The words that ``spin`` recorded, applied to ``start`` under ``gens``."""
    rows = {g: linalg.nonzero_rows(gens[g]) for _, g in words[1:]}
    out = [start]
    for k, g in words[1:]:
        out.append(_times(out[k], rows[g], len(gens[0]), p))
    return out


def word_matrix(gens, word, p=None):
    """The product of the matrices ``gens[g]`` for g in ``word`` (length 1 or 2)."""
    return gens[word[0]] if len(word) == 1 else linalg.mat_mul(gens[word[0]], gens[word[1]], p)


def choose_theta(gens, p):
    """``(word, theta, i)``: theta is the first non-scalar generator, else the
    first product G*H mod p of two distinct non-scalar ones, that is
    triangular with a diagonal entry theta[i][i] occurring once; ``word``
    holds the indices of its factors in ``gens``.  None if there is none.
    """
    idx = [g for g, G in enumerate(gens) if linalg.scalar_of(G) is None]
    for word in itertools.chain(((g,) for g in idx), ((g, h) for g in idx for h in idx if g != h)):
        theta = word_matrix(gens, word, p)
        lower = any(x for i, row in enumerate(theta) for x in row[:i])
        if lower and any(x for i, row in enumerate(theta) for x in row[i + 1:]):
            continue
        # v theta = theta[i][i] v puts v on e_0..e_i (lower) or e_i..e_(d-1): keep v short
        diag = [row[i] for i, row in enumerate(theta)]
        once = [i for i, x in enumerate(diag) if diag.count(x) == 1]
        if once:
            return word, theta, once[0 if lower else -1]
    return None


def eigenvectors(theta, lam, ctx=None, p=None):
    """Basis of the row vectors v with v theta = lam v, over ``ctx`` or F_p."""
    rows = [{i: x - lam if i == j else x for i, x in enumerate(col) if x or i == j}
            for j, col in enumerate(zip(*theta))]
    return linalg.nullspace(rows, len(theta), ctx, p)


def norton_test(gens, p):
    """Norton's irreducibility test on residue matrices over F_p.

    With theta and lambda = theta[i][i] from ``choose_theta``, theta - lambda
    has nullity 1: v(theta - lambda) = 0 and w(theta - lambda)^T = 0.  If v
    spins to F_p^d under the generators and w under their transposes, every
    submodule over the closure contains v or has a quotient whose dual
    contains w, so the module is absolutely irreducible.  True only then.
    """
    chosen = choose_theta(gens, p)
    if chosen is None:
        return False
    _, theta, i = chosen
    d = len(theta)
    (v,), (w,) = (eigenvectors(t, theta[i][i], p=p) for t in (theta, list(zip(*theta))))
    return word_span(gens, p, v) == d and word_span([list(zip(*G)) for G in gens], p, w) == d


def is_simple(rep):
    """Absolute simplicity via the generated matrix algebra.

    A module is simple exactly when the words in its action matrices span
    the full d*d matrix space.  ``norton_test`` on the action mod p comes
    first: when it certifies, Burnside's theorem makes the span mod p d*d,
    and reduction mod p can only lower a span.  Any other outcome is decided,
    and ``span_dim`` computed, by the word closure over the field.

    A direct sum of two summands that are both certified simple is decided
    without a closure: by the density theorem its span is d1^2 + d2^2, or
    d1^2 when the summands are isomorphic.  Equal action matrices are
    isomorphic; otherwise ``isoclass.find_intertwiner`` decides exactly.  A
    sum with a summand that is not certified simple runs Norton's test and
    the closure.
    """
    if rep.summands:
        r1, r2 = rep.summands
        if is_simple(r1).simple and is_simple(r2).simple:
            from .isoclass import find_intertwiner  # isoclass imports this module
            iso = r1.dim == r2.dim and (r1.act == r2.act or find_intertwiner(r1, r2) is not None)
            span_dim = r1.dim ** 2 if iso else r1.dim ** 2 + r2.dim ** 2
            return SimplicityCertificate(simple=False, span_dim=span_dim, path="summands")
    target = rep.dim ** 2
    reduced = residue_action(rep)
    if reduced is not None and norton_test(list(reduced[1].values()), reduced[0]):
        return SimplicityCertificate(simple=True, span_dim=target, path="modular")
    span_dim = word_span(list(rep.act.values()))
    return SimplicityCertificate(simple=span_dim == target, span_dim=span_dim, path="exact")


def act_matrix(rep, element):
    """Matrix by which a normal-formed algebra element acts (full modules only)."""
    if not isinstance(element, PBWElement):
        raise TypeError("expected a PBW element")
    if "e2" not in rep.act:
        raise ValueError("general elements act only on full-algebra modules")
    ctx = rep.ctx
    d = rep.dim
    out = linalg.zero_matrix(ctx, d)
    for key, co in element.terms.items():
        M = linalg.identity(ctx, d)
        for gname, e in zip(element.alg.NAMES, key):
            for _ in range(e):
                M = linalg.mat_mul(M, rep.act[gname])
        out = linalg.mat_add(out, linalg.mat_scale(M, co))
    return out


def central_character(rep):
    """Scalars by which the distinguished commuting elements act.

    Full modules report e1^l, e2^l, e3^l, z, z1 and zt^l; subalgebra modules
    report e1^l, e3^l, zt^l and z.  A non-scalar value for any of these on a
    verified-simple module indicates a bug, so it raises.
    """
    ctx = rep.ctx
    l = ctx.l
    act = rep.act
    mp = lambda M, n: linalg.mat_pow(ctx, M, n)
    if "e2" in act:
        zt, z1 = evaluate_letters(("zt", "z1"), act, ctx, _matrix_ops())
        items = {
            "e1^l": mp(act["e1"], l),
            "e2^l": mp(act["e2"], l),
            "e3^l": mp(act["e3"], l),
            "z": act["z"],
            "z1": z1,
            "zt^l": mp(zt, l),
        }
    else:
        items = {
            "e1^l": mp(act["e1"], l),
            "e3^l": mp(act["e3"], l),
            "zt^l": mp(act["zt"], l),
            "z": act["z"],
        }
    out = {}
    for name, M in items.items():
        c = linalg.scalar_of(M)
        if c is None:
            raise ArithmeticError("%s failed to act as a scalar" % name)
        out[name] = c
    return out


def e2_from_subalgebra_action(rep):
    """Reconstruct the e2 matrix of a V1/V2/V3 module via (zt - z/(q^2-1)) e3^(-1).

    Requires the e3 action to be invertible (true for these families); used to
    cross-check the closed-form primed actions.
    """
    ctx = rep.ctx
    act = rep.act
    d = rep.dim
    e3 = act["e3"]
    # e3 is diagonal for these families
    inv = linalg.zero_matrix(ctx, d)
    for k in range(d):
        if not e3[k][k]:
            raise ValueError("e3 action is not invertible")
        inv[k][k] = e3[k][k].invert()
    q2 = ctx.q_pow(2)
    combo = linalg.mat_sub(act["zt"], linalg.mat_scale(act["z"], (q2 - 1).invert()))
    return linalg.mat_mul(combo, inv)
