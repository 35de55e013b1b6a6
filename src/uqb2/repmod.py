"""Construction and certification of the simple module families.

Seven families are built as explicit matrices over the cyclotomic field.
V1, V2, V3 are modules over the subalgebra generated by e1, e3, z, zt; the
primed families V1p, V2p, V3p extend them to modules over the full algebra
through e2 = (zt - z/(q^2-1)) e3^(-1), and V4p covers the case where e3 acts
nilpotently.  All modules are right modules: the matrix of a generator g has
row k listing the coefficients of v_k . g, so words act by left-to-right
matrix products.  Matrices are in the one format of ``linalg``: row k is a
dict {column: coefficient} holding the nonzero coefficients only, and the
constructions here write nonzero entries only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .cyclotomic import residue_map
from .pbw import FULL_RELATIONS, SUBALGEBRA_RELATIONS, evaluate_letters, evaluate_relations

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
    # the flat tuple of non-sum summands of a direct sum, else empty;
    # ``direct_sum`` is the one constructor that records them
    summands: tuple = ()


def module_dimension(ctx, family):
    if base_family(family) == "V3":
        return ctx.ord_q_pow(4)
    return ctx.l


def _running(ctx, start, step, c, n):
    """start + [k]_(q^step) * c for k = 0, ..., n-1, where [k] is the
    geometric sum of q^(step*i) over i < k: each term is the last plus the
    unit shift q^(step*(k-1)) * c, so no bracket is formed."""
    x = start
    for k in range(n):
        if k:
            x = x + ctx.q_pow(step * (k - 1)) * c
        yield x


def build(ctx, params):
    """Action matrices for one family at the given parameters.

    Entries are running sums: each row's entry is the last row's plus one
    unit shift q^j * c (a product with no convolution), with c computed once
    per build (``_running``).  V1's zt entries step by shifts of b^2/a, V2's
    and V3's e1 entries by shifts of -b^2/a and -a^2, and V4p's e3 entries
    a*[k]_(q^2) by shifts of a.  V4p's e1[k][k-2] = -q^(-2(k-1)) C(k,2) a,
    with C(k,2) the Gaussian binomial in q^2, follows the q-Pascal rule
    C(k,2) = C(k-1,2) + q^(2(k-2)) [k-1]_(q^2), so V4p inverts nothing.

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
    e1, e3 = linalg.zero_matrix(d), linalg.zero_matrix(d)
    base = base_family(family)
    if base == "V4p":
        e2 = linalg.zero_matrix(d)
        c2 = ctx.zero  # a * C(k,2)_(q^2)
        for k, x in enumerate(_running(ctx, ctx.zero, 2, a, d)):  # x = a * [k]_(q^2)
            if b:
                e1[k][k] = b * q(-2 * k)
            if k >= 2:
                c2 = c2 + q(2 * (k - 2)) * e3[k - 1][k - 2]  # that entry is a * [k-1]
                e1[k][k - 2] = -(q(-2 * (k - 1)) * c2)
            if k != d - 1:
                e2[k][k + 1] = ctx.one
            elif g:
                e2[k][0] = g
            if k:
                e3[k][k - 1] = x
        return Representation(family, params, d, {
            "e1": e1, "e2": e2, "e3": e3, "z": linalg.scalar_matrix(d, a)}, ctx)
    # e3 = diag(q^(step*k) * unit) and z = central * 1
    step, unit, central = {"V1": (-2, b, g), "V2": (2, b, g), "V3": (2, a, b)}[base]
    zt = linalg.zero_matrix(d)
    for k in range(d):
        e3[k][k] = q(step * k) * unit
    if base == "V1":
        ainv = a.invert()
        for k, x in enumerate(_running(ctx, dl * ainv, -4, b * b * ainv, d)):
            e1[k][(k + 1) % d] = a
            if x:
                zt[k][(k - 1) % d] = x
    else:
        # [k]_4 = 0 at k = 0, and at k = l/2 too in V2 when l is even
        shift = -(b * b * a.invert()) if base == "V2" else -(a * a)
        for k, x in enumerate(_running(ctx, ctx.zero, 4, shift, d)):
            if x:
                e1[k][k - 1] = x
            if base == "V2":
                zt[k][(k + 1) % d] = a
            elif k != d - 1:
                zt[k][k + 1] = ctx.one
    z = linalg.scalar_matrix(d, central)
    if family == base:
        return Representation(family, params, d, {"e1": e1, "e3": e3, "z": z, "zt": zt}, ctx)
    # e3^(-1) = diag(q^(-step*k) / unit)
    uinv = unit.invert()
    inv3 = [q(-step * k) * uinv for k in range(d)]
    e2 = [{j: x * inv3[j] for j, x in row.items()} for row in zt]
    zq = central * (q(2) - 1).invert() * uinv
    for k, row in enumerate(e2):
        x = row.pop(k, ctx.zero) - q(-step * k) * zq
        if x:
            row[k] = x
    return Representation(family, params, d, {"e1": e1, "e2": e2, "e3": e3, "z": z}, ctx)


def direct_sum(r1, r2):
    """Block-diagonal sum; useful as a non-simple control."""
    if tuple(r1.act) != tuple(r2.act) or r1.ctx.m != r2.ctx.m:
        raise ValueError("summands are not over the same algebra")
    n = r1.dim
    act = {g: [dict(row) for row in r1.act[g]] + [{n + j: x for j, x in row.items()}
                                                  for row in r2.act[g]]
           for g in r1.act}
    return Representation(family="direct_sum", params=None, dim=n + r2.dim, act=act,
                          ctx=r1.ctx, summands=(r1.summands or (r1,)) + (r2.summands or (r2,)))


def _matrix_ops():
    """``pbw.ELEMENT_OPS`` for matrices, read at call time so wrappers on ``linalg`` see them."""
    return linalg.mat_mul, linalg.mat_scale, linalg.mat_add, linalg.mat_sub


def verify_relations(rep):
    """Report {relation: residual-is-zero} over the relevant presentation."""
    relations = FULL_RELATIONS if "e2" in rep.act else SUBALGEBRA_RELATIONS
    zero = {rel.name: linalg.is_zero_matrix(r)
            for rel, r in evaluate_relations(relations, rep.act, rep.ctx, _matrix_ops())}
    return {"zero": zero, "all_zero": all(zero.values())}


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
    """The vectorized word W times the generator G."""
    out = {}
    for idx, x in W.items():
        j = idx % d
        base = idx - j
        for k, y in G[j].items():
            key = base + k
            acc = out.get(key)
            out[key] = x * y if acc is None else acc + x * y
    if p is not None:
        out = {k: v % p for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


def spin(gens, start, p=None):
    """Basis of the span of all words in the d x d matrices ``gens``, applied
    to ``start``, and ``words[n] = (k, g)``: basis vector n is vector k times
    ``gens[g]`` (``words[0]`` is None).

    Words are sparse vectorized dicts {i*d + j: entry}, multiplied by the
    rows of each generator and inserted breadth first until the span is
    full or stops growing.  Words act on the right, so the span stays in the
    rows i that ``start`` occupies: at most d per row.  Over F_p (``p``
    given, entries residues) entries are reduced mod p.  A scalar generator
    is left out: c*W adds nothing to a span that holds W.
    """
    d = len(gens[0])
    target = d * len({k // d for k in start})
    rows = [(g, G) for g, G in enumerate(gens) if linalg.scalar_of(G) is None]
    span = linalg.SparseEchelon(p)
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


def identity_word(d, one):
    """The d x d identity as a vectorized word, with ``one`` on the diagonal."""
    return {i * d + i: one for i in range(d)}


def word_span(gens, start, p=None):
    """Dimension of the span that ``spin`` finds."""
    return len(spin(gens, start, p)[0])


def replay(gens, start, words, p=None):
    """The words that ``spin`` recorded, applied to ``start`` under ``gens``."""
    out = [start]
    for k, g in words[1:]:
        out.append(_times(out[k], gens[g], len(gens[0]), p))
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
        lower = any(j < i for i, row in enumerate(theta) for j in row)
        if lower and any(j > i for i, row in enumerate(theta) for j in row):
            continue
        # v theta = theta[i][i] v puts v on e_0..e_i (lower) or e_i..e_(d-1): keep v short
        diag = [row.get(i, 0) for i, row in enumerate(theta)]
        once = [i for i, x in enumerate(diag) if diag.count(x) == 1]
        if once:
            return word, theta, once[0 if lower else -1]
    return None


def _eigen_system(theta, lam, p=None):
    """(theta - lam)^T, whose null space is {v : v theta = lam v}, over F_p
    when ``p`` is given; a diagonal entry that cancels is not stored."""
    rows = linalg.transpose(theta)
    for j, row in enumerate(rows):
        x = row.pop(j, 0) - lam
        if p is not None:
            x %= p
        if x:
            row[j] = x
    return rows


def eigenvectors(theta, lam, ctx=None, p=None):
    """Basis of the row vectors v with v theta = lam v, over ``ctx`` or F_p.

    On a triangular theta, lam on no diagonal entry (an absent one is zero)
    gives [].  On exactly one, at i, v is found by substitution: v_i = 1 and
    v_j = (sum over k != j of v_k theta[k][j]) / (lam - theta[j][j]) for j
    from i down (lower) or up (upper), each row of theta read once; then v
    is scaled so that its last nonzero entry is 1, as ``linalg.nullspace``
    scales its basis vector.  Any other input goes to ``linalg.nullspace``
    of ``_eigen_system``; both return the same basis.
    """
    d = len(theta)
    lower = all(j <= i for i, row in enumerate(theta) for j in row)
    triangular = lower or all(j >= i for i, row in enumerate(theta) for j in row)
    at = [j for j, row in enumerate(theta) if row.get(j, 0) == lam]
    if len(at) > 1 or not triangular:
        return linalg.nullspace(_eigen_system(theta, lam, p), d, ctx, p)
    if not at:
        return []
    if p is None:
        one, inv, red = ctx.one, lambda x: x.invert(), lambda x: x
    else:
        one, inv, red = 1, lambda x: pow(x, -1, p), lambda x: x % p
    i = at[0]
    v, acc = {}, {i: one}  # acc[j]: v_k theta[k][j] summed over the rows k solved
    for k in range(i, -1, -1) if lower else range(i, d):
        x = red(acc.pop(k, 0))
        if not x:
            continue
        if k != i:
            x = red(x * inv(lam - theta[k].get(k, 0)))
        v[k] = x
        for j, y in theta[k].items():
            if j != k:
                acc[j] = acc[j] + x * y if j in acc else x * y
    last = max(v)
    if last == i:
        return [v]
    c = inv(v[last])
    return [{k: red(x * c) for k, x in v.items()}]


def norton_test(gens, p):
    """Norton's irreducibility test on residue matrices over F_p.

    With theta and lambda = theta[i][i] from ``choose_theta``, theta - lambda
    has nullity 1: v(theta - lambda) = 0 and w(theta - lambda)^T = 0.  theta
    and theta^T are triangular with lambda once on the diagonal, so
    ``eigenvectors`` finds v and w by substitution, no elimination.  If v
    spins to F_p^d under the generators and w under their transposes, every
    submodule over the closure contains v or has a quotient whose dual
    contains w, so the module is absolutely irreducible.  True only then.
    """
    chosen = choose_theta(gens, p)
    if chosen is None:
        return False
    _, theta, i = chosen
    d, lam = len(theta), theta[i].get(i, 0)
    (v,), (w,) = (eigenvectors(t, lam, p=p) for t in (theta, linalg.transpose(theta)))
    return word_span(gens, v, p) == d and word_span([linalg.transpose(G) for G in gens], w, p) == d


def is_simple(rep):
    """Absolute simplicity via the generated matrix algebra.

    A module is simple exactly when the words in its action matrices span
    the full d*d matrix space.  ``norton_test`` on the action mod p comes
    first: when it certifies, Burnside's theorem makes the span mod p d*d,
    and reduction mod p can only lower a span.  Any other outcome is decided,
    and ``span_dim`` computed, by the word closure over the field.

    A direct sum whose summands are all certified simple is decided without
    a closure: by the density theorem and Krull-Schmidt its span is the sum
    of d_i^2 over its isomorphism classes.  Summands with equal action
    matrices are isomorphic and have the same certificate, so each distinct
    action is certified once; between distinct ones
    ``isoclass.find_intertwiner`` decides exactly (its MeatAxe test decides
    every simple r1).  A sum with a summand that is not certified simple
    runs Norton's test and the closure.
    """
    distinct = []
    for s in rep.summands:
        if not any(r.dim == s.dim and r.act == s.act for r in distinct):
            distinct.append(s)
    if distinct and all(is_simple(s).simple for s in distinct):
        from .isoclass import find_intertwiner  # isoclass imports this module
        classes = []
        for s in distinct:
            if not any(r.dim == s.dim and find_intertwiner(r, s) is not None for r in classes):
                classes.append(s)
        span_dim = sum(s.dim ** 2 for s in classes)
        return SimplicityCertificate(simple=False, span_dim=span_dim, path="summands")
    target = rep.dim ** 2
    reduced = residue_action(rep)
    if reduced is not None and norton_test(list(reduced[1].values()), reduced[0]):
        return SimplicityCertificate(simple=True, span_dim=target, path="modular")
    span_dim = word_span(list(rep.act.values()), identity_word(rep.dim, rep.ctx.one))
    return SimplicityCertificate(simple=span_dim == target, span_dim=span_dim, path="exact")


def _scalar_power(M, l, ctx):
    """The scalar c with M^l = c*I, or None if M^l is not scalar, decided by
    one block Krylov certificate with no matrix power formed.

    The starts are e_0, then e_(d-1), e_(d-2), ..., e_1, each one not yet in
    the span.  Each start s gets s*M^k for k = 1..l as one-row products, and
    s*M^k for k < l go into one ``SparseEchelon`` until one adds nothing; an
    eigenvector, s*M = lambda*s, gives s*M^l = lambda^l*s.  M^l commutes with
    M, so s*M^l = c*s makes M^l act as c on the Krylov space of s: an s*M^l
    that is not a multiple of s, or two starts with different c, rule a
    scalar out, and once the span is full M^l = c*I.  The span is taken mod
    p, as a rank mod p is at most the exact rank, or over the field when an
    entry of M has no residue.
    """
    d = len(M)
    p = residue_map(ctx.m)[0] if linalg.mat_residues(M) is not None else None
    span = linalg.SparseEchelon(p)
    vec = (lambda v: v) if p is None else (lambda v: linalg.mat_residues([v])[0])
    c = None
    for i in (0, *range(d - 1, 0, -1)):
        v = {i: ctx.one}
        if len(span) == d or not span.insert(vec(v)):
            continue
        (v,) = linalg.mat_mul([v], M)
        k, grow = 1, True
        if len(v) == (i in v):  # an eigenvector
            k, v = l, {i: v[i] ** l} if v else v
        while k < l and v:  # s*M^k = 0 ends the walk
            grow = grow and span.insert(vec(v))
            (v,) = linalg.mat_mul([v], M)
            k += 1
        ci = v.get(i, ctx.zero)
        if len(v) != (i in v) or c is not None and ci != c:  # s*M^l is not c*s
            return None
        c = ci
    return c


def central_character(rep):
    """Scalars by which the distinguished commuting elements act.

    Full modules report e1^l, e2^l, e3^l, z, z1 and zt^l; subalgebra modules
    report e1^l, e3^l, zt^l and z.  Each l-th power is decided by
    ``_scalar_power``'s Krylov certificate, with no matrix power formed, and
    z and z1 are read off their matrices.  A value that is not scalar is a
    defect on a simple module, so it raises ``ArithmeticError``, which the
    conformance run records as a failed check.
    """
    ctx = rep.ctx
    act = rep.act
    if "e2" in act:
        zt, z1 = evaluate_letters(("zt", "z1"), act, ctx, _matrix_ops())
        items = {"e1^l": act["e1"], "e2^l": act["e2"], "e3^l": act["e3"], "z": act["z"],
                 "z1": z1, "zt^l": zt}
    else:
        items = {"e1^l": act["e1"], "e3^l": act["e3"], "zt^l": act["zt"], "z": act["z"]}
    out = {}
    for name, M in items.items():
        c = (_scalar_power(M, ctx.l, ctx) if name.endswith("^l")
             else linalg.scalar_of(M, ctx.zero))
        if c is None:
            raise ArithmeticError("%s failed to act as a scalar" % name)
        out[name] = c
    return out
