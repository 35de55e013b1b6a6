"""The sparse-row matrix kernels, the elimination kernel, the sparse word
closure and Norton's test against dense references written out here: the
triple-loop product, the entrywise sum and difference, the transpose,
Gaussian elimination on a dense copy and a closure of dense words over
every generator, scalar ones included.  The kernels take and return rows
{column: entry} holding the nonzero entries only; the references work on
dense lists of lists.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from uqb2 import conformance, linalg, repmod
from uqb2.cyclotomic import residue_map


def _sparse(a):
    """Rows {column: entry} of the nonzero entries of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _dense(a, ncols, zero):
    """The dense list-of-lists view of sparse rows."""
    return [[row.get(j, zero) for j in range(ncols)] for row in a]


def _stores_no_zero(a):
    return all(x for row in a for x in row.values())


def _random_scalar(ctx, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return ctx.zero
    if kind == 1:
        return ctx.scalar(rng.randint(-5, 5))
    if kind == 2:
        return ctx.q_pow(rng.randrange(ctx.m)) * rng.choice((1, -1, 2))
    return ctx.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) + ctx.q_pow(1)


def _random_matrix(ctx, rng, rows, cols):
    # one zero row and one zero column on top of the random zeros
    a = [[_random_scalar(ctx, rng) for _ in range(cols)] for _ in range(rows)]
    a[rng.randrange(rows)] = [ctx.zero] * cols
    j = rng.randrange(cols)
    for row in a:
        row[j] = ctx.zero
    return a


def _dense_mul(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b)) if a[i][k] and b[k][j]), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


SHAPES = ((1, 1, 1), (2, 3, 4), (4, 1, 3), (3, 5, 2), (5, 5, 5), (6, 2, 6))


@pytest.mark.parametrize("m", (5, 8, 12))
def test_kernels_match_dense_references(context_factory, m):
    ctx = context_factory(m)
    rng = random.Random(1000 + m)
    for n, mid, k in SHAPES:
        a = _random_matrix(ctx, rng, n, mid)
        b = _random_matrix(ctx, rng, mid, k)
        product = linalg.mat_mul(_sparse(a), _sparse(b))
        assert _dense(product, k, ctx.zero) == _dense_mul(a, b, ctx.zero), (m, n, mid, k)
        assert _stores_no_zero(product)
        c = _random_matrix(ctx, rng, n, mid)
        for out, ref in (
            (linalg.mat_add(_sparse(a), _sparse(c)),
             [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]),
            (linalg.mat_sub(_sparse(a), _sparse(c)),
             [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]),
            (linalg.mat_sub(_sparse(c), _sparse(a)),
             [[x - y for x, y in zip(rc, ra)] for ra, rc in zip(a, c)]),
        ):
            assert _dense(out, mid, ctx.zero) == ref, (m, n, mid, k)
            assert _stores_no_zero(out)


def _random_sparse(rng, n, scalar):
    """A random n x n matrix in sparse rows: about half its entries absent."""
    out = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n):
            x = scalar()
            if x and rng.random() < 0.5:
                out[i][j] = x
    return out


def _check_formats(rng, n, scalar, zero, one, p=None):
    """mat_mul (over F_p when p is given), transpose, mat_add, mat_sub and
    mat_scale on random sparse matrices against the dense references, with
    inputs whose entries cancel exactly; no output row stores a zero.  The
    last three take no p, as no caller adds matrices mod p: on residues they
    are exact integer arithmetic."""
    canon = (lambda x: x) if p is None else (lambda x: x % p)
    a, b = _random_sparse(rng, n, scalar), _random_sparse(rng, n, scalar)
    da, db = _dense(a, n, zero), _dense(b, n, zero)
    neg = [{j: -x for j, x in row.items()} for row in a]
    # a + partial cancels everywhere except where b's first row has entries
    partial = [dict(row) for row in neg]
    partial[0].update(b[0])
    dp = _dense(partial, n, zero)
    # every row of pair is (u, u, 0, ...) and row 1 of opposite is -row 0,
    # so pair * opposite is zero
    pair = [{0: one, 1: one} if n > 1 else {} for _ in range(n)]
    opposite = [dict(row) for row in b]
    if n > 1:
        opposite[1] = {j: canon(-x) for j, x in b[0].items()}
    zeros = [[zero] * n for _ in range(n)]
    c = scalar()
    cases = [
        (linalg.mat_mul(a, b, p), [[canon(x) for x in row] for row in _dense_mul(da, db, zero)]),
        (linalg.mat_mul(pair, opposite, p), zeros),
        (linalg.transpose(a), [list(col) for col in zip(*da)]),
        (linalg.mat_add(a, b), [[x + y for x, y in zip(r, s)] for r, s in zip(da, db)]),
        (linalg.mat_sub(a, b), [[x - y for x, y in zip(r, s)] for r, s in zip(da, db)]),
        (linalg.mat_add(a, neg), zeros),
        (linalg.mat_sub(a, a), zeros),
        (linalg.mat_add(a, partial), [[x + y for x, y in zip(r, s)] for r, s in zip(da, dp)]),
        (linalg.mat_scale(a, c), [[x * c for x in row] for row in da]),
        (linalg.mat_scale(a, zero), zeros),
    ]
    for out, ref in cases:
        assert len(out) == n
        assert _stores_no_zero(out)
        assert _dense(out, n, zero) == ref
    assert linalg.transpose(linalg.transpose(a)) == a


@pytest.mark.parametrize("m", (5, 8, 12))
def test_sparse_rows_over_the_field(context_factory, m):
    ctx = context_factory(m)
    rng = random.Random(2000 + m)
    for n in (1, 2, 3, 5, 7):
        _check_formats(rng, n, lambda: _random_scalar(ctx, rng), ctx.zero, ctx.one)


@pytest.mark.parametrize("p", (7, 11))
def test_sparse_rows_over_f_p(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 5, 7):
        _check_formats(rng, n, lambda: rng.randrange(p), 0, 1, p)


def test_scalar_of_edge_cases(context_factory):
    ctx = context_factory(5)
    c = ctx.q + 2
    assert linalg.scalar_of(linalg.zero_matrix(3), ctx.zero) == ctx.zero
    assert linalg.scalar_of(linalg.zero_matrix(3)) == 0
    assert linalg.scalar_of(linalg.scalar_matrix(3, c), ctx.zero) == c
    assert linalg.scalar_of(linalg.identity(ctx, 1)) == ctx.one
    missing = linalg.scalar_matrix(3, c)
    del missing[1][1]
    assert linalg.scalar_of(missing) is None
    missing_first = linalg.scalar_matrix(3, c)
    del missing_first[0][0]
    assert linalg.scalar_of(missing_first) is None
    off = linalg.scalar_matrix(3, c)
    off[2][0] = ctx.one
    assert linalg.scalar_of(off) is None
    only_off = linalg.zero_matrix(2)
    only_off[1][0] = ctx.one
    assert linalg.scalar_of(only_off) is None
    unequal = linalg.scalar_matrix(3, c)
    unequal[2][2] = ctx.one
    assert linalg.scalar_of(unequal) is None
    assert linalg.scalar_of([{0: 4}, {1: 4}], 0) == 4


def test_mat_residues_edge_cases(context_factory):
    ctx = context_factory(5)
    p, rpow = residue_map(5)
    # the entry p has residue 0 and is left out; q maps to r
    res = linalg.mat_residues([{0: ctx.scalar(p), 1: ctx.q}, {1: ctx.one}])
    assert res == [{1: rpow[1]}, {1: 1}]
    assert linalg.mat_residues([{0: ctx.one}, {1: ctx.scalar(Fraction(1, p))}]) is None
    assert linalg.mat_residues(linalg.zero_matrix(2)) == [{}, {}]


def _params(ctx, family):
    q = ctx.q
    return {
        "V1": (q, q ** 2, 2, q ** 3),
        "V2": (q ** 2, 2, q),
        "V3": (q, 2),
        "V4p": (q, 0, q ** 2),
    }[repmod.base_family(family)]


def _module(ctx, family, vals=None):
    vals = _params(ctx, family) if vals is None else vals
    return repmod.build(ctx, repmod.module_params(ctx, family, *vals))


def _dense_rank(rows, ncols, p=None):
    """Rank of integer dict rows by Gaussian elimination on a dense copy, over
    F_p or, when p is None, over Q in ``Fraction`` arithmetic."""
    canon = Fraction if p is None else (lambda x: x % p)
    a = [[canon(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col] if p is None else pow(a[rank][col], -1, p)
        for i in range(rank + 1, len(a)):
            c = a[i][col] * inv
            a[i] = [canon(x - c * y) for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _random_systems(p, count=40):
    # entries in (-p, 2p), as unreduced differences of residues can be
    rng = random.Random(p)
    systems = []
    for _ in range(count):
        ncols = rng.randint(1, 10)
        systems.append(([{j: rng.randrange(1 - p, 2 * p)
                          for j in rng.sample(range(ncols), rng.randint(0, ncols))}
                         for _ in range(rng.randint(1, 12))], ncols))
    return systems


# (rows, ncols): two pivots, their sum, a row that is zero mod 7 and a third
# pivot, so the inserts enlarge the span, twice, then not, twice, then once
_FIXED_MOD_7 = ([{0: 1, 1: 2}, {1: 3, 2: 1}, {0: 1, 1: 5, 2: 1}, {0: 7, 2: 14}, {2: 6}], 3)


@pytest.mark.parametrize("p, systems", [
    (7, [_FIXED_MOD_7]),
    (7, _random_systems(7)),
    (11, _random_systems(11)),
    (None, _random_systems(7) + _random_systems(11)),
], ids=["fixed-F7", "F7", "F11", "Q"])
def test_elimination_matches_dense_rank(context_factory, p, systems):
    """``SparseEchelon`` and ``nullspace`` over F_p and over the field: every
    insert grows the span exactly when the dense rank grows, and the
    ncols - rank solution vectors annihilate every row."""
    ctx = context_factory(5)
    zero = ctx.zero if p is None else 0
    for rows, ncols in systems:
        lifted = [{j: ctx.scalar(x) for j, x in row.items()} for row in rows] if p is None else rows
        ech, rank = linalg.SparseEchelon(p), 0
        for i, row in enumerate(lifted):
            grew = _dense_rank(rows[:i + 1], ncols, p) > rank
            assert ech.insert(row) == grew, (p, rows)
            rank += grew
        assert len(ech) == rank
        basis = linalg.nullspace(lifted, ncols, ctx, p)
        assert len(basis) == ncols - rank, (p, rows)
        for vec in basis:
            for row in lifted:
                dot = sum((x * vec[j] for j, x in row.items() if j in vec), zero)
                assert not (dot if p is None else dot % p), (p, rows, vec)
            if p is not None:
                assert all(0 < x < p for x in vec.values())
                assert all(0 <= x < p for row in ech.rows.values() for x in row.values())


def _dense_closure(gens, p=None):
    """Span dimension of all words, as dense matrices, in every generator
    (given in sparse rows)."""
    d = len(gens[0])
    if p is None:
        ctx = next(x for G in gens for row in G for x in row.values()).ctx
        zero, one = ctx.zero, ctx.one
        span, canon = linalg.SparseEchelon(), lambda x: x
    else:
        zero, one = 0, 1
        span, canon = linalg.SparseEchelon(p), lambda x: x % p

    def vec(M):
        return {i * d + j: x for i, row in enumerate(M) for j, x in enumerate(row) if x}

    gens = [_dense(G, d, zero) for G in gens]
    ident = [[one if i == j else zero for j in range(d)] for i in range(d)]
    span.insert(vec(ident))
    frontier = [ident]
    while frontier:
        nxt = []
        for W in frontier:
            for G in gens:
                P = [[canon(x) for x in row] for row in _dense_mul(W, G, zero)]
                if span.insert(vec(P)):
                    nxt.append(P)
        frontier = nxt
    return len(span)


def _check_closure(rep, exact):
    p, act = repmod.residue_action(rep)
    gens = list(act.values())
    assert repmod.word_span(gens, repmod.identity_word(rep.dim, 1), p) == _dense_closure(gens, p)
    assert repmod.word_span(list(rep.act.values()), start=repmod.identity_word(rep.dim, rep.ctx.one)) == exact


@pytest.mark.parametrize("m", (5, 7, 8, 9, 12))
def test_closure_matches_dense_closure(context_factory, m):
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        rep = _module(ctx, family)
        gens = list(rep.act.values())
        assert any(linalg.scalar_of(G) is not None for G in gens)
        # the exact dense closure is slow at d = 9; simple modules reach d^2
        exact = rep.dim ** 2 if rep.dim > 7 else _dense_closure(gens)
        assert exact == rep.dim ** 2
        _check_closure(rep, exact)


def _norton(rep):
    p, act = repmod.residue_action(rep)
    return repmod.norton_test(list(act.values()), p)


def test_closure_span_lost_mod_p(context_factory):
    ctx = context_factory(5)
    p, _ = residue_map(5)
    rep = _module(ctx, "V4p", (p, 0, 0))
    d = rep.dim
    _, act = repmod.residue_action(rep)
    assert repmod.word_span(list(act.values()), repmod.identity_word(d, 1), p) < d * d
    assert not _norton(rep)
    _check_closure(rep, _dense_closure(list(rep.act.values())))


@pytest.mark.parametrize("family", ("V2", "V4p"))
def test_closure_of_a_rebuilt_sum(context_factory, family):
    # a sum rebuilt from its matrices carries no summands, so is_simple runs
    # both closures: 2d^2 for M + N, d^2 for M + M
    ctx = context_factory(5)
    M = _module(ctx, family)
    N = _module(ctx, family, (1,) * len(_params(ctx, family)))
    d = M.dim
    for other, span in ((M, d * d), (N, 2 * d * d)):
        total = dataclasses.replace(repmod.direct_sum(M, other), summands=())
        assert _dense_closure(list(total.act.values())) == span
        assert not _norton(total)
        assert repmod.is_simple(total) == repmod.SimplicityCertificate(False, span, "exact")
        _check_closure(total, span)


@pytest.mark.parametrize("m", (5, 7, 8, 9, 12))
def test_norton_certifies_the_families(context_factory, m):
    # a certificate must mean a full span of the words mod p
    ctx = context_factory(m)
    for family in repmod.FAMILIES:
        rep = _module(ctx, family)
        p, act = repmod.residue_action(rep)
        assert repmod.norton_test(list(act.values()), p), (m, family)
        assert _dense_closure(list(act.values()), p) == rep.dim ** 2, (m, family)


E01, E10 = _sparse([[0, 1], [0, 0]]), _sparse([[0, 0], [1, 0]])


@pytest.mark.parametrize("x", (_sparse([[1, 0], [0, 2]]), _sparse([[2, 0], [0, 1]])))
@pytest.mark.parametrize("y", (E01, E10))
def test_norton_declines_on_a_reducible_plane(x, y):
    # theta = x is diagonal, so lambda = x[1][1] and both null vectors are
    # e1: with y = E01 (e0 -> e1) the spin of e1 is the submodule <e1> and
    # the dual spin reaches all of V*; with y = E10 e1 spins to all of V and
    # only the dual spin finds the submodule <e0>
    p = 7
    assert _dense_closure([x, y], p) == 3
    assert not repmod.norton_test([x, y], p)
    swap = _sparse([[0, 1], [1, 0]])  # E01 + E10: no line is invariant
    assert _dense_closure([x, swap], p) == 4
    assert repmod.norton_test([x, swap], p)


def test_norton_declines_where_a_repeated_eigenvalue_would_certify():
    # lambda = 1 occurs twice on diag(1, 1, 2) and its null space is the plane
    # <e0, e1>; e0 spins to all of V under x and y and under their transposes
    # (both are symmetric), yet e0 - e1 spans a submodule
    p = 7
    x, y = _sparse([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), _sparse([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert _dense_closure([x, y], p) == 5
    assert repmod.word_span([x, y], {0: 1}, p) == 3
    assert not repmod.norton_test([x, y], p)


def test_norton_certifies_every_conformance_sample(context_factory):
    # a narrower search for theta would send these to the exact closure
    for m in range(5, 33):
        ctx = context_factory(m)
        for family in repmod.FAMILIES:
            for params in conformance._sample_params(ctx, family):
                assert _norton(repmod.build(ctx, params)), (m, family, params)
