"""``repmod.eigenvectors`` against ``linalg.nullspace`` of the system
(theta - lambda)^T written out here.  On a triangular theta whose diagonal
holds lambda once the vector is found by substitution, and it must be the
very basis vector the elimination returns, scaled so that its last nonzero
entry is 1; every other input goes to ``linalg.nullspace`` itself.
"""

import random
from fractions import Fraction

import pytest

from uqb2 import conformance, cyclotomic, isoclass, linalg, repmod
from uqb2.cyclotomic import residue_map
from uqb2.linalg import nullspace


def _reference(theta, lam, ctx=None, p=None):
    """``linalg.nullspace`` of (theta - lam)^T, the transpose taken by hand."""
    d = len(theta)
    rows = [{} for _ in range(d)]
    for i, row in enumerate(theta):
        for j, x in row.items():
            rows[j][i] = x
    for j, row in enumerate(rows):
        x = row.get(j, 0) - lam
        if p is not None:
            x %= p
        if x:
            row[j] = x
        else:
            row.pop(j, None)
    return nullspace(rows, d, ctx, p)


@pytest.fixture
def nullspace_systems(monkeypatch):
    """The systems of every ``linalg.nullspace`` call made through ``repmod``."""
    calls = []
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows, *a, **k: calls.append(rows) or nullspace(rows, *a, **k))
    return calls


def _ring(m, exact):
    """(ctx, None, a pool of nonzero scalars) over the field, (None, p, None) over F_p."""
    if exact:
        ctx = cyclotomic.field_init(m)
        pool = [ctx.q_pow(k) * c for k in range(m) for c in (1, 2, -1, Fraction(1, 3))]
        return ctx, None, pool
    p = residue_map(m)[0]
    return None, p, None


def _scalar(rng, p, pool):
    return rng.choice(pool) if p is None else rng.randrange(1, p)


def _theta(rng, d, shape, diag, p, pool):
    """A seeded sparse theta of the given shape with the given diagonal
    (None for an absent entry).  "block" is lower triangular except for a
    full 2 x 2 block in its last two rows, so it is not triangular."""
    theta = [{} for _ in range(d)]
    for i in range(d):
        for j in range(d):
            below = shape in ("lower", "block") and j < i
            if (below or (shape == "upper" and j > i)) and rng.random() < 0.6:
                theta[i][j] = _scalar(rng, p, pool)
        if diag[i] is not None:
            theta[i][i] = diag[i]
    if shape == "block":
        theta[d - 2][d - 1] = _scalar(rng, p, pool)
    return theta


def _distinct(d, ctx, p):
    """d distinct nonzero diagonal values, none of them 1 or 0."""
    return list(range(2, d + 2)) if p is not None else [ctx.from_int(x) for x in range(2, d + 2)]


CASES = [
    # (shape, where lambda sits, how it sits)
    (shape, at, kind)
    for shape in ("lower", "upper", "diagonal")
    for at in ("first", "middle", "last")
    for kind in ("once", "zero")
] + [(shape, "middle", kind) for shape in ("lower", "upper") for kind in ("absent", "twice")] + [
    ("block", at, "once") for at in ("first", "middle")
]


@pytest.mark.parametrize("m, exact", [(5, False), (8, False), (12, False), (5, True),
                                      (7, True), (8, True), (12, True)])
def test_eigenvectors_match_nullspace_on_seeded_thetas(m, exact, nullspace_systems):
    ctx, p, pool = _ring(m, exact)
    one = 1 if p is not None else ctx.one
    rng = random.Random(2600 + 2 * m + exact)
    for seed_round in range(4):
        for shape, at, kind in CASES:
            d = rng.choice((5, 6, 7))
            i = {"first": 0, "middle": d // 2, "last": d - 1}[at]
            diag = _distinct(d, ctx, p)
            lam = diag[i]
            if kind == "zero":  # lambda = 0: an absent diagonal entry
                diag[i], lam = None, 0 if p is not None else ctx.zero
            elif kind == "absent":  # lambda is on no diagonal entry
                lam = 1 if p is not None else ctx.one
            elif kind == "twice":
                diag[(i + 1) % d] = lam
            theta = _theta(rng, d, shape, diag, p, pool)
            nullspace_systems.clear()
            got = repmod.eigenvectors(theta, lam, ctx, p)
            case = (m, exact, seed_round, shape, at, kind)
            assert got == _reference(theta, lam, ctx, p), case
            # substitution, or the elimination on a system with no zero stored
            assert bool(nullspace_systems) == (kind == "twice" or shape == "block"), case
            for rows in nullspace_systems:
                assert all(x for row in rows for x in row.values()), case
            if kind == "absent":
                assert got == [], case
            elif kind != "twice":
                (v,) = got
                assert v[max(v)] == one, case


def _sample_thetas(m):
    """(ctx, p, word theta mod p, its exact theta, i) for every conformance sample."""
    ctx = cyclotomic.field_init(m)
    for family in repmod.FAMILIES:
        for params in conformance._sample_params(ctx, family):
            rep = repmod.build(ctx, params)
            p, act = repmod.residue_action(rep)
            word, theta, i = repmod.choose_theta(list(act.values()), p)
            exact = repmod.word_matrix(list(rep.act.values()), word)
            yield ctx, p, theta, exact, i


@pytest.mark.parametrize("m", range(5, 33))
def test_eigenvectors_match_nullspace_on_the_chosen_thetas(m, nullspace_systems):
    for ctx, p, theta, exact, i in _sample_thetas(m):
        for t in (theta, linalg.transpose(theta)):
            lam = t[i].get(i, 0)
            assert repmod.eigenvectors(t, lam, p=p) == _reference(t, lam, p=p), (m, i)
        for t in (exact, linalg.transpose(exact)):
            lam = t[i].get(i, ctx.zero)
            assert repmod.eigenvectors(t, lam, ctx) == _reference(t, lam, ctx), (m, i)
    assert not nullspace_systems


def test_eigen_system_stores_no_zero():
    # V1p at m = 7: theta is the diagonal e3 and lambda = theta[0][0], so
    # theta[0][0] - lambda cancels; lambda = 0 on an absent entry cancels too
    for m in (7, 12, 20):
        for ctx, p, theta, exact, i in _sample_thetas(m):
            for t, q, zero in ((theta, p, 0), (exact, None, ctx.zero)):
                for lam in (t[i].get(i, zero), zero):
                    rows = repmod._eigen_system(t, lam, q)
                    assert all(x for row in rows for x in row.values()), (m, i)
                    assert rows == [{j: x for j, x in row.items() if x} for row in rows]


def test_diagonal_theta_costs_no_field_arithmetic(context_factory, monkeypatch):
    # the eigenvector of a diagonal theta is e_i: no inverse and no product
    ctx = context_factory(20)
    e3 = repmod.build(ctx, repmod.module_params(ctx, "V1p", ctx.q, ctx.q ** 2, 2, ctx.q ** 3)).act["e3"]
    calls = []
    for name in ("invert", "__mul__"):
        method = getattr(cyclotomic.CycNum, name)
        monkeypatch.setattr(cyclotomic.CycNum, name,
                            lambda self, *a, _n=name, _f=method: calls.append(_n) or _f(self, *a))
    for i in (0, 4, len(e3) - 1):
        assert repmod.eigenvectors(e3, e3[i][i], ctx) == [{i: ctx.one}]
    assert calls == []


def test_v1p_intertwiner_at_m20_uses_no_nullspace(context_factory, nullspace_systems):
    ctx = context_factory(20)
    q = ctx.q
    vals = (q, q ** 2, 2, q ** 3)
    r1, r2 = (repmod.build(ctx, repmod.module_params(ctx, "V1p", *vals)) for _ in range(2))
    T = isoclass.find_intertwiner(r1, r2)
    assert T is not None and isoclass.intertwines(r1, r2, T)
    other = repmod.build(ctx, repmod.module_params(ctx, "V1p", q, q ** 2, 3, q ** 3))
    assert isoclass.find_intertwiner(r1, other) is None
    assert not nullspace_systems
