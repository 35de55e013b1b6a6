"""The relation table in ``uqb2.pbw`` is what every relation check reads.

A coefficient changed in the table must be seen by all three consumers: the
PBW engine's Serre residuals, ``torus-check`` and ``check-module``.  Likewise
an entry of the definitions table beside it must be seen by every consumer of
zt, z1 and zp: ``structure.named``, the expression evaluator, ``torus-check``,
``center-report`` and ``repmod.central_character``.
"""

import functools
import json
import random

import pytest

from uqb2 import cli, expr, linalg, pbw, repmod, structure
from uqb2.cyclotomic import field_init


def _table_entry(relations, name):
    return next(rel for rel in relations if rel.name == name)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_table_sizes():
    assert len(pbw.FULL_RELATIONS) == 8
    assert len(pbw.SUBALGEBRA_RELATIONS) == 6
    assert all(rel.torus_name for rel in pbw.FULL_RELATIONS)
    assert [rel.terms[0][1] for rel in pbw.DEFINITIONS] == ["e3c", "zc", "zt", "z1", "w", "zp"]


def test_serre_mutation_seen_by_every_consumer(monkeypatch, capsys):
    serre3 = _table_entry(pbw.FULL_RELATIONS, "serre_degree3")
    # -(q^2 + q^-2) becomes -(q^2 + 2 q^-2)
    monkeypatch.setitem(serre3.terms[1][0], -2, -2)

    code, out = _run(capsys, "check-module", "--m", "7", "--family", "V1p",
                     "--params", "q,q^2,2,q^3")
    assert code == 1
    assert out["relations_zero"]["serre_degree3"] is False
    assert out["relations_zero"]["serre_degree4"] is True

    code, out = _run(capsys, "torus-check", "--m", "7")
    assert code == 1
    assert out["relation_images_zero"]["serre_degree3"] is False

    residuals = pbw.PBWAlgebra(field_init(7)).serre_residuals()
    assert not residuals["degree3"].is_zero()
    assert residuals["degree4"].is_zero()


def test_subalgebra_mutation_seen_by_check_module(monkeypatch, capsys):
    rel = _table_entry(pbw.SUBALGEBRA_RELATIONS, "zt*e1-e1*zt+e3^2")
    # the e3^2 term gets coefficient 2
    monkeypatch.setitem(rel.terms[2][0], 0, 2)
    code, out = _run(capsys, "check-module", "--m", "7", "--family", "V1",
                     "--params", "q,q^2,2,q^3")
    assert code == 1
    assert out["relations_zero"]["zt*e1-e1*zt+e3^2"] is False
    assert sum(not ok for ok in out["relations_zero"].values()) == 1


def test_definition_residuals_vanish():
    # each definition is a relation: with its letter evaluated from the table,
    # its residual is zero on PBW elements and on the action of a full module
    ctx = field_init(7)
    alg = pbw.PBWAlgebra(ctx)
    gens = {g: alg.generator(g) for g in pbw.GENERATOR_NAMES}
    assert all(r.is_zero() for _, r in pbw.evaluate_relations(pbw.DEFINITIONS, gens, ctx))
    rep = repmod.build(ctx, repmod.module_params(ctx, "V2p", 1, 2, ctx.q))
    ops = (linalg.mat_mul, linalg.mat_scale, linalg.mat_add, linalg.mat_sub)
    residuals = pbw.evaluate_relations(pbw.DEFINITIONS, rep.act, ctx, ops)
    assert all(linalg.is_zero_matrix(r) for _, r in residuals)


def test_z_prime_mutation_seen_by_every_consumer(monkeypatch, capsys):
    alg = pbw.PBWAlgebra(field_init(8))
    before = structure.named(alg, "z_prime")
    coeff = _table_entry(pbw.DEFINITIONS, "z_prime").terms[2][0]
    # zp = e1 w - q^4 w e1 becomes e1 w - q^2 w e1
    monkeypatch.delitem(coeff, 4)
    monkeypatch.setitem(coeff, 2, -1)

    # zp is reported, not contracted: both commands still pass
    code, out = _run(capsys, "torus-check", "--m", "8")
    assert code == 0
    assert out["bracket_image_equals_X2X4X1"] is False
    assert all(out["relation_images_zero"].values())

    code, out = _run(capsys, "center-report", "--m", "8")
    assert code == 0
    assert out["central"]["zp"] is False
    assert out["zp_witness"] is not None

    assert structure.named(alg, "z_prime") != before


def test_z_tilde_mutation_seen_by_every_consumer(monkeypatch):
    ctx = field_init(7)
    alg = pbw.PBWAlgebra(ctx)
    before = expr.evaluate("zt", alg)
    rep = repmod.build(ctx, repmod.module_params(ctx, "V1p", ctx.q, ctx.q_pow(2), 2, ctx.q_pow(3)))
    assert "z1" in repmod.central_character(rep)
    # zt = e2 e3 + z/(q^2 - 1) becomes e2 e3 + 2 z/(q^2 - 1)
    monkeypatch.setitem(_table_entry(pbw.DEFINITIONS, "z_tilde").terms[2][0], 0, 2)

    assert expr.evaluate("zt", alg) != before
    # zt moves by a scalar matrix, so z1 moves by a multiple of the shift e1
    with pytest.raises(ArithmeticError, match="z1 failed"):
        repmod.central_character(rep)


def _random_matrices(ctx, letters, d, seed):
    rng = random.Random(seed)
    return {g: [{j: ctx.scalar(rng.randint(-3, 3) or 1) for j in range(d) if rng.random() < 0.6}
                for _ in range(d)] for g in letters}


def _fold(rel, images, ctx):
    # each word as a left-to-right product of its letters, then the sum
    mul, scale, add, _ = repmod._matrix_ops()
    total = linalg.zero_matrix(len(next(iter(images.values()))))
    for coeff, word in rel.terms:
        x = functools.reduce(mul, (images[w] for w in word.split()))
        total = add(total, scale(x, ctx.laurent(coeff)))
    return total


@pytest.mark.parametrize("relations, letters, products", [
    (pbw.FULL_RELATIONS, ("e1", "e2", "e3", "z"), 21),
    (pbw.SUBALGEBRA_RELATIONS, ("e1", "e3", "z", "zt"), 13),
])
def test_shared_subwords_multiplied_once(relations, letters, products):
    # each word is the product of its two halves, and a subword that several
    # words share (e2 e1, e1 e2 and e2 e2 in the Serre relations) is
    # multiplied once: 21 products for the full table, not one per letter
    # after the first (30)
    ctx = field_init(7)
    family = "V1p" if "e2" in letters else "V1"
    rep = repmod.build(ctx, repmod.module_params(ctx, family, ctx.q, ctx.q_pow(2), 2, ctx.q_pow(3)))
    mul, *rest = repmod._matrix_ops()
    for images in (rep.act, _random_matrices(ctx, letters, 4, len(relations))):
        before = {g: [dict(row) for row in M] for g, M in images.items()}
        seen = []
        residuals = pbw.evaluate_relations(
            relations, images, ctx, (lambda a, b: seen.append(1) or mul(a, b), *rest))
        assert len(seen) == products
        folds = [_fold(rel, images, ctx) for rel in relations]
        assert [r for _, r in residuals] == folds
        # the caller's map and matrices are untouched
        assert images == before and list(images) == list(before)
    # the random matrices satisfy no relation, so not only zeros were compared
    assert not any(linalg.is_zero_matrix(r) for r in folds)
