"""The relation table in ``uqb2.pbw`` is what every relation check reads.

A coefficient changed in the table must be seen by all three consumers: the
PBW engine's Serre residuals, ``torus-check`` and ``check-module``.
"""

import json

from uqb2 import cli, pbw
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

