"""Byte-for-byte comparison with the golden corpus in ``tests/golden``.

The corpus is CLI output frozen by ``tests/golden/capture.py``: the
conformance ledger at m in {5, 7, 8, 12}, ``center-report`` at m in {5, 8}
and a set of ``nf``, ``central``, ``simple``, ``iso``, ``character``,
``build-module`` and ``pideg`` commands, including division and negative
exponents, and the relation keys of ``check-module`` and ``torus-check``.  The named
elements zt, z1 and zp appear in ``nf`` (m = 7) and ``central`` (zp, central
at m = 8); ``torus-check`` runs at m = 8, where the image of zp equals
X2 X4 X1, and at m = 9, where it does not; ``character`` covers full
modules and the subalgebra modules V1 and V2.  Scalars print
canonically, so any change to the arithmetic that alters a single value shows
up here.
"""

import importlib.util
import json
import pathlib

import pytest

from uqb2 import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_output(name, capsys):
    case = MANIFEST[name]
    code = cli.main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / (name + ".json")).read_text()


def test_capture_writes_new_cases_and_refuses_changed_ones(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("capture", GOLDEN / "capture.py")
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    monkeypatch.setattr(capture, "HERE", tmp_path)
    monkeypatch.setattr(capture, "CORPUS", {"nf": ["nf", "--m", "5", "e2*e1"]})
    assert capture.main() == 0
    frozen = (tmp_path / "nf.json").read_text()
    assert frozen == (GOLDEN / "nf_m5_e2e1.json").read_text()
    assert capture.main() == 0  # unchanged output: nothing to refuse

    (tmp_path / "nf.json").write_text(frozen.replace("-1", "-2"))
    manifest = (tmp_path / "MANIFEST.json").read_text()
    monkeypatch.setitem(capture.CORPUS, "new", ["nf", "--m", "5", "e1"])
    assert capture.main() == 1
    assert "nf" in capsys.readouterr().err
    assert (tmp_path / "nf.json").read_text() == frozen.replace("-1", "-2")
    assert not (tmp_path / "new.json").exists()
    assert (tmp_path / "MANIFEST.json").read_text() == manifest
