"""Byte-for-byte comparison with the golden corpus in ``tests/golden``.

The corpus is CLI output frozen by ``tests/golden/capture.py``: the
conformance ledger at m in {5, 7, 8, 12}, ``center-report`` at m in {5, 8}
and a set of ``nf``, ``central``, ``simple``, ``iso``, ``character`` and
``build-module`` commands, including division and negative exponents.  Scalars print canonically, so any change
to the arithmetic that alters a single value shows up here.
"""

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
