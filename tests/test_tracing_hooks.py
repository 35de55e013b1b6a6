"""The benchmark's tracer must find every method it wraps.

``perfbench/tracing.py`` patches each of its ``TARGETS`` by reading
``owner.__dict__[attr]``, so a traced method moved into a base class (say
``PBWAlgebra.mul`` or ``SparseEchelon.insert``) would make a traced run fail
with ``KeyError``.  The tracer is loaded by path and only read here.  A
function it wraps must also be looked up at call time: a reference taken at
import would bypass the wrapper.
"""

import importlib.util
import pathlib

from uqb2 import linalg, repmod
from uqb2.cyclotomic import field_init

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [name for name, owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []


def test_a_wrapper_on_linalg_sees_the_relation_evaluator(monkeypatch):
    calls = []
    real = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda *args: calls.append(1) or real(*args))
    ctx = field_init(5)
    rep = repmod.build(ctx, repmod.module_params(ctx, "V1p", 1, 1, 1, 0))
    assert repmod.verify_relations(rep)["all_zero"]
    assert calls
