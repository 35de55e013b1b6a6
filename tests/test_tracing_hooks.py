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

from uqb2 import expr, linalg, repmod
from uqb2.cyclotomic import field_init
from uqb2.pbw import PBWAlgebra

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


def test_a_wrapper_on_pbw_mul_sees_powers_and_commutators(monkeypatch):
    calls = []
    real = PBWAlgebra.mul
    monkeypatch.setattr(PBWAlgebra, "mul", lambda *args: calls.append(1) or real(*args))
    alg = PBWAlgebra(field_init(7))
    e1, e2, e3, z = alg.generators()
    # a power of a sum is n - 1 products; a monomial's power is written directly
    (e1 + z) ** 4
    assert len(calls) == 3
    (e1 * e3) ** 4
    assert len(calls) == 4
    # a monomial times the 4th power of a sum: 1 + 4 products, each traced
    del calls[:]
    expr.evaluate("e2^3*e1*(e1 + z)^4", alg)
    assert len(calls) == 5
    # a central element: two commutators of two products each
    del calls[:]
    assert alg.commutator_witness(z) is None
    assert len(calls) == 4
