"""The benchmark's tracer must find every method it wraps.

``perfbench/tracing.py`` patches each of its ``TARGETS`` by reading
``owner.__dict__[attr]``, so a traced method moved into a base class (say
``PBWAlgebra.mul`` or ``SparseEchelon.insert``) would make a traced run fail
with ``KeyError``.  The tracer is loaded by path and only read here.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [name for name, owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []
