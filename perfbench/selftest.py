"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They run the benchmark as its command line does, so a traced run of each
workload is made twice; the file takes about five minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
LAYERS = ("cyclotomic", "pbw", "structure", "torus", "lattice", "linalg", "repmod", "isoclass",
          "expr", "cli", "conformance")


def run(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return {name: m["value"] for name, m in out["metrics"].items()}


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (result(run(w, 7, 1)), result(run(w, 7, 1))) for w in WORKLOADS}


def test_traced_run_reports_every_per_layer_metric(traced_twice):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for first, _ in traced_twice.values():
        assert list(first) == names


def test_counts_repeat_exactly_for_a_seed(traced_twice):
    for first, second in traced_twice.values():
        exact = [k for k in first if k.endswith(".calls") or k.endswith(".useful_ratio")]
        assert exact
        assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def _busy(metrics, layer):
    return sum(v for k, v in metrics.items() if k.startswith(layer + ".") and not k.endswith("_ratio"))


def test_predicted_layers_are_called(traced_twice):
    conf, nf, certs = (traced_twice[w][0] for w in ("conformance-sweep", "nf-stream", "module-certs"))
    for layer in LAYERS:
        if layer != "cli":
            assert _busy(conf, layer) > 0, layer
    for name, value in conf.items():
        if name not in ("cli.main.self_s", "trace.overhead_s"):
            assert value > 0, name
    for layer in ("cyclotomic", "pbw", "expr", "cli"):
        assert _busy(nf, layer) > 0, layer
    for layer in ("linalg", "repmod", "isoclass", "cyclotomic"):
        assert _busy(certs, layer) > 0, layer
    assert certs["linalg.SparseEchelon.insert.useful_ratio"] > 0


def test_unrelated_layers_make_no_calls(traced_twice):
    nf, certs = traced_twice["nf-stream"][0], traced_twice["module-certs"][0]
    for layer in ("linalg", "repmod", "isoclass", "lattice", "conformance"):
        assert _busy(nf, layer) == 0, layer
    for layer in ("pbw", "expr", "cli", "conformance"):
        assert _busy(certs, layer) == 0, layer


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = result(run("module-certs", 3, 0))
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v > 0 for v in metrics.values())


def test_same_seed_same_inputs():
    for w in WORKLOADS:
        a, b = workloads.build(w, 11), workloads.build(w, 11)
        assert [r.label for r in a] == [r.label for r in b]
    nf = workloads.build("nf-stream", 11)
    assert [r.run.__defaults__ for r in nf] == [r.run.__defaults__ for r in workloads.build("nf-stream", 11)]
    assert [r.run.__defaults__ for r in nf] != [r.run.__defaults__ for r in workloads.build("nf-stream", 12)]


def _first(requests, prefix):
    return next(r for r in requests if r.label.startswith(prefix))


def test_references_reject_wrong_answers():
    nf = workloads.build("nf-stream", 5)
    req = _first(nf, "nf m=7")
    code, text = req.run()
    assert req.check((code, text))
    doc = json.loads(text)
    doc["terms"][0]["coeff"][0] = str(int(doc["terms"][0]["coeff"][0]) + 1)
    assert not req.check((code, json.dumps(doc)))
    assert not req.check((1, text))

    central = [r for r in nf if r.label.startswith("central")]
    answers = [(r, r.run()) for r in central]
    true_ones = [(r, a) for r, a in answers if json.loads(a[1])["central"]]
    false_ones = [(r, a) for r, a in answers if not json.loads(a[1])["central"]]
    assert true_ones and false_ones
    r, (code, text) = false_ones[0]
    doc = json.loads(text)
    doc["central"], doc["witness"] = True, None
    assert not r.check((code, json.dumps(doc)))

    conf = _first(workloads.build("conformance-sweep", 5), "conformance m=8")
    report = conf.run()
    assert conf.check(report)
    report["info"][0]["central"] = False
    assert not conf.check(report)

    certs = workloads.build("module-certs", 5)
    for prefix, wrong in (("simple m=5", (False, 25)), ("sum-self m=5", (False, 50)),
                          ("sum-pair m=5", (False, 25)), ("noniso m=5", [[1]]), ("iso m=5", None)):
        req = _first(certs, prefix)
        assert req.check(req.run()), prefix
        assert not req.check(wrong), prefix
    req = _first(certs, "character m=5 V1p")
    chars = req.run()
    assert req.check(chars)
    chars["e1^l"] = chars["e1^l"] * 0
    assert not req.check(chars)


def test_fails_without_the_package():
    bare = HERE / "out" / "bare"  # BENCHMARK.json and the benchmark, no src/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("nf-stream", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scales_by_the_loops_around_a_timing():
    import run as bench

    host = bench.HostSpeed()
    loop = bench.REFERENCE_LOOP_S
    # loops every 0.1 s; the host runs at half speed from t = 10 on
    host.at = [i / 10 for i in range(200)]
    host.loop_s = [loop if t < 10 else 2 * loop for t in host.at]
    assert host.scale(5.0, 5.01) == 1.0
    assert host.scale(15.0, 15.01) == 0.5
    # a timing with no loop in its window still takes the one before and after
    host.at, host.loop_s = [0.0, 100.0], [loop, 2 * loop]
    assert host.scale(50.0, 50.01) == 0.75
