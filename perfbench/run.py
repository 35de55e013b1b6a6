"""Run one uqb2 benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload nf-stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  With
``--trace 0`` the run serves the workload's requests in a closed loop, one
client, until ``--seconds`` of request time is measured and every request ran
at least once, and reports the end-to-end metrics, with every timing scaled
to a host of fixed speed (see ``HostSpeed``).  With ``--trace 1`` it
serves every request once untraced and once traced and reports the per-layer
metrics and the tracing overhead.  Every answer is checked against the
workload's reference outside the timed region.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import heapq
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 15  # fresh interpreters timed per run; setup_s is their median
PROBE_EVERY_S = 0.1  # wall time between two timings of the drift loop
PROBE_WINDOW_S = 0.3  # drift-loop timings this close to a timing scale it
REFERENCE_LOOP_S = 0.005  # drift-loop time of the host that scaled timings are given for
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import uqb2.cli"


def fail(message):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_package():
    """Put src/ first on the path and make sure uqb2 comes from there."""
    if not (SRC / "uqb2" / "__init__.py").is_file():
        fail("no uqb2 package under %s; run from the root of a uqb2 checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import uqb2

    if Path(uqb2.__file__).resolve().parent != (SRC / "uqb2").resolve():
        fail("uqb2 was imported from %s, not from %s" % (uqb2.__file__, SRC))


DRIFT_VALUES = [Fraction(3 * i + 1, 7 * i + 5) for i in range(40)]
DRIFT_THIRD = Fraction(1, 3)


def drift_loop():
    """Seconds for a fixed loop of Fraction arithmetic that imports nothing
    from uqb2.  uqb2's inner loops do Fraction arithmetic too, and on a
    shared host this loop slows with them more closely than a loop of
    machine-word integer steps does."""
    start = time.perf_counter()
    for _ in range(24):
        acc = Fraction(0)
        for x in DRIFT_VALUES:
            acc = acc * DRIFT_THIRD + x
    return time.perf_counter() - start


class HostSpeed:
    """Timings of the drift loop, taken every PROBE_EVERY_S of wall time
    from a timer signal, also in the middle of a request, so that a timing
    can be scaled to a host of fixed speed.

    A shared host moves between fast and slow states, every few seconds and
    for minutes at a time, and every timing moves with it.  A timing made
    between ``start`` and ``end`` is multiplied by REFERENCE_LOOP_S over the
    loop time, averaged over the loops within PROBE_WINDOW_S of it and at
    least the one before and the one after it.  A change to uqb2 moves the
    scaled timings as it moves the raw ones; a change in host speed moves
    the loop too and largely cancels.  The time spent in the loop is kept
    in ``paused`` so that the timings can leave it out.
    """

    def __init__(self):
        self.at = []  # perf_counter at the middle of each loop, increasing
        self.loop_s = []
        self.paused = 0.0
        self.probing = False

    def probe(self, *_signal):
        if self.probing:  # a signal that arrives during a probe is dropped
            return
        self.probing = True
        start = time.perf_counter()
        seconds = drift_loop()
        self.at.append(start + seconds / 2)
        self.loop_s.append(seconds)
        self.paused += time.perf_counter() - start
        self.probing = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.probe()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def scale(self, start, end):
        lo = min(bisect.bisect_left(self.at, start - PROBE_WINDOW_S), bisect.bisect_left(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, end + PROBE_WINDOW_S), bisect.bisect_right(self.at, end) + 1)
        return statistics.fmean(REFERENCE_LOOP_S / x for x in self.loop_s[max(lo, 0):hi])


def time_setup():
    """(start, seconds) from starting a fresh interpreter to uqb2 being imported.

    The drift loop's timer signal is held back meanwhile: the interpreter
    would go on running while this process times the loop.
    """
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
    try:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, stdin=subprocess.DEVNULL)
        return start, time.perf_counter() - start
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "uqb2_lines": sum(
            len(path.read_text().splitlines()) for path in sorted((SRC / "uqb2").glob("*.py"))
        ),
    }


def _digest(output):
    return hashlib.sha256(repr(output).encode()).digest()


class Ledger:
    """Per-request latency samples and verdicts.

    The first answer to a request is checked against the reference; every
    later answer must repeat it exactly.
    """

    def __init__(self, requests):
        self.requests = requests
        self.samples = [[] for _ in requests]
        self.digests = [None] * len(requests)
        self.attempted = 0
        self.failed = 0

    def record(self, index, start, seconds, output):
        self.attempted += 1
        self.samples[index].append((start, seconds))
        req = self.requests[index]
        if isinstance(output, Exception):
            self.failed += 1
            print("request %d (%s) raised:" % (index, req.label), file=sys.stderr)
            traceback.print_exception(output, file=sys.stderr)
            return
        digest = _digest(output)
        if self.digests[index] is None:
            self.digests[index] = digest
            try:
                ok = req.check(output)
            except Exception:  # a malformed answer is a failed request, not a crash
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print("request %d (%s) disagrees with the reference" % (index, req.label), file=sys.stderr)
        else:
            ok = digest == self.digests[index]
            if not ok:
                print("request %d (%s) changed its answer" % (index, req.label), file=sys.stderr)
        if not ok:
            self.failed += 1

    def latencies(self, host=None):
        """Median latency of each request over its samples, each scaled by
        ``host`` to the reference speed when it is given."""
        def value(start, seconds):
            return seconds * host.scale(start, start + seconds) if host else seconds

        return [statistics.median(value(*x) for x in s) for s in self.samples if s]


def call(request, host=None):
    """Time one request: (start, seconds, output), less the time ``host``
    spent probing meanwhile; an exception is its output."""
    paused = host.paused if host else 0.0
    start = time.perf_counter()
    try:
        output = request.run()
    except Exception as exc:  # counted as a failed request by the ledger
        output = exc
    seconds = time.perf_counter() - start
    return start, seconds - (host.paused - paused if host else 0.0), output


def serve(requests, seconds, ledger, host, setup):
    """Closed loop, one client, until `seconds` of request time is measured
    and every request ran at least once.

    Every request runs once, in the seeded order.  After that the loop sends
    the request with the least measured time so far, so the time is shared
    evenly and a cheap request collects more samples than a dear one.
    SETUP_RUNS set-up times are taken between requests, spread evenly over
    the measured time, so that they see the same mix of host states as the
    requests.
    """
    queue = []  # (measured time, index) of every request after its first run
    measured = 0.0
    k = 0
    with host:
        while k < len(requests) or measured < seconds:
            while len(setup) < SETUP_RUNS and measured >= seconds * len(setup) / SETUP_RUNS:
                setup.append(time_setup())
            busy, index = heapq.heappop(queue) if k >= len(requests) else (0.0, k)
            start, elapsed, output = call(requests[index], host)
            heapq.heappush(queue, (busy + elapsed, index))
            measured += elapsed
            ledger.record(index, start, elapsed, output)
            k += 1
        while len(setup) < SETUP_RUNS:
            setup.append(time_setup())
    return k / len(requests)


def drift_summary(loop_s):
    """Count, extremes and quartiles of the drift-loop times of a run."""
    q1, q2, q3 = statistics.quantiles(loop_s, n=4)
    return {"n": len(loop_s), "min": min(loop_s), "q1": q1, "median": q2, "q3": q3, "max": max(loop_s)}


def p90(values):
    # "inclusive" interpolates between requests; "exclusive" would
    # extrapolate past the slowest of conformance-sweep's six
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(args, requests):
    time_setup()  # fills the bytecode cache; not counted
    ledger = Ledger(requests)
    host = HostSpeed()
    setup = []
    passes = serve(requests, args.seconds, ledger, host, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = ledger.latencies(host)
    raw = ledger.latencies()
    metrics = {
        "setup_s": (statistics.median(s * host.scale(t, t + s) for t, s in setup), "s"),
        "wall_s": (sum(lat), "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90(lat) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "passes": round(passes, 3),
        "unscaled": {
            "setup_s": statistics.median(s for _, s in setup),
            "wall_s": sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_p90_ms": p90(raw) * 1e3,
        },
        "host_drift_s": drift_summary(host.loop_s),
    }
    return ledger, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def traced(args, requests):
    """Each request once untraced and once traced, back to back, in an order
    that alternates, so the overhead compares calls made in the same host state."""
    import tracing

    ledger = Ledger(requests)
    drift = [drift_loop()]
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for index, request in enumerate(requests):
        for traced_call in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_call:
                tracer.request = index
                tracer.install()
                try:
                    start, elapsed, output = call(request)
                finally:
                    tracer.uninstall()
                traced_s += elapsed
            else:
                start, elapsed, output = call(request)
                untraced_s += elapsed
            ledger.record(index, start, elapsed, output)
    drift.append(drift_loop())

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}

    groups = {}
    for index, request in enumerate(requests):
        group = request.label if args.workload == "conformance-sweep" else request.label.split()[0]
        groups.setdefault(group, set()).add(index)
    top = {"all": tracing.top_self_times(tracer)}
    for label, indices in sorted(groups.items()):
        top[label] = tracing.top_self_times(tracer, indices)
    spans_path = OUT / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
    tracer.write_spans(spans_path)
    extra = {
        "untraced_wall_s": untraced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "top_self_s": top,
        "host_drift_s": drift,
    }
    return ledger, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="request time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    requests = workloads.build(args.workload, args.seed)
    run = traced if args.trace else end_to_end
    ledger, metrics, extra = run(args, requests)

    record = metadata(args)
    record.update(extra)
    record["requests_per_pass"] = len(requests)
    record["fail_frac"] = ledger.failed / ledger.attempted
    for name, m in metrics.items():
        print("%-50s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
