"""Benchmark for tvkl: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the last stdout line gives the end-to-end metrics, timed
with nothing wrapped. With ``--trace 1`` the same untraced measurement runs
first, then one job runs under the tracer and the last line gives the
per-layer metrics instead. The line before it is a summary: machine, op
counts, failed ratio, failure reasons and, for the verify workload, the
sha256 of the captured CLI stdout. A traced run also writes its aggregated
spans to ``.bench_out/``.

Everything runs single-threaded in this one process. See bench/README.md for
the workloads, the item and op definitions and the predictions.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time

import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Set-up rounds per run, one before each of the first jobs; set-up time is
#: their median.
SETUP_ROUNDS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Op latency percentiles are reported only from this many ops per job on.
PERCENTILE_OPS = 1000


def import_tvkl():
    """Import tvkl afresh, so that each set-up round pays for the import."""
    for name in [n for n in sys.modules if n == "tvkl" or n.startswith("tvkl.")]:
        del sys.modules[name]
    importlib.import_module("tvkl.cli")
    return sys.modules["tvkl"]


def setup_round(workload, seed: int):
    """Import tvkl afresh, generate the inputs and warm up; return tvkl, the
    inputs and the time taken."""
    start = time.perf_counter()
    tvkl = import_tvkl()
    state = workload.setup(tvkl, seed)
    workload.warm_up(state)
    return tvkl, state, time.perf_counter() - start


class Tally:
    """Per-op verdicts and timings over every job of a run.

    Jobs repeat the same ops on the same inputs, so each op position keeps
    its time from every job, in reference seconds (see ``workloads.Gauge``),
    and is timed by their median, which a burst of contention in one job
    does not move. The times are kept as packed doubles, so that the
    harness's memory barely grows with the number of jobs and
    ``peak_rss_mb`` measures the library.

    The repeats re-time the ops; they are not more ops. So ``attempted``
    counts the op positions of one job and ``failed`` those that failed in
    any job: both depend on the seed alone, not on how many jobs fit in the
    run. A position whose verdict changes from one job to the next is
    ``flaky``; it counts as failed.
    """

    def __init__(self):
        self.times: list[array.array] = []
        self.job_seconds: list[float] = []
        self.kinds: list[str] = []
        self.passed_items: list[int] = []
        self.failures: list[str | None] = []
        self.silent_ops: list[bool] = []
        self.flaky_ops: list[bool] = []
        self.digests: list[str] = []

    def add(self, job, verdicts) -> None:
        kinds = [op.kind for op in job.ops]
        first = not self.kinds
        if first:
            self.kinds = kinds
            self.times = [array.array("d") for _ in kinds]
            self.failures = [None] * len(kinds)
            self.silent_ops = [False] * len(kinds)
            self.flaky_ops = [False] * len(kinds)
        elif kinds != self.kinds:
            raise RuntimeError("jobs of one run must repeat the same ops")
        items = 0
        for k, (op, verdict) in enumerate(zip(job.ops, verdicts, strict=True)):
            self.times[k].append(op.scaled)
            if not first and (verdict.failure is None) != (self.failures[k] is None):
                self.flaky_ops[k] = True
            if verdict.failure is None:
                items += op.items
                continue
            self.silent_ops[k] |= verdict.silent
            if self.failures[k] is None:
                # Numbers vary from op to op; group the reasons without them.
                self.failures[k] = re.sub(r"-?\d+\.\d*(?:e[+-]?\d+)?", "#",
                                          f"{op.kind}: {verdict.failure}")
        self.passed_items.append(items)
        self.job_seconds.append(job.seconds)
        digest = job.digest()
        if digest is not None:
            self.digests.append(digest)

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def failed(self) -> int:
        return sum(f is not None for f in self.failures)

    @property
    def silent(self) -> int:
        return sum(self.silent_ops)

    @property
    def flaky(self) -> int:
        return sum(self.flaky_ops)

    @property
    def reasons(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for reason in self.failures:
            if reason is not None:
                counts[reason] = counts.get(reason, 0) + 1
        return counts

    def op_times(self) -> list[float]:
        """Each op's median time over the jobs, in reference seconds."""
        return [statistics.median(t) for t in self.times]


def run_job(workload, state, gauge):
    """Run one job with the cyclic garbage collector paused, as ``timeit``
    does. The harness holds every output of a job until it is checked, which
    would make collections inside the job cost more than in real use."""
    gc.disable()
    try:
        gauge.probe()
        job = workload.run_job(state, gauge)
        gauge.read(job.ops)
        return job
    finally:
        gc.enable()


def measure(workload, seed: int, seconds: float, tally: Tally, gauge):
    """Run set-up rounds and jobs for about ``seconds``; return tvkl, the
    inputs and the median set-up time in reference seconds.

    A set-up round precedes each of the first ``SETUP_ROUNDS`` jobs, so the
    rounds spread over the run as the jobs do. Another job starts while half
    of the last job's time still fits.
    """
    start = time.perf_counter()
    setup_times = []
    tvkl = state = None
    last = 0.0
    while (len(setup_times) < SETUP_ROUNDS
           or time.perf_counter() - start + last / 2 < seconds):
        if len(setup_times) < SETUP_ROUNDS:
            state = None  # drop the previous round's inputs first
            gc.collect()
            gauge.probe()
            tvkl, state, took = setup_round(workload, seed)
            setup_times.append(took * gauge.scale())
        job = run_job(workload, state, gauge)
        last = job.seconds
        tally.add(job, workload.check(state, job))
        del job
        gc.collect()
    return tvkl, state, statistics.median(setup_times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """Job time as the sum of each op's median time."""
    wall = math.fsum(tally.op_times())
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": statistics.fmean(tally.passed_items) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def op_latency(tally: Tally) -> dict:
    """Percentiles of the ops' median times, where a job has enough ops."""
    times = tally.op_times()
    if len(times) < PERCENTILE_OPS:
        return {}
    return {"op_p50_ms": 1e3 * percentile(times, 50),
            "op_p99_ms": 1e3 * percentile(times, 99)}


def traced_job(workload, tvkl, state, gauge):
    """Run one job under the tracer; check it once the tracer is removed, in
    a tally of its own, apart from the measured jobs."""
    spans = tracer.Tracer(tvkl)
    with spans:
        job = run_job(workload, state, gauge)
    for k, op in enumerate(job.ops):
        spans.op_span(k, op.kind, op.start, op.seconds)
    traced = Tally()
    traced.add(job, workload.check(state, job))
    return spans, traced


def machine(tvkl) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "tvkl": tvkl.__version__,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Run one workload; return (summary, result line, trace dump)."""
    workload = workloads.WORKLOADS[name]
    tally = Tally()
    gauge = workloads.Gauge()
    tvkl, state, setup_s = measure(workload, seed, seconds, tally, gauge)
    e2e = end_to_end(tally, setup_s)
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    dump = {}
    tallies = [tally]
    if trace:
        spans, traced = traced_job(workload, tvkl, state, gauge)
        tallies.append(traced)
        metrics = spans.metrics(e2e["wall_s"], math.fsum(traced.op_times()))
        dump = {"aggregate": spans.table(), "report_spans": spans.report_spans,
                "op_spans": spans.op_spans}
    digests = {d for t in tallies for d in t.digests}
    result = {
        "correct": all(t.silent == 0 for t in tallies) and len(digests) <= 1,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(tvkl),
        "jobs": len(tally.passed_items),
        "ops": tally.attempted,
        "failed_ratio": tally.failed / tally.attempted,
        "silent_failures": tally.silent,
        "flaky_ops": tally.flaky,
        "failures": tally.reasons,
        "stdout_sha256": tally.digests[0] if tally.digests else None,
        "end_to_end": e2e,
        "measured_wall_s": statistics.median(tally.job_seconds),
        "gauge_ms": 1e3 * statistics.median(gauge.readings),
        **op_latency(tally),
    }
    if trace:
        summary["traced_job"] = {"ops": traced.attempted, "failed": traced.failed,
                                 "failures": traced.reasons}
    return summary, result, dump


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tvkl", "__init__.py")):
        print(f"error: no tvkl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    summary, result, dump = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "result": result, **dump}, fh)
        summary["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
