"""Tests of the benchmark itself. Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py

They re-import tvkl (each set-up round does), so run them apart from the
library's own suite under ``tests/``.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the large workloads so a whole run takes a second or two."""
    monkeypatch.setattr(workloads, "LARGE_ATOMS", 300)
    monkeypatch.setattr(workloads, "PRODUCT_POWER", 2)
    monkeypatch.setattr(workloads, "SWEEP_POINTS", 300)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 2)


def installed_wrappers(tvkl) -> list[str]:
    """Names of tracer wrappers currently reachable from any tvkl module."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "tvkl" and not mod_name.startswith("tvkl."):
            continue
        for key, value in vars(module).items():
            values = value.values() if isinstance(value, dict) else (value,)
            for v in values:
                if hasattr(v, "bench_span"):
                    found.append(f"{mod_name}.{key}")
    if hasattr(tvkl.distributions.Distribution.__post_init__, "bench_span"):
        found.append("tvkl.distributions.Distribution.__post_init__")
    return found


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes")}


def test_traced_verify_counts_repeat(monkeypatch):
    monkeypatch.setattr(workloads.Verify, "seeds_per_job", 2)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    _, first, _ = run.run("verify", 0, 0, True)
    assert not installed_wrappers(sys.modules["tvkl"])
    _, second, _ = run.run("verify", 0, 0, True)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    counts = _counts(first)
    assert counts["verify.cells"] == 6 * workloads.Verify.cells
    assert counts["divergence.binary_kl_calls"] >= counts["verify.cells"]
    assert counts["cli.invocations"] == 6 + 2 * 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_installs_no_wrapper(name, small, monkeypatch):
    monkeypatch.setattr(workloads.Verify, "seeds_per_job", 2)

    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    summary, result, dump = run.run(name, 1, 0, False)
    assert not installed_wrappers(sys.modules["tvkl"])
    assert dump == {}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(small):
    _, result, dump = run.run("large_support", 1, 0, True)
    assert not installed_wrappers(sys.modules["tvkl"])
    metrics = result["metrics"]
    assert metrics["divergence.relabelled_s_per_matom"]["value"] > 0
    assert metrics["distributions.tensor_power_atoms"]["value"] == 2 * 8**2
    assert "trace.overhead_ratio" in metrics
    assert all(f"verify.{name}.s" in metrics for name in tracer.REPORT_NAMES)
    pairs = workloads.SAME_ORDER_PAIRS + workloads.RELABELLED_PAIRS
    ops = pairs * workloads.PAIR_OPS + workloads.PRODUCT_OPS
    assert dump["aggregate"] and len(dump["op_spans"]) == ops


def test_traced_job_stays_out_of_the_counts(small):
    _, untraced, _ = run.run("large_support", 1, 0, False)
    summary, traced, _ = run.run("large_support", 1, 0, True)
    assert traced["attempted"] == untraced["attempted"] == summary["ops"]
    assert summary["jobs"] == run.SETUP_ROUNDS
    assert summary["traced_job"]["failed"] == 0


def test_counts_do_not_depend_on_the_number_of_jobs(small, monkeypatch):
    _, few, _ = run.run("large_support", 1, 0, False)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 4)
    summary, many, _ = run.run("large_support", 1, 0, False)
    assert summary["jobs"] == 4
    assert (few["attempted"], few["failed"]) == (many["attempted"], many["failed"])


def test_an_op_failing_in_one_job_counts_once_and_as_flaky():
    def job(seconds):
        ops = [workloads.OpRecord(kind, 0.0, seconds, 1, scale=1.0)
               for kind in ("a", "b", "c")]
        return workloads.Job(ops=ops)

    tally = run.Tally()
    ok, bad = workloads.Verdict(), workloads.Verdict("exit 1")
    tally.add(job(1.0), [ok, bad, ok])
    tally.add(job(2.0), [ok, bad, bad])
    tally.add(job(3.0), [ok, bad, ok])
    assert (tally.attempted, tally.failed, tally.flaky) == (3, 2, 1)
    assert tally.reasons == {"b: exit 1": 1, "c: exit 1": 1}
    assert tally.passed_items == [2, 1, 2]
    assert tally.op_times() == [2.0, 2.0, 2.0]


# -- each check rejects a corrupted output -----------------------------------


def _tvkl():
    return run.import_tvkl()


def test_check_verify_rejects_corruption():
    tvkl = _tvkl()
    code, stdout, stderr = workloads._cli(
        tvkl, ["--json", "verify", "grid", "--resolution", "12"])
    good = (code, stdout, stderr)
    assert workloads.check_verify(good, 6).failure is None

    def corrupt(field, value):
        lines = stdout.splitlines()
        rep = json.loads(lines[2])
        rep[field] = value
        lines[2] = json.dumps(rep)
        return (0, "\n".join(lines) + "\n", "")

    for bad in (corrupt("violations", 1), corrupt("worst_margin", "inf"),
                corrupt("worst_margin", math.nan),
                (0, "".join(stdout.splitlines(True)[1:]), "")):
        verdict = workloads.check_verify(bad, 6)
        assert verdict.failure and verdict.silent
    verdict = workloads.check_verify((2, stdout, ""), 6)
    assert verdict.failure == "exit 2" and not verdict.silent


def test_check_pair_and_product_reject_corruption(small):
    tvkl = _tvkl()
    state = workloads.LargeSupport().setup(tvkl, 4)
    job = workloads.LargeSupport().run_job(state, None)
    assert all(v.failure is None
               for v in workloads.LargeSupport().check(state, job))
    n = workloads.PAIR_OPS
    twin = workloads.pair_outputs(job.ops[:n])
    assert state.relabelled[0][0] == 0
    relabelled = workloads.pair_outputs(job.ops[2 * n:3 * n])
    assert workloads.check_pair(twin) is None
    assert workloads.check_pair(relabelled, twin) is None

    tv, kl, aff, min_sum, max_sum, dv = relabelled
    one_ulp = (math.nextafter(tv, 1.0), kl, aff, min_sum, max_sum, dv)
    assert workloads.check_pair(one_ulp, twin)
    assert workloads.check_pair((tv, kl, aff, min_sum + 1e-9, max_sum, dv))
    assert workloads.check_pair((tv, kl, aff, min_sum, max_sum, dv * (1 + 1e-8)))
    assert workloads.check_pair((tv, -kl, aff, min_sum, max_sum, -dv))

    out = workloads.product_outputs(tvkl, state.bases,
                                    job.ops[-workloads.PRODUCT_OPS:])
    assert workloads.check_product(out, 64, 2) is None
    size, pkl, ptv, base_kl, base_tv = out
    assert workloads.check_product((size, pkl * (1 + 1e-8), ptv, base_kl, base_tv), 64, 2)
    assert workloads.check_product((size - 1, pkl, ptv, base_kl, base_tv), 64, 2)
    assert workloads.check_product((size, pkl, base_tv / 2, base_kl, base_tv), 64, 2)

    # A corrupted op output fails its whole group, and only that group.
    job.ops[2 * n].output = math.nextafter(tv, 1.0)
    verdicts = workloads.LargeSupport().check(state, job)
    assert [v.failure is not None for v in verdicts] == (
        [False] * 2 * n + [True] * n + [False] * workloads.PRODUCT_OPS)
    assert all(v.silent for v in verdicts[2 * n:3 * n])


def test_check_sweep_rejects_corruption():
    tvkl = _tvkl()
    tol = tvkl.bounds.VAJDA_BISECTION_TOL
    for point in ((0.5, 0.4, 0.1, 0.2), (1e-12, 0.0, 0.3, 0.01), (50.0, 0.999, 0.01, 0.49)):
        forward, inverse, report = workloads.sweep_op(tvkl, *point)
        assert workloads.check_sweep(tvkl, point, (forward, inverse, report)) is None

    point = (0.5, 0.4, 0.1, 0.2)
    forward, inverse, report = workloads.sweep_op(tvkl, *point)

    def replace(rows, bound, value):
        return [dataclasses.replace(r, output=value) if r.bound.value == bound else r
                for r in rows]

    t = next(r.output for r in forward if r.bound.value == "vajda")
    for bad_t in (t + 10 * tol, t - 10 * tol):
        bad = (replace(forward, "vajda", bad_t), inverse, report)
        assert "root" in workloads.check_sweep(tvkl, point, bad)
    bad = (replace(forward, "bh", t - 2 * tol), inverse, report)
    assert "above bh" in workloads.check_sweep(tvkl, point, bad)
    bh = next(r.output for r in inverse if r.bound.value == "bh")
    bad = (forward, replace(inverse, "vajda", bh / 2), report)
    assert "inverse" in workloads.check_sweep(tvkl, point, bad)
    bad = (forward, inverse, dataclasses.replace(report, n_bh=math.inf))
    assert "routes" in workloads.check_sweep(tvkl, point, bad)

    rows = tvkl.figures.figure_rows(tvkl.figures.FigureId.FIG_FORWARD, 11)
    assert workloads.check_figure(rows, 11, 5) is None
    assert workloads.check_figure(rows[:-1], 11, 5)
    assert workloads.check_figure([row[:-1] for row in rows], 11, 5)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
