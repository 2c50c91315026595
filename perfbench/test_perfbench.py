"""Tests of the benchmark harness; run with ``python -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vbmc import benchmark as vb  # noqa: E402
from vbmc import core  # noqa: E402

# 20 fevals of lumpy D=2: a few iterations, enough to enter every traced layer
# of the sampling phase in a couple of seconds
SHORT = workloads.Workload("short", "lumpy", 2, (0,), 0.1)
SHORT_ARGS = ("lumpy", 2, 0, 0, "pro", SHORT.budget_multiplier, 0)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def traced_pair():
    untraced = vb.execute_run(*SHORT_ARGS)
    tracer = spans.Tracer()
    with spans.traced_vbmc(tracer):
        traced = vb.execute_run(*SHORT_ARGS)
    return untraced, traced, tracer


def test_tracing_does_not_perturb(traced_pair):
    untraced, traced, tracer = traced_pair
    assert traced.content_equal(untraced)
    assert tracer.stats["gp.log_marginal_likelihood"].calls > 0
    assert tracer.stats["gp.marginal_predict"].work > 0


def test_patches_are_restored(traced_pair):
    for owner, attr, _, _ in spans.VBMC_LAYERS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    assert core.optimize_elbo.__module__ == "vbmc.optim"


def test_self_times_within_wall(traced_pair):
    _, traced, tracer = traced_pair
    assert all(s.self_s >= 0.0 for s in tracer.stats.values())
    assert tracer.self_s_sum() <= traced.wall_time


def test_exceptions_are_counted():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("boom")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.stats["boom"].errors == 1
    assert tracer.stats["boom"].calls == 1


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed(trace, section):
    lines = []
    correct, attempted, failed, metrics = workloads.measure(
        SHORT, SHORT.run_seeds, 0.0, trace, 0, 0.5, log=lines.append
    )
    assert correct and failed == 0 and attempted == 1 + trace
    result = workloads.report("short", correct, attempted, failed, metrics, log=lines.append)
    printed = json.loads(json.dumps(result))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in printed.items()} == expected
    assert all(any(line.lstrip().startswith(name + " ") for line in lines) for name in expected)


def test_setup_fails_on_ground_truth_mismatch(monkeypatch):
    monkeypatch.setattr(workloads, "GROUND_TRUTH_TOL", -1.0)
    with pytest.raises(workloads.SetupError):
        workloads.set_up(SHORT)


def _record(**final):
    base = {"elbo_mean": -3.0, "elbo_sd": 0.01, "lml_err": 0.01, "gskl": 0.01, "fevals": 60}
    base.update(final)
    return vb.BenchmarkRecord("p", "lumpy", 2, 0, 0, "pro", 200, [], 1.0, base)


@pytest.mark.parametrize("final", [
    {"elbo_mean": float("nan")},
    {"elbo_mean": float("inf")},
    {"elbo_sd": -1e-9},
    {"fevals": 201},
    {"lml_err": 1.0},
    {"gskl": float("nan")},
])
def test_check_record_flags_failures(final):
    assert workloads.check_record(_record(**final))


def test_check_record_accepts_good_run():
    assert workloads.check_record(_record()) == []


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lumpy-d2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
