"""Tests of the benchmark harness itself (not part of skylit's suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import run  # noqa: E402
import skylit  # noqa: E402,F401  (Tracer.install wraps loaded skylit modules)
from tracing import Tracer  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, seed=0, trace=0, cwd=REPO_ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(proc, result, spec):
    expected = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = bench(workload)
    result = result_of(proc)
    assert_metrics(proc, result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "check ops_succeeded: PASS" in proc.stdout
    env = json.loads(next(line[4:] for line in proc.stdout.splitlines()
                          if line.startswith("env ")))
    for key in ("nproc", "numpy", "python", "blas", "blas_threads", "commit", "seed"):
        assert key in env


def test_traced_smoke_prints_every_layer_metric():
    proc = bench("ddf-fit", trace=1)
    result = result_of(proc)
    assert_metrics(proc, result, SPEC["per_layer"])
    assert result["correct"]
    spans = os.path.join(BENCH_DIR, "results", "ddf-fit-seed0-trace1.spans.jsonl")
    with open(spans, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert first[1] == "bench.setup" and first[4] == -1


def test_same_seed_gives_same_quality():
    a = result_of(bench("ddf-fit", seed=3))["metrics"]["quality_err"]["value"]
    b = result_of(bench("ddf-fit", seed=3))["metrics"]["quality_err"]["value"]
    assert a == b


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("ddf-fit", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_has_ten_samples_beyond():
    value, beyond = run.tail([float(i) for i in range(100)])
    assert value == pytest.approx(89.1) and beyond == 10
    assert run.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 1)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("bench.ops"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.02)
    totals = tracer.totals("bench.ops")
    calls, total, self_s = totals["outer"]
    assert calls == 1 and self_s < 0.01 <= 0.02 <= total
    assert totals["inner"][2] == pytest.approx(totals["inner"][1])
    assert "outer" not in tracer.totals("bench.setup")


def test_install_wraps_from_import_bindings_and_restores():
    from skylit import losses, visibility

    original = visibility.ddf_eval
    assert losses.ddf_eval is original
    tracer = Tracer()
    tracer.install()
    try:
        assert losses.ddf_eval is visibility.ddf_eval
        assert losses.ddf_eval is not original
    finally:
        tracer.uninstall()
    assert losses.ddf_eval is original and visibility.ddf_eval is original


def test_install_skips_targets_this_skylit_lacks(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("render", "no_such_function", "render.no_such_function", None, None)])
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["render.no_such_function"]
