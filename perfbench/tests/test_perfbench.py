"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.package_src()

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def assert_prints(stdout, declared):
    """Every declared metric appears by name with its unit, in the
    human-readable lines and in the JSON result line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        prefix = f"metric {m['name']} = "
        line = next(ln for ln in lines if ln.startswith(prefix))
        assert line.split()[4] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    return result


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_end_to_end_metrics_print_with_units():
    proc = bench("--workload", "em-sweeps", "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert_prints(proc.stdout, SPEC["end_to_end"])
    assert "metric fail_frac = 0 ratio" in proc.stdout


def test_per_layer_metrics_print_with_units():
    proc = bench("--workload", "rough-2d", "--seed", "3", "--seconds", "0",
                 "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = assert_prints(proc.stdout, SPEC["per_layer"])
    assert result["metrics"]["kernels.pde_node_steps"]["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_sum_to_traced_wall(name, tmp_path):
    from roughdiff import runner

    w = workloads.WORKLOADS[name]
    original = runner.run_scenario
    tr = tracer.Tracer()
    with tracer.installed(tr):
        runner.run_scenario(w.config(5, "tiny"), out_dir=str(tmp_path))
    assert runner.run_scenario is original
    assert workloads.check_outputs(w, w.config(5, "tiny"), str(tmp_path)) == []
    m = tr.metrics()
    assert [s for s in tr.spans if s[2] < 0][0][0] == "runner.run_scenario"
    self_sum = sum(m[k] for k in tracer.TIME_METRICS)
    assert self_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert all(m[k] >= 0 for k in tracer.TIME_METRICS)
    declared = {d["name"] for d in SPEC["per_layer"]}
    assert declared == set(m) | {"trace.overhead_frac"}


def test_injected_oracle_failure_counts_in_fail_frac(monkeypatch, capsys):
    wrong = dataclasses.replace(workloads.WORKLOADS["em-sweeps"],
                                expect_cov=40.0)
    monkeypatch.setitem(workloads.WORKLOADS, "em-sweeps", wrong)
    code = run.main(["--workload", "em-sweeps", "--seed", "3",
                     "--seconds", "0", "--trace", "0", "--size", "tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "metric fail_frac = 1 ratio" in out
    assert "covariation n=" in out


def test_ellipticity_bracket_of_the_rough_workloads():
    rough = workloads.WORKLOADS["rough-2d"].config(1)
    mollified = workloads.WORKLOADS["mollified-gate"].config(1)
    assert workloads.ellipticity_bracket(rough["field"], 2, 1.0) == (4.0, 16.0)
    assert workloads.ellipticity_bracket(mollified["field"], 1, 1.0) == (
        2.0, 8.0)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "em-sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
