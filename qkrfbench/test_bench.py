"""Tests of the benchmark itself; run from the repository root:

    python3 -m pytest -q qkrfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import gate
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
WORKLOAD = "quantized-dense"  # random dense starts: where nondeterminism would show


@pytest.fixture(scope="module")
def qkrf():
    run._one_thread()
    return run._import_qkrf()


@pytest.fixture(scope="module")
def first_pass(qkrf, tmp_path_factory):
    configs = workloads.configs(WORKLOAD, 3)
    return configs, run.run_pass(qkrf, configs, tmp_path_factory.mktemp("first"), None)


def test_configs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 5) == workloads.configs(name, 5)
        assert workloads.configs(name, 5) != workloads.configs(name, 6)


def test_threads_are_one_whatever_the_environment_asks(monkeypatch):
    monkeypatch.setenv("QKRF_THREADS", "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    run._one_thread()
    for var in ("QKRF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert run.os.environ[var] == "1"


def test_same_seed_gives_the_same_outputs(qkrf, first_pass, tmp_path):
    configs, first = first_pass
    again = run.run_pass(qkrf, workloads.configs(WORKLOAD, 3), tmp_path, None)
    assert first["problems"] == [[] for _ in configs]
    assert again["outputs"] == first["outputs"]
    assert run._count_failures([first, again]) == (0, [])


def test_traced_pass_gives_the_untraced_outputs(qkrf, first_pass, tmp_path):
    configs, first = first_pass
    original = qkrf.maps.balancing
    tracer = spans.Tracer(qkrf)
    with tracer:
        assert qkrf.nanorms.balancing is not original  # bound by "from .maps import"
        traced = run.run_pass(qkrf, configs, tmp_path, None)
    assert traced["outputs"] == first["outputs"]
    assert qkrf.maps.balancing is original and qkrf.nanorms.balancing is original
    calls, total_s, self_s = tracer.totals()
    assert calls["experiments.run_experiment"] == len(configs)
    assert calls["maps.balancing.dense"] > 0 and calls["nanorms.l_na_slope"] > 0
    # self times add up to the root spans, which are the timed operations
    assert sum(self_s.values()) == pytest.approx(total_s["experiments.run_experiment"])
    values = run.layer_metrics(tracer)
    assert values["nanorms.self_s"] > 0 and values["geometry.sections.bytes"] > 0


def test_gate_flags_a_wrong_reference_value(qkrf, first_pass, tmp_path):
    configs, first = first_pass
    expected = json.loads(json.dumps(first["outputs"]))
    close = json.loads(json.dumps(expected))
    name = next(iter(close[0]))
    close[0][name] *= 1 + 1e-11
    assert run.run_pass(qkrf, configs, tmp_path, close)["problems"] == [[] for _ in configs]

    expected[1][next(iter(expected[1]))] += 1e-3
    checked = run.run_pass(qkrf, configs, tmp_path, expected)
    assert checked["problems"][0] == [] and checked["problems"][2] == []
    assert any("differs from the reference" in msg for msg in checked["problems"][1])
    failed, _ = run._count_failures([checked])
    assert failed == 1


def test_gate_ignores_the_standing_failures():
    manifest = type("Manifest", (), {
        "experiment": "euler-gap",
        "metrics": [{"name": "euler_gap_slope", "value": -0.5, "threshold": -0.8,
                     "op": "<=", "passed": False}],
    })
    assert gate.check(manifest, None) == []


def test_calibration_takes_its_share_of_each_operation():
    run._one_thread()
    calibration = calibrate.Calibration()
    calibration.after(0.0)
    assert len(calibration.seconds) == 1
    calibration.after(20 * calibration.seconds[0] / calibrate.SHARE)
    assert len(calibration.seconds) > 5
    assert calibration.scale() == pytest.approx(
        calibrate.REF_S / statistics.median(calibration.seconds))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
