"""The public surface of qkrf: its explicit export list and what the benchmark calls."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import qkrf

PUBLIC = [
    # models and potentials
    "PolarizedModel", "ProjectiveLineModel", "DiscreteModel", "PotentialField",
    "build_p1_model", "canonical_measure", "ma_density", "ModelError", "KahlerConeError",
    # Hermitian forms and the quantization maps
    "HermForm", "gen_eig", "log_gap", "random_herm_pd", "PositivityError",
    "project", "fubini_study", "balancing", "orthonormal_orthogonal",
    "QuantizationError",
    # functionals
    "ma_energy", "l_functional", "entropy_classical", "e_k", "d_k", "s_k",
    "conjugate_value", "f_k_na", "FunctionalError",
    # flows and their reports
    "FlowTrace", "quantized_flow_run", "quantized_flow_runs", "bergman_iterate",
    "classical_krf_run",
    "euler_gap_report", "flow_vs_krf_gap", "slope_identity_check", "monotonicity_probe",
    "fit_decay", "FlowError",
    # non-Archimedean norms and duality
    "NAForm", "DHMeasure", "trivial_na", "diagonal_na", "random_na", "na_norm_value",
    "dh_empirical", "ray_l_value", "l_na_slope", "s_k_na", "extract_na_from_flow",
    "duality_gap", "NANormError",
    # experiments
    "ExperimentConfig", "RunManifest", "run_experiment", "family_potential",
    "entropy_convergence_report", "ExperimentError",
]


def test_all_is_the_explicit_list_and_resolves():
    assert qkrf.__all__ == PUBLIC
    for name in qkrf.__all__:
        assert getattr(qkrf, name) is not None


def test_names_the_benchmark_calls_exist():
    for name in (
        "run_experiment", "build_p1_model", "family_potential", "project", "balancing",
        "s_k", "ProjectiveLineModel", "HermForm", "random_herm_pd", "random_na",
        "quantized_flow_run", "l_na_slope",
    ):
        assert callable(getattr(qkrf, name)), name
    assert callable(qkrf.energies.log_ricci_profile)


def test_keywords_the_benchmark_binds_exist():
    flow = inspect.signature(qkrf.quantized_flow_run).parameters
    assert {"t_max", "dt", "with_energies"} <= set(flow)
    slope = list(inspect.signature(qkrf.l_na_slope).parameters)
    assert slope[3] == "t_max"


# scipy is imported where it is used, so that ``import qkrf`` does not pay
# for it.  These checks run in fresh interpreters: the test session itself
# has scipy loaded, which would hide an import the package still makes.

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

# The benchmark's warm-up configs (qkrfbench/run.py), run before its
# start-up timer stops.
WARMUP = [
    {"experiment": "balanced-fixed-point", "k_max": 2, "radial_nodes": 16, "angular_nodes": 16},
    {"experiment": "euler-gap", "k_list": [1, 2, 3], "radial_nodes": 16, "angular_nodes": 16,
     "t_max": 1.0, "refine": 2},
]

# Small configs whose runs reach each use of scipy: the classical solver's LU
# (thmA-gap) and the orthonormalized adapted bases (duality, on two levels,
# and na-panel).
SCIPY_CONFIGS = [
    {"experiment": "thmA-gap", "k_list": [2, 3, 4], "t_max": 0.5, "radial_nodes": 24,
     "angular_nodes": 24},
    {"experiment": "duality", "k_list": [1, 2], "t_max": 2.0, "radial_nodes": 32,
     "angular_nodes": 16, "panel": 2, "slope_t_max": 10.0},
    {"experiment": "na-panel", "k_list": [1, 2], "pairs": 20, "radial_nodes": 32,
     "angular_nodes": 16},
]


def _run_fresh(script: str, *args: str):
    """Run ``script`` in a new interpreter on this qkrf; return its last line as JSON."""
    env = dict(os.environ)
    package_root = str(Path(qkrf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_cli_and_warm_up_leave_scipy_unloaded(tmp_path):
    script = f"""
import json, sys
import qkrf
import qkrf.cli
loaded = {{"import": {SCIPY_MODULES}}}
qkrf.cli.main(["list-experiments"])
loaded["list-experiments"] = {SCIPY_MODULES}
for i, config in enumerate(json.loads(sys.argv[1])):
    qkrf.run_experiment(config, sys.argv[2] + "/warmup" + str(i))
    loaded[config["experiment"]] = {SCIPY_MODULES}
print(json.dumps(loaded))
"""
    loaded = _run_fresh(script, json.dumps(WARMUP), str(tmp_path))
    assert loaded == {"import": [], "list-experiments": [], "balanced-fixed-point": [],
                      "euler-gap": []}


def test_scipy_loads_on_first_use_and_fresh_runs_match(tmp_path):
    """Runs that reach scipy from a fresh interpreter match in-process runs byte for byte."""
    script = f"""
import json, sys
import qkrf
before = {SCIPY_MODULES}
for i, config in enumerate(json.loads(sys.argv[1])):
    qkrf.run_experiment(config, sys.argv[2] + "/" + str(i))
print(json.dumps([before, "scipy.linalg" in sys.modules]))
"""
    fresh = tmp_path / "fresh"
    before, linalg_loaded = _run_fresh(script, json.dumps(SCIPY_CONFIGS), str(fresh))
    assert before == [] and linalg_loaded
    for i, config in enumerate(SCIPY_CONFIGS):
        manifest = qkrf.run_experiment(config, str(tmp_path / "here" / str(i)))
        csvs = [name for name in manifest.artifacts if name.endswith(".csv")]
        assert csvs, config["experiment"]
        for name in csvs:
            here = (tmp_path / "here" / str(i) / name).read_bytes()
            assert (fresh / str(i) / name).read_bytes() == here, name
