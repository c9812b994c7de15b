"""The public surface of qkrf: its explicit export list and what the benchmark calls."""

import inspect

import qkrf

PUBLIC = [
    # models and potentials
    "PolarizedModel", "ProjectiveLineModel", "DiscreteModel", "PotentialField",
    "build_p1_model", "canonical_measure", "ma_density", "ModelError", "KahlerConeError",
    # Hermitian forms and the quantization maps
    "HermForm", "gen_eig", "log_gap", "random_herm_pd", "PositivityError",
    "project", "fubini_study", "balancing", "bergman_data", "orthonormal_orthogonal",
    "QuantizationError",
    # functionals
    "ma_energy", "l_functional", "entropy_classical", "e_k", "d_k", "s_k",
    "conjugate_value", "f_k_na", "FunctionalError",
    # flows and their reports
    "FlowTrace", "quantized_flow_run", "bergman_iterate", "classical_krf_run",
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
    assert callable(qkrf.maps.bergman_data)
    assert callable(qkrf.energies.log_ricci_profile)


def test_keywords_the_benchmark_binds_exist():
    flow = inspect.signature(qkrf.quantized_flow_run).parameters
    assert {"t_max", "dt", "with_energies"} <= set(flow)
    slope = list(inspect.signature(qkrf.l_na_slope).parameters)
    assert slope[3] == "t_max"
