"""Numerical laboratory for quantized Kahler-Ricci flow on the projective line."""

__version__ = "0.1.0"

from .energies import (
    FunctionalError,
    conjugate_value,
    d_k,
    e_k,
    entropy_classical,
    f_k_na,
    l_functional,
    ma_energy,
    s_k,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    RunManifest,
    entropy_convergence_report,
    euler_gap_report,
    family_potential,
    run_experiment,
)
from .flows import (
    FlowError,
    FlowTrace,
    bergman_iterate,
    classical_krf_run,
    fit_decay,
    flow_vs_krf_gap,
    monotonicity_probe,
    quantized_flow_run,
    quantized_flow_runs,
    slope_identity_check,
)
from .geometry import (
    DiscreteModel,
    KahlerConeError,
    ModelError,
    PolarizedModel,
    PotentialField,
    ProjectiveLineModel,
    build_p1_model,
    canonical_measure,
    ma_density,
)
from .hermforms import HermForm, PositivityError, gen_eig, log_gap, random_herm_pd
from .maps import (
    QuantizationError,
    balancing,
    fubini_study,
    orthonormal_orthogonal,
    project,
)
from .nanorms import (
    DHMeasure,
    NAForm,
    NANormError,
    dh_empirical,
    diagonal_na,
    duality_gap,
    extract_na_from_flow,
    l_na_slope,
    na_norm_value,
    random_na,
    ray_l_value,
    s_k_na,
    trivial_na,
)

__all__ = [
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
