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
    s_k_conjugate,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    RunManifest,
    entropy_convergence_report,
    family_potential,
    run_experiment,
)
from .flows import (
    FlowError,
    FlowTrace,
    bergman_iterate,
    classical_krf_run,
    concat_traces,
    euler_gap_report,
    fit_decay,
    flow_vs_krf_gap,
    load_trace,
    monotonicity_probe,
    quantized_flow_run,
    slope_identity_check,
    write_series_csv,
)
from .geometry import (
    DiscreteModel,
    KahlerConeError,
    ModelError,
    PolarizedModel,
    PotentialField,
    ProjectiveLineModel,
    build_discrete_model,
    build_p1_model,
    canonical_measure,
    discrete_model_from_json,
    discrete_model_to_json,
    ma_density,
)
from .hermforms import (
    HermForm,
    PositivityError,
    gen_eig,
    geodesic,
    geodesic_ray,
    log_gap,
    matrix_exp,
    matrix_log,
    random_herm_pd,
    rel_entropy,
)
from .maps import (
    QuantizationError,
    balancing,
    bergman_data,
    beta_map,
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
    extraction_identity_residual,
    l_na_slope,
    na_form_from_json,
    na_form_to_json,
    na_norm_value,
    random_na,
    ray_l_value,
    s_k_na,
    trivial_na,
)

__all__ = [name for name in dir() if not name.startswith("_")]
