"""Batch experiment runner: configs, orchestration, and result emission.

Each experiment is a named recipe, one entry of ``EXPERIMENTS``, that
builds a projective-line model, exercises one identity or convergence
statement, and writes plain CSV artifacts plus a manifest with pass/fail
metrics, each judged by its entry in the one registry ``METRICS``.  A
runner writes through its ``_RunDirectory``, which names each file once
for the manifest, and returns its metrics.  A ``k_list`` is validated
into its sorted distinct levels.  The experiments that draw random
inputs take a seed.  Identical configs
reproduce byte-identical CSVs: floats are always written with 17
significant digits, and the levels of a run are computed one after
another in ascending k.  The monotonicity runs are one stacked quantized
flow.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .energies import entropy_classical, f_k_na, s_k
from .flows import (
    FlowError,
    common_grid,
    euler_gap_at_level,
    fit_decay,
    flow_vs_krf_gap,
    format_float,
    level_steps,
    monotonicity_probe,
    quantized_flow_run,
    quantized_flow_runs,
    slope_identity_check,
    whole_steps,
)
from .geometry import PolarizedModel, PotentialField, ProjectiveLineModel
from .hermforms import HermForm, random_herm_pd
from .maps import balancing, project
from .nanorms import (
    DUALITY_STEP,
    SLOPE_TOL,
    dh_empirical,
    diagonal_na,
    duality_gap,
    extract_na_from_flow,
    l_na_slope,
    random_na,
    s_k_na,
    trivial_na,
    ultrametric_trials,
)


class ExperimentError(ValueError):
    """Invalid experiment configuration; the message carries the field path."""


# ---------------------------------------------------------------------------
# named potential families


FAMILIES = {
    "bump": lambda u, a: a * u * (1.0 - u),
    "sine": lambda u, a: a * np.sin(math.pi * u),
}


def family_potential(
    model: ProjectiveLineModel, family: str, amplitude: float
) -> PotentialField:
    """Build a named radial potential and verify it is a Kahler potential."""
    model.require_radial()
    if family not in FAMILIES:
        raise ExperimentError(f"family: unknown name {family!r}")
    phi = PotentialField(model, None, FAMILIES[family](model.u, float(amplitude)))
    model.admissible_laplacian(phi.radial_profile)
    return phi


# ---------------------------------------------------------------------------
# configuration schema


FIELD_SPECS = {
    "k": ("int", 1, 32),
    "k_max": ("int", 1, 64),
    "k_list": ("int_list", 1, 64),
    "radial_nodes": ("int", 16, 1024),
    "angular_nodes": ("int", 8, 4096),
    "family": ("choice", tuple(FAMILIES)),
    "amplitude": ("float", -0.8, 0.8),
    "t_max": ("float", 1e-9, 256.0),
    "dt": ("float", 1e-9, 1.0),
    "refine": ("int", 2, 16),
    "seed": ("int", 0, 2**31 - 1),
    "runs": ("int", 1, 64),
    "spread": ("float", 1e-6, 2.0),
    "panel": ("int", 1, 64),
    "pairs": ("int", 1, 100000),
    "slope_t_max": ("float", 10.0, 10000.0),
    "fine_factor": ("int", 2, 4),
    "output_dir": ("str",),
}


def _validate_field(path: str, key: str, value):
    spec = FIELD_SPECS.get(key)
    if spec is None:
        raise ExperimentError(f"{path}: unknown field")
    kind = spec[0]
    if kind == "str":
        if not isinstance(value, str) or not value:
            raise ExperimentError(f"{path}: expected a nonempty string")
        return value
    if kind == "choice":
        if value not in spec[1]:
            raise ExperimentError(f"{path}: must be one of {sorted(spec[1])}")
        return value
    if kind == "int_list":
        lo, hi = spec[1], spec[2]
        if not isinstance(value, (list, tuple)) or not value:
            raise ExperimentError(f"{path}: expected a nonempty list of integers")
        out = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
                raise ExperimentError(f"{path}[{i}]: expected an integer")
            if not lo <= item <= hi:
                raise ExperimentError(f"{path}[{i}]: {item} outside [{lo}, {hi}]")
            out.append(int(item))
        return sorted(set(out))
    lo, hi = spec[1], spec[2]
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ExperimentError(f"{path}: expected an integer")
        value = int(value)
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
            raise ExperimentError(f"{path}: expected a real number")
        value = float(value)
    if not lo <= value <= hi:
        raise ExperimentError(f"{path}: {value} outside [{lo}, {hi}]")
    return value


# RK4 is stable on the negative real axis down to about -2.785, and the
# quantized flow relaxes at rate up to k.
RK4_STABILITY_LIMIT = 2.785
# Experiments that fit a decay rate in k.
RATE_EXPERIMENTS = ("euler-gap", "thmA-gap")


def _check_consistency(name: str, params: dict) -> None:
    """Reject field combinations that pass the schema but cannot run."""
    if name in RATE_EXPERIMENTS:
        if len(params["k_list"]) < 3:
            raise ExperimentError(f"{name}.k_list: rate fitting needs at least three distinct levels")
        # both compare two evolutions at every step 1/k within t_max; thmA-gap
        # samples the classical flow every 1/lcm(k_list) as well
        try:
            if name == "thmA-gap":
                common_grid(params["t_max"], params["k_list"])
            level_steps(params["t_max"], min(params["k_list"]))
        except FlowError as exc:
            raise ExperimentError(f"{name}.t_max: {exc}") from exc
    if name == "duality":
        for k in params["k_list"]:
            if not whole_steps(params["t_max"], DUALITY_STEP / k):
                raise ExperimentError(
                    f"{name}.t_max: {params['t_max']} is not a whole number of "
                    f"flow steps {DUALITY_STEP}/k at level {k}"
                )
    if name == "na-panel" and params["pairs"] < len(params["k_list"]):
        raise ExperimentError(
            f"{name}.pairs: {params['pairs']} trials leave a level of k_list untested; "
            f"the pairs are split evenly over its {len(params['k_list'])} levels"
        )
    if "dt" not in params:
        return
    k, dt, t_max = params["k"], params["dt"], params["t_max"]
    if k * dt > RK4_STABILITY_LIMIT:
        raise ExperimentError(
            f"{name}.dt: k*dt = {k * dt:.6g} exceeds the RK4 stability limit "
            f"{RK4_STABILITY_LIMIT} of the level-{k} flow"
        )
    if whole_steps(t_max, dt) < 2:
        raise ExperimentError(
            f"{name}.t_max: {t_max} is not a whole number of at least two steps dt = {dt}"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ExperimentError("config: expected a JSON object")
        name = payload.get("experiment")
        if not isinstance(name, str) or name not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ExperimentError(f"experiment: must be one of {known}")
        params = dict(EXPERIMENTS[name].defaults)
        params.setdefault("output_dir", str(Path("runs") / name))
        for key, value in payload.items():
            if key == "experiment":
                continue
            if key not in params:
                raise ExperimentError(f"{name}.{key}: unknown field")
            params[key] = _validate_field(f"{name}.{key}", key, value)
        _check_consistency(name, params)
        return cls(name, params)

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, **self.params}


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    experiment: str
    config: dict
    version: str
    wall_clock_seconds: float
    metrics: list
    artifacts: list
    passed: bool

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2)

    @staticmethod
    def from_json(path) -> "RunManifest":
        with open(path) as fh:
            payload = json.load(fh)
        return RunManifest(**payload)

    def summary_lines(self) -> list:
        lines = []
        for m in self.metrics:
            status = "PASS" if m["passed"] else "FAIL"
            lines.append(
                f"{status} {self.experiment}:{m['name']} "
                f"value={m['value']:.6g} {m['op']} {m['threshold']:.6g}"
            )
        return lines


def make_metric(name: str, value: float, threshold: float, op: str) -> dict:
    if op not in ("<=", ">="):
        raise ExperimentError(f"metric {name}: unknown comparison {op!r}")
    value = float(value)
    if math.isnan(value):
        ok = False
    elif op == "<=":
        ok = value <= threshold
    else:
        ok = value >= threshold
    return {
        "name": name,
        "value": value,
        "threshold": float(threshold),
        "op": op,
        "passed": bool(ok),
    }


@dataclass(frozen=True)
class GatedMetric:
    """One gated metric: its experiment, comparison, threshold, meaning and control status.

    ``threshold`` is None when the run computes the bound.  ``status`` is
    "control" when a test injects a named defect that fails the metric
    (tests/test_experiments.py::test_a_defect_fails_its_metric), "smoke"
    when no realistic defect can fail it, and "fails" when the default run
    fails it at its stated threshold.
    """

    experiment: str
    op: str
    threshold: Optional[float]
    status: str
    meaning: str


# Absolute slack of na_translation_invariance on top of the two slope uncertainties.
TRANSLATION_SLACK = 1e-6

# Every gated metric, in manifest order; "{k}" in a name stands for each level of the run.
METRICS = {
    "fixed_point_residual": GatedMetric(
        "balanced-fixed-point", "<=", 1e-9, "control",
        "largest relative change |b_k(H) - H| / |H| of the round Gram under balancing",
    ),
    "fixed_point_entropy": GatedMetric(
        "balanced-fixed-point", "<=", 1e-9, "control",
        "largest S_k of the round Gram, which is balanced at every level",
    ),
    "gram_k1_oracle": GatedMetric(
        "balanced-fixed-point", "<=", 1e-10, "control",
        "largest error of the k = 1 round Gram against diag(1/3, 1/6, 1/3)",
    ),
    "euler_gap_slope": GatedMetric(
        "euler-gap", "<=", -0.8, "fails",
        "slope in k of the log-gap between Bergman iterates and the flow (criterion 3)",
    ),
    "thma_slope": GatedMetric(
        "thmA-gap", "<=", -0.8, "control",
        "slope in k of the sup gap between quantized and classical potentials",
    ),
    "thma_resolution_gap": GatedMetric(
        "thmA-gap", "<=", 1e-5, "control",
        "change of the classical potentials on a refined radial grid",
    ),
    "thmb_tail_increase": GatedMetric(
        "thmB-entropy", "<=", 0.0, "control",
        "largest step up of |S_k - S| over the levels k >= TAIL_FROM",
    ),
    "thmb_final_ratio": GatedMetric(
        "thmB-entropy", "<=", 0.02, "fails",
        "|S_k - S| / S at the top level (criterion 5)",
    ),
    "thmb_zero_case": GatedMetric(
        "thmB-entropy", "<=", 1e-8, "control",
        "largest S_k of the zero potential's Gram",
    ),
    "thmb_resolution_control": GatedMetric(
        "thmB-entropy", "<=", 1e-8, "control",
        "largest change of S_k on a refined radial grid",
    ),
    "slope_identity_ratio_low": GatedMetric(
        "slope-identity", ">=", 1.5, "control",
        "coarse over fine residual of S_k = -dL/dt, which is first order in dt",
    ),
    "slope_identity_ratio_high": GatedMetric(
        "slope-identity", "<=", 2.5, "control",
        "coarse over fine residual of S_k = -dL/dt, which is first order in dt",
    ),
    "slope_identity_algebra": GatedMetric(
        "slope-identity", "<=", 1e-9, "control",
        "largest entropy-identity residual of the norms extracted from the first flow states",
    ),
    "monotonicity_excess": GatedMetric(
        "monotonicity", "<=", 0.0, "control",
        "largest excess of dS_k/dt over ((k+1)/N_k) R^2, less its slack, over the seeded runs",
    ),
    "duality_min_s_k_k{k}": GatedMetric(
        "duality", "<=", 0.01, "control",
        "infimum of S_k along the flow, about 0 because P^1 is Kahler-Einstein",
    ),
    "duality_panel_max_k{k}": GatedMetric(
        "duality", "<=", 0.05, "control",
        "largest -S^NA over the panel of norms",
    ),
    "duality_panel_min_k{k}": GatedMetric(
        "duality", ">=", -0.05, "smoke",
        "reads the panel maximum of -S^NA (_run_duality), at least the trivial norm's 0",
    ),
    "duality_one_sided_k{k}": GatedMetric(
        "duality", ">=", 1.0, "control",
        "1 when every panel norm has -S^NA <= inf S_k within its slope uncertainty",
    ),
    "duality_identity_k{k}": GatedMetric(
        "duality", "<=", 1e-9, "control",
        "largest entropy-identity residual of the norms extracted along the flow",
    ),
    "na_ultrametric_violations": GatedMetric(
        "na-panel", "<=", 0.0, "smoke",
        "trials breaking |a + b| <= max(|a|, |b|) or |c a| = |a| on generic sections",
    ),
    "na_dh_moment_deviation": GatedMetric(
        "na-panel", "<=", 1e-12, "control",
        "mean and second moment of a k = 1 Duistermaat-Heckman measure against 1, sqrt(2/3)",
    ),
    "na_free_energy_oracle": GatedMetric(
        "na-panel", "<=", 1e-12, "control",
        "f_k^NA of a k = 1 diagonal norm against its closed form",
    ),
    "na_trivial_slope": GatedMetric(
        "na-panel", "<=", 1e-9, "smoke",
        "|slope of L| along the trivial norm's ray, which is 0 whatever its sign",
    ),
    "na_constant_slope_deviation": GatedMetric(
        "na-panel", "<=", 1e-9, "control",
        "slope of L along a constant-weight norm's ray against its weight 0.7",
    ),
    "na_slope_t_stability": GatedMetric(
        "na-panel", "<=", None, "smoke",
        "change of a monomial norm's slope when the horizon doubles; "
        "bound max(its uncertainty, SLOPE_TOL)",
    ),
    "na_slope_uncertainty": GatedMetric(
        "na-panel", "<=", 1e-3, "control",
        "stated uncertainty of that monomial norm's slope",
    ),
    "na_translation_invariance": GatedMetric(
        "na-panel", "<=", None, "control",
        "change of S^NA_k when the weights shift by 1.7; "
        "bound the two uncertainties plus TRANSLATION_SLACK",
    ),
}


def metric(
    name: str, value: float, bound: Optional[float] = None, k: Optional[int] = None
) -> dict:
    """The manifest entry of registered metric ``name``, formatted at level ``k``.

    ``bound`` is the threshold the run computed, given exactly for the
    entries whose threshold is None.
    """
    entry = METRICS[name]
    if (entry.threshold is None) == (bound is None):
        raise ExperimentError(
            f"metric {name}: a computed bound is given exactly when its threshold is None"
        )
    threshold = entry.threshold if bound is None else bound
    return make_metric(name.format(k=k), value, threshold, entry.op)


# ---------------------------------------------------------------------------
# shared utilities


def write_table_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    def cell(x) -> str:
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return format_float(x)
        return str(x)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(x) for x in row) + "\n")


def euler_gap_report(
    model: PolarizedModel,
    phi0: PotentialField,
    t_max: float,
    k_list: Sequence[int],
    refine: int = 4,
) -> dict:
    """``euler_gap_at_level`` at each distinct level, with its fitted decay slope in k."""
    k_values = sorted(set(int(k) for k in k_list))
    errors = [euler_gap_at_level(model, phi0, t_max, k, refine) for k in k_values]
    slope, half_width = fit_decay(k_values, errors)
    return {
        "k_values": k_values,
        "errors": errors,
        "slope": slope,
        "slope_half_width": half_width,
    }


# Levels from which the entropy gap |S_k - S| must not increase.
TAIL_FROM = 4


def entropy_convergence_report(
    model: ProjectiveLineModel,
    phi0: PotentialField,
    k_list: Sequence[int],
    fine_factor: int = 2,
) -> dict:
    """Rows (k, S_k(p_k(phi0)), S(phi0), |difference|) with a refined oracle.

    The classical entropy is taken from a grid ``fine_factor`` times
    finer; the same refinement controls the discretization of each S_k.
    ``worst_tail_increase`` is the largest step up of |difference| over
    the levels k >= TAIL_FROM.  ``s_k_zero`` holds S_k of the zero
    potential's Gram, which is balanced, taken in the same walk over the
    levels as S_k(p_k(phi0)), so that each level's tables are built once.
    """
    k_values = sorted(set(int(k) for k in k_list))
    fine_phi = phi0.refined(fine_factor)
    s_classical = entropy_classical(fine_phi)
    zero = model.zero_potential()
    s_k_values, s_k_zero = [], []
    for k in k_values:
        s_k_values.append(s_k(model, project(phi0, k)))
        s_k_zero.append(s_k(model, project(zero, k)))
    s_k_fine = [s_k(fine_phi.model, project(fine_phi, k)) for k in k_values]
    diffs = [abs(v - s_classical) for v in s_k_values]
    tail = [d for k, d in zip(k_values, diffs) if k >= TAIL_FROM]
    worst_increase = max(np.diff(tail)) if len(tail) > 1 else 0.0
    return {
        "k_values": k_values,
        "s_k": s_k_values,
        "s_k_zero": s_k_zero,
        "s_k_fine": s_k_fine,
        "s_classical": s_classical,
        "diffs": diffs,
        "worst_tail_increase": float(worst_increase),
        "final_ratio": float(diffs[-1] / s_classical) if s_classical > 0 else 0.0,
        "resolution_control": float(
            max(abs(a - b) for a, b in zip(s_k_values, s_k_fine))
        ),
    }


# ---------------------------------------------------------------------------
# experiment runners


class _RunDirectory:
    """A run's output directory, which records the name of each file written to it."""

    def __init__(self, path: Path):
        self.path, self.artifacts = path, []

    def table(self, name: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        """Write a CSV table with ``write_table_csv``."""
        write_table_csv(self.path / name, header, rows)
        self.artifacts.append(name)

    def trace(self, name: str, trace) -> None:
        """Write a flow's series with ``FlowTrace.save``, under the prefix ``name``."""
        self.artifacts += [Path(p).name for p in trace.save(str(self.path / name))]


def _model_from(params: dict, k_top: int) -> ProjectiveLineModel:
    return ProjectiveLineModel(
        k_max=k_top,
        radial_nodes=params["radial_nodes"],
        angular_nodes=params["angular_nodes"],
    )


def _run_balanced_fixed_point(params: dict, out: _RunDirectory) -> list:
    model = _model_from(params, params["k_max"])
    zero = model.zero_potential()
    rows = []
    for k in model.levels:
        h = project(zero, k)
        b = balancing(model, h)
        residual = float(np.linalg.norm(b.data - h.data) / np.linalg.norm(h.data))
        rows.append((k, residual, s_k(model, h, balanced=b)))
        if k == 1:
            gram_error = float(np.max(np.abs(h.diagonal() - [1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0])))
    out.table("balanced-fixed-point.csv", ["k", "residual", "s_k"], rows)
    return [
        metric("fixed_point_residual", max(r[1] for r in rows)),
        metric("fixed_point_entropy", max(r[2] for r in rows)),
        metric("gram_k1_oracle", gram_error),
    ]


def _run_euler_gap(params: dict, out: _RunDirectory) -> list:
    model = _model_from(params, max(params["k_list"]))
    phi0 = family_potential(model, params["family"], params["amplitude"])
    report = euler_gap_report(model, phi0, params["t_max"], params["k_list"], params["refine"])
    out.table("euler-gap.csv", ["k", "error"], list(zip(report["k_values"], report["errors"])))
    out.table(
        "euler-gap-fit.csv",
        ["slope", "half_width"],
        [[report["slope"], report["slope_half_width"]]],
    )
    return [metric("euler_gap_slope", report["slope"])]


def _run_thma_gap(params: dict, out: _RunDirectory) -> list:
    model = _model_from(params, max(params["k_list"]))
    phi0 = family_potential(model, params["family"], params["amplitude"])
    report = flow_vs_krf_gap(
        model,
        phi0,
        params["t_max"],
        params["k_list"],
        refine=params["refine"],
        resolution_factor=params["fine_factor"],
    )
    out.table("thmA-gap.csv", ["k", "error"], list(zip(report["k_values"], report["errors"])))
    out.table(
        "thmA-consistency.csv",
        ["resolution_gap", "slope", "slope_half_width"],
        [[report["resolution_gap"], report["slope"], report["slope_half_width"]]],
    )
    return [
        metric("thma_slope", report["slope"]),
        metric("thma_resolution_gap", report["resolution_gap"]),
    ]


def _run_thmb_entropy(params: dict, out: _RunDirectory) -> list:
    model = _model_from(params, max(params["k_list"]))
    phi0 = family_potential(model, params["family"], params["amplitude"])
    report = entropy_convergence_report(
        model, phi0, params["k_list"], fine_factor=params["fine_factor"]
    )
    rows = [
        (k, sk, report["s_classical"], d, skf)
        for k, sk, d, skf in zip(
            report["k_values"], report["s_k"], report["diffs"], report["s_k_fine"]
        )
    ]
    out.table("thmB-entropy.csv", ["k", "S_k", "S", "abs_diff", "S_k_fine"], rows)
    out.table("thmB-zero.csv", ["k", "S_k"], list(zip(report["k_values"], report["s_k_zero"])))
    return [
        metric("thmb_tail_increase", report["worst_tail_increase"]),
        metric("thmb_final_ratio", report["final_ratio"]),
        metric("thmb_zero_case", max(report["s_k_zero"])),
        metric("thmb_resolution_control", report["resolution_control"]),
    ]


def _run_slope_identity(params: dict, out: _RunDirectory) -> list:
    k = params["k"]
    model = _model_from(params, k)
    phi0 = family_potential(model, params["family"], params["amplitude"])
    h0 = project(phi0, k)
    results = []
    last_trace = None
    for label, dt in (("coarse", params["dt"]), ("fine", params["dt"] / 2.0)):
        last_trace = quantized_flow_run(model, h0, params["t_max"], dt)
        check = slope_identity_check(last_trace)
        out.trace(f"slope-identity-{label}", last_trace)
        results.append((label, dt, check["max_residual"]))
    ratio = results[0][2] / results[1][2]
    out.table("slope-identity.csv", ["grid", "dt", "max_residual"], results)
    identity_residual = max(
        extract_na_from_flow(model, h)[1] for h in last_trace.states[:3]
    )
    return [
        metric("slope_identity_ratio_low", ratio),
        metric("slope_identity_ratio_high", ratio),
        metric("slope_identity_algebra", identity_residual),
    ]


def _run_monotonicity(params: dict, out: _RunDirectory) -> list:
    k = params["k"]
    model = _model_from(params, k)
    n = model.nk(k)
    starts = []
    for i in range(params["runs"]):
        rng = np.random.default_rng([params["seed"], i])
        starts.append(HermForm(k, random_herm_pd(rng, n, spread=params["spread"])))
    rows = []
    for i, trace in enumerate(quantized_flow_runs(model, starts, params["t_max"], params["dt"])):
        probe = monotonicity_probe(trace)
        out.trace(f"monotonicity-run{i}", trace)
        rows.append((i, probe["worst"], probe["slack"], probe["worst"] - probe["slack"]))
    out.table("monotonicity.csv", ["run", "worst_margin", "slack", "excess"], rows)
    return [metric("monotonicity_excess", max(r[3] for r in rows))]


def _run_duality(params: dict, out: _RunDirectory) -> list:
    model = _model_from(params, max(params["k_list"]))
    phi0 = family_potential(model, params["family"], params["amplitude"])
    metrics = []
    for k in params["k_list"]:
        report = duality_gap(
            model,
            k,
            phi0,
            t_max=params["t_max"],
            panel=params["panel"],
            seed=params["seed"] + k,
            slope_t_max=params["slope_t_max"],
        )
        # each row dict holds its table's columns in header order
        for table in ("extracted", "panel"):
            rows = report[table]
            out.table(f"duality-{table}-k{k}.csv", list(rows[0]), [r.values() for r in rows])
        worst_identity = max(e["identity_residual"] for e in report["extracted"])
        metrics += [
            metric("duality_min_s_k_k{k}", report["min_s_k"], k=k),
            metric("duality_panel_max_k{k}", report["panel_max_minus_s_na"], k=k),
            metric("duality_panel_min_k{k}", report["panel_max_minus_s_na"], k=k),
            metric("duality_one_sided_k{k}", 1.0 if report["one_sided_all"] else 0.0, k=k),
            metric("duality_identity_k{k}", worst_identity, k=k),
        ]
    return metrics


def _run_na_panel(params: dict, out: _RunDirectory) -> list:
    k_values = params["k_list"]
    model = _model_from(params, max(k_values))
    rng = np.random.default_rng(params["seed"])
    metrics = []

    violations = 0
    for k in k_values:
        lhs, at_a, at_b, scaled = ultrametric_trials(
            rng, model, k, params["pairs"] // len(k_values)
        ).T
        violations += int(np.count_nonzero((lhs > np.maximum(at_a, at_b)) | (scaled != at_a)))
    metrics.append(metric("na_ultrametric_violations", float(violations)))

    probe = diagonal_na(model, 1, [2.0, 1.0, 0.0])
    dh = dh_empirical(probe)
    dh_dev = max(
        abs(dh.mean - 1.0), abs(dh.second_moment - math.sqrt(2.0 / 3.0))
    )
    metrics.append(metric("na_dh_moment_deviation", dh_dev))

    f_oracle = -math.log((1.0 + math.exp(-1.0) + math.exp(-2.0)) / 3.0)
    f_dev = abs(f_k_na(diagonal_na(model, 1, [0.0, 1.0, 2.0])) - f_oracle)
    metrics.append(metric("na_free_energy_oracle", f_dev))

    base = project(model.zero_potential(), 1)
    trivial_slope = l_na_slope(model, trivial_na(model, 1), base, params["slope_t_max"])
    metrics.append(metric("na_trivial_slope", abs(trivial_slope.value)))
    const = diagonal_na(model, 1, [0.7, 0.7, 0.7])
    const_slope = l_na_slope(model, const, base, params["slope_t_max"])
    metrics.append(metric("na_constant_slope_deviation", abs(const_slope.value - 0.7)))

    monomial = diagonal_na(model, 1, [1.0, 0.0, 0.0])
    near = l_na_slope(model, monomial, base, params["slope_t_max"])
    far = l_na_slope(model, monomial, base, 2.0 * params["slope_t_max"])
    stability = abs(near.value - far.value)
    metrics.append(metric("na_slope_t_stability", stability, max(near.uncertainty, SLOPE_TOL)))
    metrics.append(metric("na_slope_uncertainty", near.uncertainty))

    k_t = max(k_values)
    base_t = project(model.zero_potential(), k_t)
    nu_t = random_na(rng, model, k_t, spread=0.8)
    before = s_k_na(model, nu_t, base_t, t_max=params["slope_t_max"])
    after = s_k_na(model, nu_t.shifted(1.7), base_t, t_max=params["slope_t_max"])
    translation_dev = abs(after.value - before.value)
    translation_tol = before.uncertainty + after.uncertainty + TRANSLATION_SLACK
    metrics.append(metric("na_translation_invariance", translation_dev, translation_tol))

    out.table(
        "na-panel.csv",
        ["check", "value", "bound"],
        [(m["name"].removeprefix("na_"), m["value"], m["threshold"]) for m in metrics],
    )
    return metrics


class _Experiment(NamedTuple):
    description: str
    defaults: dict
    run: Callable[[dict, _RunDirectory], list]


# Every experiment: its description, the config fields it takes besides
# output_dir, with their defaults, and its runner.  Only the experiments
# that draw random inputs take a seed.
EXPERIMENTS = {
    "balanced-fixed-point": _Experiment(
        "round-metric Gram is a balancing fixed point, k = 1..k_max",
        {"k_max": 6, "radial_nodes": 96, "angular_nodes": 32},
        _run_balanced_fixed_point,
    ),
    "euler-gap": _Experiment(
        "log-gap between Bergman iterates and the integrated flow, fitted in k",
        {"k_list": [2, 4, 8, 16], "radial_nodes": 96, "angular_nodes": 72,
         "family": "bump", "amplitude": 0.3, "t_max": 1.0, "refine": 4},
        _run_euler_gap,
    ),
    "thmA-gap": _Experiment(
        "quantized potentials track the classical flow at rate 1/k",
        {"k_list": [4, 8, 16, 32], "radial_nodes": 128, "angular_nodes": 136,
         "family": "bump", "amplitude": 0.3, "t_max": 1.0, "refine": 2, "fine_factor": 2},
        _run_thma_gap,
    ),
    "thmB-entropy": _Experiment(
        "quantized entropy converges to the classical entropy",
        {"k_list": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], "radial_nodes": 128,
         "angular_nodes": 56, "family": "bump", "amplitude": 0.5, "fine_factor": 2},
        _run_thmb_entropy,
    ),
    "slope-identity": _Experiment(
        "entropy equals minus the slope of L along the flow",
        {"k": 2, "radial_nodes": 96, "angular_nodes": 16,
         "family": "bump", "amplitude": 0.3, "t_max": 1.0, "dt": 0.05},
        _run_slope_identity,
    ),
    "monotonicity": _Experiment(
        "asymptotic entropy monotonicity bound along seeded runs",
        {"k": 2, "radial_nodes": 96, "angular_nodes": 16,
         "runs": 5, "spread": 0.5, "t_max": 2.0, "dt": 0.01, "seed": 0},
        _run_monotonicity,
    ),
    "duality": _Experiment(
        "flow infimum of the entropy against extracted ultrametric norms",
        {"k_list": [1, 2], "radial_nodes": 96, "angular_nodes": 24, "family": "bump",
         "amplitude": 0.3, "t_max": 12.0, "panel": 5, "slope_t_max": 40.0, "seed": 0},
        _run_duality,
    ),
    "na-panel": _Experiment(
        "ultrametric axioms, jump-measure moments, and ray slopes",
        {"k_list": [1, 2], "radial_nodes": 96, "angular_nodes": 24,
         "pairs": 1000, "slope_t_max": 40.0, "seed": 0},
        _run_na_panel,
    ),
}


def run_experiment(config, output_dir: Optional[str] = None) -> RunManifest:
    """Execute a named experiment and write its artifacts and manifest."""
    cfg = (
        config
        if isinstance(config, ExperimentConfig)
        else ExperimentConfig.from_dict(config)
    )
    out = _RunDirectory(Path(output_dir) if output_dir else Path(cfg.params["output_dir"]))
    out.path.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    metrics = EXPERIMENTS[cfg.experiment].run(cfg.params, out)
    elapsed = time.perf_counter() - start
    from qkrf import __version__

    manifest = RunManifest(
        experiment=cfg.experiment,
        config=cfg.to_dict(),
        version=__version__,
        wall_clock_seconds=float(elapsed),
        metrics=metrics,
        artifacts=sorted(out.artifacts),
        passed=bool(all(m["passed"] for m in metrics)),
    )
    manifest.to_json(out.path / "manifest.json")
    return manifest
