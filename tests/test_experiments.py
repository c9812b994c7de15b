import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qkrf import experiments, geometry, maps
from qkrf.cli import main as cli_main
from qkrf.flows import FlowError
from qkrf.nanorms import DHMeasure
from qkrf.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentError,
    FIELD_SPECS,
    METRICS,
    RunManifest,
    family_potential,
    fit_decay,
    make_metric,
    run_experiment,
)


def test_fit_decay_exact_rates():
    k = [2, 4, 8, 16]
    slope, half = fit_decay(k, [1.0 / x for x in k])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert half <= 1e-12
    slope2, _ = fit_decay(k, [1.0 / x**2 for x in k])
    assert slope2 == pytest.approx(-2.0, abs=1e-12)


def test_fit_decay_noisy_seeded():
    rng = np.random.default_rng(5)
    k = np.array([2, 4, 8, 16, 32])
    errors = (1.0 / k) * np.exp(0.05 * rng.standard_normal(k.size))
    slope, half = fit_decay(k, errors)
    assert abs(slope + 1.0) <= 0.15
    assert half > 0.0


def test_fit_decay_guards():
    with pytest.raises(FlowError):
        fit_decay([2, 4], [0.1, 0.05])
    with pytest.raises(FlowError):
        fit_decay([2, 4, 8], [0.1, 0.0, 0.01])


def test_family_potential_validation(p1):
    from qkrf.geometry import KahlerConeError

    phi = family_potential(p1, "bump", 0.3)
    assert phi.is_radial
    with pytest.raises(ExperimentError):
        family_potential(p1, "plateau", 0.3)
    with pytest.raises(KahlerConeError):
        family_potential(p1, "bump", 5.0)


def test_family_sine_profile(p1):
    phi = family_potential(p1, "sine", 0.2)
    assert np.allclose(phi.require_profile(), 0.2 * np.sin(np.pi * p1.u), atol=1e-15)


def test_config_defaults_and_round_trip():
    cfg = ExperimentConfig.from_dict({"experiment": "monotonicity"})
    assert cfg.params["k"] == EXPERIMENTS["monotonicity"].defaults["k"]
    assert cfg.params["seed"] == 0
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_experiment():
    with pytest.raises(ExperimentError):
        ExperimentConfig.from_dict({"experiment": "warp-drive"})


def test_config_field_errors_carry_paths():
    with pytest.raises(ExperimentError, match="duality.panel"):
        ExperimentConfig.from_dict({"experiment": "duality", "panel": 0})
    with pytest.raises(ExperimentError, match="euler-gap.k_list"):
        ExperimentConfig.from_dict({"experiment": "euler-gap", "k_list": [0, 2]})
    with pytest.raises(ExperimentError, match="monotonicity.turbo"):
        ExperimentConfig.from_dict({"experiment": "monotonicity", "turbo": True})
    with pytest.raises(ExperimentError, match="thmB-entropy.amplitude"):
        ExperimentConfig.from_dict({"experiment": "thmB-entropy", "amplitude": 2.0})
    # only the experiments that draw random inputs take a seed
    with pytest.raises(ExperimentError, match="euler-gap.seed: unknown field"):
        ExperimentConfig.from_dict({"experiment": "euler-gap", "seed": 7})


def test_config_rejects_inconsistent_steps():
    with pytest.raises(ExperimentError, match="monotonicity.t_max"):
        ExperimentConfig.from_dict({"experiment": "monotonicity", "t_max": 0.015, "dt": 0.01})
    with pytest.raises(ExperimentError, match="slope-identity.t_max"):
        ExperimentConfig.from_dict({"experiment": "slope-identity", "t_max": 0.05, "dt": 0.05})
    with pytest.raises(ExperimentError, match="slope-identity.dt: k\\*dt = 32 exceeds"):
        ExperimentConfig.from_dict({"experiment": "slope-identity", "k": 32, "dt": 1})
    with pytest.raises(ExperimentError, match="euler-gap.k_list"):
        ExperimentConfig.from_dict({"experiment": "euler-gap", "k_list": [2, 4, 4]})
    cfg = ExperimentConfig.from_dict({"experiment": "monotonicity", "k": 32, "dt": 0.08, "t_max": 0.16})
    assert cfg.params["dt"] == 0.08


@pytest.mark.parametrize(
    "config, message",
    [
        # duality steps at 1/(4k): 1.1 is 4.4 steps at k = 1
        ({"experiment": "duality", "t_max": 1.1}, "duality.t_max: 1.1 is not a whole number"),
        ({"experiment": "duality", "k_list": [2, 3], "t_max": 0.125}, "at level 3"),
        # thmA-gap samples the classical flow every 1/lcm(k_list) = 1/32
        ({"experiment": "thmA-gap", "t_max": 0.1}, "thmA-gap.t_max: 0.1 is not a multiple"),
        ({"experiment": "thmA-gap", "t_max": 0.125}, "thmA-gap.t_max: 0.125 is shorter"),
        # euler-gap compares the evolutions at every step 1/k, here from 1/2
        (
            {"experiment": "euler-gap", "k_list": [2, 4, 8], "t_max": 0.1},
            "euler-gap.t_max: 0.1 is shorter than one step 1/2 at level 2",
        ),
    ],
)
def test_config_rejects_off_grid_horizons(config, message):
    with pytest.raises(ExperimentError, match=message):
        ExperimentConfig.from_dict(config)


def test_benchmark_configs_parse():
    thma = ExperimentConfig.from_dict(
        {"experiment": "thmA-gap", "k_list": [16, 32, 64], "t_max": 0.0625}
    )
    assert thma.params["t_max"] == 0.0625
    duality = ExperimentConfig.from_dict(
        {"experiment": "duality", "k_list": [1, 2], "t_max": 12.0}
    )
    assert duality.params["t_max"] == 12.0


def test_thma_gap_runs_on_a_horizon_between_level_steps(tmp_path):
    # 7/16 is on the 1/lcm(k_list) grid but not a whole number of steps 1/4
    cfg = {"experiment": "thmA-gap", "k_list": [4, 8, 16], "t_max": 0.4375,
           "radial_nodes": 32, "angular_nodes": 72}
    manifest = run_experiment(cfg, output_dir=str(tmp_path))
    assert {m["name"] for m in manifest.metrics} == {"thma_slope", "thma_resolution_gap"}


def test_every_experiment_has_defaults_and_description():
    assert set(EXPERIMENTS) == {e.experiment for e in METRICS.values()}
    assert "thmA-gap" in EXPERIMENTS and "thmB-entropy" in EXPERIMENTS


def _registered(experiment=None, status=None):
    """Default-run manifest names of the registry entries, of one experiment or status if given."""
    return {
        key.format(k=k)
        for key, entry in METRICS.items()
        if experiment in (None, entry.experiment) and status in (None, entry.status)
        for k in EXPERIMENTS[entry.experiment].defaults.get("k_list", [None])
    }


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_a_default_run_emits_exactly_its_registered_metrics(tmp_path, experiment):
    """Each default run emits each registry entry once, and fails exactly the "fails" ones."""
    manifest = run_experiment({"experiment": experiment}, str(tmp_path))
    names = [m["name"] for m in manifest.metrics]
    assert sorted(names) == sorted(_registered(experiment))
    failed = {m["name"] for m in manifest.metrics if not m["passed"]}
    assert failed == _registered(experiment, "fails")


def test_every_registered_metric_has_a_status():
    """Each entry has a control, is a smoke test, or is a standing failure."""
    for name, entry in METRICS.items():
        assert entry.status in ("control", "smoke", "fails"), name


def test_metric_passes_rules():
    assert make_metric("m", 0.5, 1.0, "<=")["passed"]
    assert not make_metric("m", 2.0, 1.0, "<=")["passed"]
    assert make_metric("m", 2.0, 1.0, ">=")["passed"]
    assert not make_metric("m", float("nan"), 1.0, "<=")["passed"]
    with pytest.raises(ExperimentError):
        make_metric("m", 0.5, 1.0, "<")
    assert experiments.metric("duality_min_s_k_k{k}", 0.0, k=3) == make_metric(
        "duality_min_s_k_k3", 0.0, 0.01, "<="
    )
    assert experiments.metric("na_slope_t_stability", 0.5, 1.0)["threshold"] == 1.0
    with pytest.raises(ExperimentError, match="computed bound"):
        experiments.metric("thma_slope", -1.0, -0.5)
    with pytest.raises(ExperimentError, match="computed bound"):
        experiments.metric("na_translation_invariance", 0.0)


@pytest.mark.parametrize(
    "payload, files",
    [
        ({"experiment": "na-panel", "pairs": 100}, 1),
        ({"experiment": "euler-gap", "k_list": [2, 3, 4], "radial_nodes": 32,
          "angular_nodes": 24, "t_max": 1.0}, 2),
        ({"experiment": "monotonicity", "runs": 3, "t_max": 0.5}, 1 + 3),
    ],
    ids=["na-panel", "euler-gap", "monotonicity"],
)
def test_run_writes_manifest_and_is_deterministic(tmp_path, payload, files):
    """Two runs of one config give equal metrics and byte-identical artifacts."""
    cfg = ExperimentConfig.from_dict(payload)
    m1 = run_experiment(cfg, output_dir=str(tmp_path / "a"))
    m2 = run_experiment(cfg, output_dir=str(tmp_path / "b"))
    assert m1.metrics == m2.metrics
    assert m1.artifacts == m2.artifacts and len(m1.artifacts) == files
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert written == sorted(m1.artifacts + ["manifest.json"])
    for name in m1.artifacts:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    loaded = RunManifest.from_json(str(tmp_path / "a" / "manifest.json"))
    assert loaded.experiment == cfg.experiment
    assert loaded.metrics == m1.metrics and loaded.passed == m1.passed
    statuses = [line.split()[0] for line in loaded.summary_lines()]
    assert statuses == ["PASS" if m["passed"] else "FAIL" for m in m1.metrics]


def test_a_run_lists_only_the_files_it_writes(tmp_path):
    """A file already in the output directory is not among the run's artifacts."""
    (tmp_path / "notes.txt").write_text("not written by the run\n")
    manifest = run_experiment({"experiment": "monotonicity", "runs": 2, "t_max": 0.5}, str(tmp_path))
    assert manifest.artifacts == ["monotonicity-run0.csv", "monotonicity-run1.csv", "monotonicity.csv"]
    held = sorted(p.name for p in tmp_path.iterdir())
    assert held == sorted(manifest.artifacts + ["manifest.json", "notes.txt"])


def test_a_k_list_is_recorded_sorted_and_distinct(tmp_path):
    """Levels in any order, repeated or not, run and are recorded as the sorted distinct levels."""
    given = run_experiment({"experiment": "euler-gap", "k_list": [16, 8, 4, 2, 8]}, str(tmp_path / "a"))
    canonical = run_experiment({"experiment": "euler-gap", "k_list": [2, 4, 8, 16]}, str(tmp_path / "b"))
    assert RunManifest.from_json(tmp_path / "a" / "manifest.json").config["k_list"] == [2, 4, 8, 16]
    assert given.metrics == canonical.metrics and given.artifacts == canonical.artifacts
    for name in canonical.artifacts:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("experiment", ["balanced-fixed-point", "thmB-entropy"])
def test_a_default_run_builds_each_level_table_once(tmp_path, monkeypatch, experiment):
    """A model holds one level of each kind of table, and a run walks its levels once."""
    level_table = geometry.ProjectiveLineModel._level_table
    built, models = [], []

    def counted(model, what, k, nbytes, build):
        def counting_build():
            models.append(model)  # kept alive, so that no two models share an id
            built.append((id(model), what, k))
            return build()

        return level_table(model, what, k, nbytes, counting_build)

    monkeypatch.setattr(geometry.ProjectiveLineModel, "_level_table", counted)
    run_experiment({"experiment": experiment}, str(tmp_path))
    assert built and len(built) == len(set(built))


def test_cli_list_experiments(capsys):
    assert cli_main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_run_and_check(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps({"experiment": "na-panel", "pairs": 100})
    )
    out_dir = tmp_path / "out"
    code = cli_main(["run", str(config_path), "--output-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "manifest.json").exists()
    assert cli_main(["check", str(out_dir / "manifest.json")]) == 0
    doc = json.loads((out_dir / "manifest.json").read_text())
    doc["metrics"][0]["value"] = doc["metrics"][0]["threshold"] + 1.0
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["check", str(bad)]) == 1


def test_cli_config_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["run", str(missing)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"experiment": "duality", "panel": -3}))
    assert cli_main(["run", str(invalid)]) == 2
    err = capsys.readouterr().err
    assert "duality.panel" in err


@pytest.mark.parametrize("name", [["euler-gap"], {"a": 1}])
def test_cli_non_string_experiment_exits_two(tmp_path, capsys, name):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": name}))
    assert cli_main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
    assert "experiment: must be one of" in capsys.readouterr().err


def test_cli_rejects_a_threshold_field(tmp_path, capsys):
    """Pass/fail thresholds are fixed by the experiments, not set by a config."""
    config = tmp_path / "threshold.json"
    config.write_text(json.dumps({"experiment": "thmB-entropy", "threshold": 0.5}))
    assert cli_main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
    assert "thmB-entropy.threshold: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, field",
    [
        ({"experiment": "monotonicity", "t_max": 0.015, "dt": 0.01}, "monotonicity.t_max"),
        ({"experiment": "slope-identity", "k": 32, "dt": 1}, "slope-identity.dt"),
        ({"experiment": "duality", "t_max": 1.1}, "duality.t_max"),
        ({"experiment": "thmA-gap", "t_max": 0.1}, "thmA-gap.t_max"),
        ({"experiment": "thmA-gap", "t_max": 0.125}, "thmA-gap.t_max"),
        ({"experiment": "euler-gap", "k_list": [2, 4, 8], "t_max": 0.1}, "euler-gap.t_max"),
        # one trial for two levels: the panel would test nothing
        ({"experiment": "na-panel", "pairs": 1}, "na-panel.pairs"),
        ({"experiment": "na-panel", "k_list": [1, 2, 3, 3], "pairs": 2}, "na-panel.pairs"),
    ],
)
def test_cli_inconsistent_steps_exit_two(tmp_path, capsys, config, field):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert cli_main(["run", str(config_path), "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {field}:")
    assert not out_dir.exists()


def test_cli_numerical_failure_exits_three(tmp_path, capsys):
    # Passes the schema, but -0.8 sin(pi u) is not a Kahler potential.
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps({"experiment": "euler-gap", "family": "sine", "amplitude": -0.8})
    )
    out_dir = tmp_path / "out"
    assert cli_main(["run", str(config_path), "--output-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: run failed: KahlerConeError:")
    assert "Traceback" not in err


@pytest.mark.parametrize("experiment", ["na-panel", "duality"])
def test_a_section_table_past_the_byte_budget_exits_three(
    tmp_path, capsys, monkeypatch, experiment
):
    """The largest grid the schema allows cannot cache its level-64 section table.

    Checked by arithmetic, then end to end with the budget lowered to one
    byte short of a small run's top section table.
    """
    k_top, radial, angular = (
        FIELD_SPECS[name][2] for name in ("k_list", "radial_nodes", "angular_nodes")
    )
    assert 16 * (2 * k_top + 1) * radial * angular > geometry.RESOURCE_LIMIT
    k, grid = 2, {"k_list": [2], "radial_nodes": 96, "angular_nodes": 24}
    monkeypatch.setattr(geometry, "RESOURCE_LIMIT", 16 * (2 * k + 1) * 96 * 24 - 1)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"experiment": experiment, **grid}))
    assert cli_main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: run failed: ModelError: sections at level {k}:")
    assert "resource limit" in err


def test_duality_csvs_carry_the_converged_flags(tmp_path):
    """Each slope's flag is written next to its uncertainty: converged iff it is within SLOPE_TOL."""
    from qkrf.nanorms import SLOPE_TOL

    run_experiment({"experiment": "duality"}, str(tmp_path))
    for name, after in (("extracted", "base_spread"), ("panel", "one_sided_ok")):
        for k in (1, 2):
            header, *rows = (tmp_path / f"duality-{name}-k{k}.csv").read_text().splitlines()
            columns = header.split(",")
            assert columns[-3:] == ["uncertainty", "converged", after]
            for row in rows:
                cells = dict(zip(columns, row.split(",")))
                assert cells["converged"] == ("1" if float(cells["uncertainty"]) <= SLOPE_TOL else "0")


# ---------------------------------------------------------------------------
# negative controls: a named defect fails a gated metric at its own threshold


def _drop_section_zero(bergman_sum):
    """``maps._bergman_sum`` with section 0 left out of the radial Bergman sum.

    The inverse spectrum's entry 0 set to 0 weighs that section's term with 0.
    """

    def dropped(model, k, inverse, frame, sigma):
        if sigma is not None:
            inverse = inverse.copy()
            inverse[..., 0] = 0.0
        return bergman_sum(model, k, inverse, frame, sigma)

    return dropped


def _without_log_z(twisted_weights):
    """``maps.twisted_weights`` without the normalization by Z = int e^(-phi) mu0."""
    return lambda log_mu0, values, power=1: np.exp(log_mu0 - power * values)


def _negated_slope(l_na_slope):
    """``l_na_slope`` with the sign of every estimate flipped."""

    def negated(*args, **kwargs):
        estimate = l_na_slope(*args, **kwargs)
        return dataclasses.replace(estimate, value=-estimate.value)

    return negated


def _without_log_nk(f_k_na):
    """``experiments.f_k_na`` without its log N_k term."""
    return lambda nu: f_k_na(nu) - np.log(nu.dim)


def _pairing_without_log_nk(conjugate_value):
    """``nanorms.conjugate_value`` without its log N_k term."""
    return lambda b_norms, k, lam: conjugate_value(b_norms, k, lam) - np.log(len(b_norms))


def _free_energy_over_k_plus_1(f_k_na):
    """``nanorms.f_k_na`` with lam_i / (k + 1) in place of lam_i / k."""
    return lambda nu: float(np.log(nu.dim) - geometry.logsumexp(-nu.weights / (nu.level + 1)))


def _doubled(l_from_log_z):
    """``flows._l_from_log_z`` times two."""
    return lambda model, log_z: 2.0 * l_from_log_z(model, log_z)


def _s_k_mean_over_the_step(slope_identity_check):
    """``experiments.slope_identity_check`` with the mean of S_k at both ends of a step in place of its start."""

    def averaged(trace):
        s = trace.series["S_k"]
        mean = np.append(0.5 * (s[:-1] + s[1:]), s[-1])
        return slope_identity_check(dataclasses.replace(trace, series={**trace.series, "S_k": mean}))

    return averaged


def _atoms_over_k_plus_1(dh_empirical):
    """``experiments.dh_empirical`` with atoms lam_i / (k + 1) in place of lam_i / k."""
    return lambda nu: DHMeasure(nu.weights / (nu.level + 1), dh_empirical(nu).masses)


def _twist_power_k(gram_weights):
    """``maps._gram_weights`` with the twist power k in place of k + 1 in the balancing's Gram."""

    def power_k(log_mu0, total, n, k):
        potential, weights, log_z = gram_weights(log_mu0, total, n, k)
        return potential, weights * np.exp(potential), log_z

    return power_k


def _negated_entropy(entropy_of_norms):
    """``flows.entropy_of_norms`` with its sign flipped."""
    return lambda b_norms: -entropy_of_norms(b_norms)


def _shannon_entropy(entropy_of_norms):
    """``flows.entropy_of_norms`` as the Shannon entropy of B_i / N_k, not their relative entropy."""

    def shannon(b_norms):
        p = b_norms / b_norms.shape[-1]
        return -np.sum(p * np.log(p), axis=-1)

    return shannon


def _neville_with_swapped_abscissae(neville_to_zero):
    """``nanorms._neville_to_zero`` with x_i and x_(i+level) swapped in the numerator."""

    def swapped(xs, ys):
        p = list(ys.astype(float))
        out = [p[0]]
        for level in range(1, xs.size):
            p = [
                (xs[i] * p[i] - xs[i + level] * p[i + 1]) / (xs[i + level] - xs[i])
                for i in range(xs.size - level)
            ]
            out.append(p[0])
        return np.asarray(out)

    return swapped


def _without_the_diagonal(diff_matrix):
    """``geometry.diff_matrix`` with its diagonal left at 0: the negative-sum step dropped."""

    def dropped(x, w=None):
        d = diff_matrix(x, w)
        np.fill_diagonal(d, 0.0)
        return d

    return dropped


def _linear_interpolation(interpolate_radial):
    """``ProjectiveLineModel.interpolate_radial`` as linear ``np.interp``, a lower-order rule."""
    return lambda model, profile, uq: np.interp(uq, model.u, profile)


# (experiment, metric, patched name under qkrf, defect): one row per default-run
# metric whose registry status is "control"
CONTROLS = [
    ("balanced-fixed-point", "fixed_point_residual", "maps._bergman_sum", _drop_section_zero),
    ("balanced-fixed-point", "fixed_point_entropy", "maps._bergman_sum", _drop_section_zero),
    ("balanced-fixed-point", "gram_k1_oracle", "maps.twisted_weights", _without_log_z),
    ("thmB-entropy", "thmb_zero_case", "maps._bergman_sum", _drop_section_zero),
    ("na-panel", "na_constant_slope_deviation", "experiments.l_na_slope", _negated_slope),
    ("na-panel", "na_free_energy_oracle", "experiments.f_k_na", _without_log_nk),
    ("na-panel", "na_dh_moment_deviation", "experiments.dh_empirical", _atoms_over_k_plus_1),
    ("duality", "duality_identity_k1", "nanorms.conjugate_value", _pairing_without_log_nk),
    ("duality", "duality_identity_k2", "nanorms.conjugate_value", _pairing_without_log_nk),
    ("slope-identity", "slope_identity_algebra", "nanorms.conjugate_value",
     _pairing_without_log_nk),
    ("slope-identity", "slope_identity_ratio_low", "flows._l_from_log_z", _doubled),
    ("slope-identity", "slope_identity_ratio_high", "experiments.slope_identity_check",
     _s_k_mean_over_the_step),
    ("na-panel", "na_translation_invariance", "nanorms.f_k_na", _free_energy_over_k_plus_1),
    ("duality", "duality_panel_max_k1", "nanorms.l_na_slope", _negated_slope),
    ("duality", "duality_panel_max_k2", "nanorms.l_na_slope", _negated_slope),
    ("duality", "duality_one_sided_k1", "nanorms.l_na_slope", _negated_slope),
    ("duality", "duality_one_sided_k2", "nanorms.l_na_slope", _negated_slope),
    ("thmB-entropy", "thmb_resolution_control",
     "geometry.ProjectiveLineModel.interpolate_radial", _linear_interpolation),
    ("thmB-entropy", "thmb_tail_increase", "maps._gram_weights", _twist_power_k),
    ("monotonicity", "monotonicity_excess", "flows.entropy_of_norms", _negated_entropy),
    ("duality", "duality_min_s_k_k1", "flows.entropy_of_norms", _shannon_entropy),
    ("duality", "duality_min_s_k_k2", "flows.entropy_of_norms", _shannon_entropy),
    ("na-panel", "na_slope_uncertainty", "nanorms._neville_to_zero",
     _neville_with_swapped_abscissae),
    ("thmA-gap", "thma_slope", "maps._gram_weights", _twist_power_k),
    ("thmA-gap", "thma_resolution_gap", "geometry.diff_matrix", _without_the_diagonal),
]


@pytest.mark.parametrize("experiment, metric, target, defect", CONTROLS)
def test_a_defect_fails_its_metric(tmp_path, monkeypatch, experiment, metric, target, defect):
    module, *owners, name = target.split(".")
    owner = importlib.import_module(f"qkrf.{module}")
    for attribute in owners:
        owner = getattr(owner, attribute)
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    manifest = run_experiment({"experiment": experiment}, str(tmp_path))
    [gated] = [m for m in manifest.metrics if m["name"] == metric]
    value, threshold = gated["value"], gated["threshold"]
    assert not gated["passed"]
    assert value > threshold if gated["op"] == "<=" else value < threshold


def test_the_controls_are_the_registry_control_entries():
    """The control list and README's control table name exactly the "control" entries."""
    controls = _registered(status="control")
    assert sorted(row[1] for row in CONTROLS) == sorted(controls)
    for experiment, name, *_ in CONTROLS:
        assert name in _registered(experiment), name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| metric | defect | value (threshold) |\n| --- | --- | --- |\n"
    table = readme.split(header)[1].split("\n\n")[0]
    named = [n for row in table.splitlines() for n in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(named) == sorted(controls)
