import math

import numpy as np
import pytest

from qkrf.energies import f_k_na, l_functional
from qkrf.experiments import family_potential
from qkrf.geometry import ModelError, PotentialField, logsumexp
from qkrf.hermforms import HermForm
from qkrf.maps import fubini_study, project
from qkrf.flows import quantized_flow_run
from qkrf import nanorms
from qkrf.nanorms import (
    NAForm,
    NANormError,
    dh_empirical,
    diagonal_na,
    duality_gap,
    extract_na_from_flow,
    l_na_slope,
    na_norm_value,
    ray_l_value,
    random_na,
    s_k_na,
    trivial_na,
    ultrametric_trials,
)


def test_na_form_validation():
    with pytest.raises(NANormError):
        NAForm(1, np.array([0.0, 1.0, 2.0]), np.eye(3))
    with pytest.raises(NANormError):
        NAForm(1, np.array([1.0, np.inf, 0.0]), np.eye(3))
    singular = np.ones((3, 3), dtype=complex)
    with pytest.raises(NANormError):
        NAForm(1, np.array([2.0, 1.0, 0.0]), singular)
    with pytest.raises(NANormError):
        NAForm(0, np.zeros(3), np.eye(3))


def test_diagonal_na_sorts_weights(p1):
    nu = diagonal_na(p1, 1, [0.1, 2.0, -0.5])
    assert np.allclose(nu.weights, [2.0, 0.1, -0.5])
    e1 = np.zeros(3)
    e1[1] = 1.0
    assert na_norm_value(nu, e1) == pytest.approx(np.exp(-2.0))


def test_na_norm_value_support_rule(p1):
    nu = diagonal_na(p1, 1, [3.0, 1.0, 0.0])
    mixed = np.array([1.0, 1.0, 0.0])
    assert na_norm_value(nu, mixed) == pytest.approx(np.exp(-1.0))
    with pytest.raises(NANormError):
        na_norm_value(nu, np.zeros(3))


def _norm_columns(rng: np.random.Generator, nu: NAForm) -> np.ndarray:
    """Random coefficient columns, and adapted-basis columns whose support is partial."""
    n = nu.dim
    random = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    picks = rng.integers(0, n, size=2)
    adapted = nu.adapted_basis[:, picks] * (1.0 - 0.5j)
    return np.column_stack([random, adapted, (2.0 - 1.5j) * random[:, 0]])


def test_batched_norms_equal_the_per_column_calls_bitwise(p1):
    rng = np.random.default_rng(2026)
    for trial in range(500):
        nu = random_na(rng, p1, 1 + trial % 3, spread=1.0, diagonal=trial % 2 == 0)
        columns = _norm_columns(rng, nu)
        batched = na_norm_value(nu, columns)
        single = [na_norm_value(nu, columns[:, j]) for j in range(columns.shape[1])]
        assert all(type(value) is float for value in single)
        assert batched.shape == (columns.shape[1],)
        assert np.array_equal(batched, single)


def test_batched_norms_reject_bad_columns(p1):
    nu = random_na(np.random.default_rng(7), p1, 2, spread=1.0)
    columns = np.ones((5, 3), dtype=complex)
    for j in range(3):
        zeroed = columns.copy()
        zeroed[:, j] = 0.0
        with pytest.raises(NANormError, match="zero section"):
            na_norm_value(nu, zeroed)
    for bad in (np.ones((4, 3)), np.ones(6), np.ones((5, 0)), np.ones((5, 3, 2))):
        with pytest.raises(NANormError, match="length 5"):
            na_norm_value(nu, bad)


def test_ultrametric_inequality_seeded(p1):
    """Norm of a sum never exceeds the larger of the two norms."""
    rng = np.random.default_rng(101)
    nu = random_na(rng, p1, 2, spread=1.0)
    for _ in range(200):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = na_norm_value(nu, x + y)
        rhs = max(na_norm_value(nu, x), na_norm_value(nu, y))
        assert lhs <= rhs * (1.0 + 1e-12)


def _per_trial_panel(rng, model, k, trials):
    """The na-panel loop one trial at a time: random_na, then a and b, one solve each."""
    n = model.nk(k)
    rows = []
    for trial in range(trials):
        nu = random_na(rng, model, k, spread=1.0, diagonal=trial % 2 == 0)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows.append(na_norm_value(nu, np.column_stack([a + b, a, b, (2.0 - 1.5j) * a])))
    return np.array(rows)


@pytest.mark.parametrize(
    "k_list, pairs, budget",
    [
        ([1, 2], 1000, None),  # the default panel
        ([1, 2, 3], 1001, None),  # an odd trial count per level
        ([1, 2, 3], 101, 4000),  # several chunks, split at even and odd trials
        ([2], 5, 1),  # one trial per chunk
    ],
)
def test_stacked_trials_equal_the_per_trial_loop_bitwise(p1, monkeypatch, k_list, pairs, budget):
    if budget is not None:
        monkeypatch.setattr(nanorms, "PANEL_CHUNK_BYTES", budget)
    for seed in (0, 11):
        reference, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
        violations = []
        for k in k_list:
            expected = _per_trial_panel(reference, p1, k, pairs // len(k_list))
            values = ultrametric_trials(stacked, p1, k, pairs // len(k_list))
            assert values.shape == expected.shape
            assert np.array_equal(values, expected)
            lhs, at_a, at_b, scaled = values.T
            violations.append(np.count_nonzero((lhs > np.maximum(at_a, at_b)) | (scaled != at_a)))
            per_trial = sum(r[0] > max(r[1], r[2]) or r[3] != r[1] for r in expected)
            assert violations[-1] == per_trial
        # the generator is left where the per-trial loop leaves it
        assert stacked.standard_normal() == reference.standard_normal()


class _ZeroDraws:
    """A generator stand-in whose normals are all zero."""

    def standard_normal(self, size=None):
        return np.zeros(size)


def test_stacked_trials_raise_the_single_form_errors(p1):
    with pytest.raises(NANormError) as single:
        na_norm_value(diagonal_na(p1, 1, [0.0, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(NANormError) as stacked:
        ultrametric_trials(_ZeroDraws(), p1, 1, 4)
    assert str(stacked.value) == str(single.value) == "the zero section has no norm"


def test_a_singular_caller_basis_raises():
    weights = np.array([2.0, 1.0, 0.0])
    near = np.eye(3, dtype=complex)
    near[2, 2] = 1e-14  # condition number 1e14, past CONDITION_LIMIT
    for basis in (np.zeros((3, 3)), np.ones((3, 3)), near):
        with pytest.raises(NANormError, match="^adapted basis is numerically singular$"):
            NAForm(1, weights, basis)


def test_only_bases_from_outside_take_the_condition_check(p1, bump, monkeypatch):
    """Permuted reference bases and unitary QR factors skip the SVD; other bases take it."""
    checked = []
    require = nanorms._require_regular
    monkeypatch.setattr(
        nanorms, "_require_regular", lambda bases: checked.append(bases.shape) or require(bases)
    )
    rng = np.random.default_rng(3)
    built = [
        trivial_na(p1, 2),
        diagonal_na(p1, 1, [0.1, 2.0, -0.5]),
        random_na(rng, p1, 2, diagonal=True),
        random_na(rng, p1, 2),
    ]
    built += [nu.shifted(0.4) for nu in built]
    ultrametric_trials(rng, p1, 2, 6)
    assert checked == []
    assert all(isinstance(nu, NAForm) and nu.adapted_basis.dtype == complex for nu in built)
    with pytest.raises(NANormError, match="descending"):
        nanorms._regular_na(1, np.array([0.0, 1.0, 2.0]), np.eye(3))

    NAForm(1, np.array([1.0, 0.0, -1.0]), np.eye(3))
    h = quantized_flow_run(p1, project(bump, 1), t_max=0.5, dt=0.25).states[-1]
    extract_na_from_flow(p1, h)
    assert checked == [(3, 3), (3, 3)]


def test_dh_empirical_moments(p1):
    nu = diagonal_na(p1, 2, [1.0, 0.5, 0.0, -0.5, -1.0])
    dh = dh_empirical(nu)
    assert dh.mean == pytest.approx(0.0, abs=1e-15)
    atoms = nu.weights / 2.0
    expected = float(np.sqrt(np.mean(atoms**2)))
    assert dh.second_moment == pytest.approx(expected, abs=1e-14)
    assert np.sum(dh.masses) == pytest.approx(1.0)


def test_shifted_translates_weights(p1):
    nu = diagonal_na(p1, 1, [1.0, 0.0, -1.0])
    moved = nu.shifted(0.3)
    assert np.allclose(moved.weights, nu.weights + 0.3)
    assert np.array_equal(moved.adapted_basis, nu.adapted_basis)


def test_trivial_slope_is_zero(p1):
    h0 = project(p1.zero_potential(), 1)
    est = l_na_slope(p1, trivial_na(p1, 1), h0)
    assert abs(est.value) <= 1e-9
    assert est.converged


def test_constant_direction_slope(p1):
    """Constant weights c give slope c/k exactly."""
    h0 = project(p1.zero_potential(), 2)
    nu = diagonal_na(p1, 2, [0.6] * 5)
    est = l_na_slope(p1, nu, h0)
    assert est.value == pytest.approx(0.3, abs=1e-9)


def test_monomial_slope_reaches_top_weight(p1):
    """A single active weight dominates the ray; slope tends to lam_max/k."""
    h0 = project(p1.zero_potential(), 1)
    nu = diagonal_na(p1, 1, [1.0, 0.0, 0.0])
    est = l_na_slope(p1, nu, h0)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-5)


def test_near_degenerate_weights_trigger_adaptive_horizon(p1):
    """Close weights need a longer ray; the estimator widens on its own."""
    w = np.array([0.65729451, 0.27651153, 0.26430075])
    nu = NAForm(1, w, np.eye(3, dtype=complex))
    h0 = HermForm(1, np.eye(3))
    est = l_na_slope(p1, nu, h0, t_max=40.0)
    assert est.converged
    assert est.ladder_times[0] > 40.0
    assert est.value == pytest.approx(w[0], abs=5e-3)
    assert abs(est.value - w[0]) <= 10.0 * est.uncertainty


def test_slope_estimator_guards(p1):
    h0 = project(p1.zero_potential(), 1)
    with pytest.raises(NANormError):
        l_na_slope(p1, trivial_na(p1, 1), h0, t_max=5.0)
    with pytest.raises(NANormError):
        l_na_slope(p1, trivial_na(p1, 2), h0)


def test_s_k_na_translation_invariance(p1):
    rng = np.random.default_rng(103)
    h0 = project(p1.zero_potential(), 1)
    nu = random_na(rng, p1, 1, spread=0.8)
    a = s_k_na(p1, nu, h0)
    b = s_k_na(p1, nu.shifted(1.1), h0)
    assert abs(a.value - b.value) <= a.uncertainty + b.uncertainty + 1e-6


def test_extraction_identity_on_flow(p1, bump):
    h0 = project(bump, 2)
    trace = quantized_flow_run(p1, h0, t_max=1.0, dt=0.25)
    for t in (0.0, 0.5, 1.0):
        assert extract_na_from_flow(p1, trace.state_at(t))[1] <= 1e-12


def test_extracted_norm_structure(p1, bump):
    h0 = project(bump, 1)
    trace = quantized_flow_run(p1, h0, t_max=1.0, dt=0.25)
    nu, _ = extract_na_from_flow(p1, trace.state_at(1.0))
    assert nu.level == 1 and nu.dim == 3
    assert np.all(np.diff(nu.weights) <= 1e-12)


def test_duality_gap_report_shape(p1, bump):
    report = duality_gap(p1, 1, bump, t_max=8.0, panel=3, seed=4)
    assert report["min_s_k"] <= 0.01
    assert report["one_sided_all"]
    assert report["panel"][0]["kind"] == "trivial"
    for row in report["extracted"]:
        assert row["identity_residual"] <= 1e-9


# ---------------------------------------------------------------------------
# rays on the radial grid


def _node_l_value(model, nu, h0, t):
    """L at ray time t from the amplitudes at every 2-D node, the evaluation of any frame."""
    frame = nanorms._orthonormalize_adapted(h0, nu.adapted_basis)
    with np.errstate(divide="ignore"):
        log_amplitudes = np.log(np.abs(frame.T @ model.sections(nu.level)) ** 2)
    log_bergman = logsumexp(nu.weights[:, None] * t + log_amplitudes, axis=0)
    return l_functional(PotentialField(model, (log_bergman - math.log(nu.dim)) / nu.level))


def _radial_norms(model, k):
    """Trivial, diagonal, diagonal-random and extracted norms, with their base forms."""
    rng = np.random.default_rng(40 + k)
    base = project(model.zero_potential(), k)
    start = project(family_potential(model, "sine", -0.3), k)
    h = quantized_flow_run(model, start, t_max=1.0, dt=0.25 / k).states[-1]
    norms = [
        trivial_na(model, k),
        diagonal_na(model, k, rng.standard_normal(2 * k + 1)),
        random_na(rng, model, k, spread=0.8, diagonal=True),
        extract_na_from_flow(model, h)[0],
    ]
    return [(nu, h0) for nu in norms for h0 in (base, h)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_radial_rays_match_the_node_evaluation(p1, k):
    for nu, h0 in _radial_norms(p1, k):
        log_amplitudes, radial = nanorms._ray_log_amplitudes(p1, nu, h0)
        assert radial and log_amplitudes.shape == (nu.dim, p1.radial_count)
        for t in (0.0, 1.0, 39.0, 40.0, 159.0, 320.0, 639.0, 640.0):
            assert abs(ray_l_value(p1, nu, h0, t) - _node_l_value(p1, nu, h0, t)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_ray_at_time_zero_is_the_fubini_study_potential_of_its_base(p1, k):
    """L at t = 0 of a diagonal norm's ray equals L(fubini_study(h0)) within 8 eps (1 + |L|).

    The ray sums its log amplitudes by log-sum-exp, the Bergman sum its
    amplitudes: the two log B differ by a few ulps.  Measured: at most 1.2
    ulps per unit at levels 1 to 6, unit to 1e-30 scalings of h0.
    """
    rng = np.random.default_rng(60 + k)
    bases = [
        project(p1.zero_potential(), k),
        project(family_potential(p1, "sine", -0.3), k),
        HermForm(k, 1e-30 * np.exp(3.0 * rng.standard_normal(2 * k + 1))),
    ]
    for h0 in bases:
        expected = l_functional(fubini_study(p1, h0))
        for nu in (trivial_na(p1, k), diagonal_na(p1, k, rng.standard_normal(2 * k + 1))):
            got = ray_l_value(p1, nu, h0, 0.0)
            assert abs(got - expected) <= 8.0 * np.finfo(float).eps * (1.0 + abs(expected))


def test_unitary_and_discrete_norms_keep_the_node_path(p1, discrete):
    rng = np.random.default_rng(8)
    cases = [
        (p1, random_na(rng, p1, 2, spread=0.8), project(p1.zero_potential(), 2)),
        (discrete, diagonal_na(discrete, 2, rng.standard_normal(5)), HermForm(2, np.ones(5))),
    ]
    for model, nu, h0 in cases:
        log_amplitudes, radial = nanorms._ray_log_amplitudes(model, nu, h0)
        assert not radial and log_amplitudes.shape == (nu.dim, model.node_count)
        # the in-place square and log keep the bits of log(|amplitudes|^2)
        frame = nanorms._orthonormalize_adapted(h0, nu.adapted_basis)
        expected = np.log(np.abs(frame.T @ model.sections(nu.level)) ** 2)
        assert np.array_equal(log_amplitudes, expected)
        for t in (0.0, 40.0):
            assert ray_l_value(model, nu, h0, t) == _node_l_value(model, nu, h0, t)


def test_a_ray_past_the_float_range_raises(p1):
    h0 = project(p1.zero_potential(), 1)
    for nu in (trivial_na(p1, 1), random_na(np.random.default_rng(2), p1, 1)):
        with pytest.raises(ModelError, match="^the ray's potential is not finite$"):
            ray_l_value(p1, nu.shifted(10.0), h0, 1e308)


def test_each_ladder_value_equals_ray_l_value_bitwise(p1, discrete, monkeypatch):
    """The stacked radial ladder and the node path's one call per time give ray_l_value's bits."""
    ladders = []
    stacked = nanorms._ray_l_values

    def recorded(model, nu, times, log_amplitudes, radial):
        values = stacked(model, nu, times, log_amplitudes, radial)
        ladders.append((times, values))
        return values

    monkeypatch.setattr(nanorms, "_ray_l_values", recorded)
    rng = np.random.default_rng(12)
    near = NAForm(1, np.array([0.65729451, 0.27651153, 0.26430075]), np.eye(3))
    cases = [(p1, near, HermForm(1, np.ones(3)))]  # doubles its horizon
    cases += [(p1, nu, h0) for nu, h0 in _radial_norms(p1, 2)[::3]]
    cases += [
        (p1, random_na(rng, p1, 2, spread=0.8), project(p1.zero_potential(), 2)),
        (discrete, diagonal_na(discrete, 1, [0.5, 0.0, -0.5]), HermForm(1, np.ones(3))),
    ]
    rungs = 2 * nanorms.SLOPE_RUNGS
    for model, nu, h0 in cases:
        ladders.clear()
        estimate = l_na_slope(model, nu, h0)
        calls = list(ladders)
        radial = nanorms._ray_log_amplitudes(model, nu, h0)[1]
        # one stacked call per horizon on the radial grid, one call per time at the nodes
        assert [len(times) for times, _ in calls] == [rungs if radial else 1] * len(calls)
        horizons = 1 + round(math.log2(estimate.ladder_times[0] / 40.0))
        assert len(calls) == (1 if radial else rungs) * horizons
        for times, values in calls:
            for t, value in zip(times, values):
                assert value == ray_l_value(model, nu, h0, t)
    assert l_na_slope(*cases[0]).ladder_times[0] > 40.0
