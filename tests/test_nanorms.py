import numpy as np
import pytest

from qkrf.energies import f_k_na
from qkrf.hermforms import HermForm
from qkrf.maps import project
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


def test_stacked_trials_raise_the_single_form_errors(p1, monkeypatch):
    with pytest.raises(NANormError) as single:
        na_norm_value(diagonal_na(p1, 1, [0.0, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(NANormError) as stacked:
        ultrametric_trials(_ZeroDraws(), p1, 1, 4)
    assert str(stacked.value) == str(single.value) == "the zero section has no norm"

    with pytest.raises(NANormError) as single:
        NAForm(1, np.array([2.0, 1.0, 0.0]), np.zeros((3, 3)))
    # the odd trial's QR returns a singular basis
    monkeypatch.setattr(np.linalg, "qr", lambda x: (np.zeros_like(x), None))
    with pytest.raises(NANormError) as stacked:
        ultrametric_trials(np.random.default_rng(0), p1, 1, 2)
    assert str(stacked.value) == str(single.value) == "adapted basis is numerically singular"


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

