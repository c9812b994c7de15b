import math

import numpy as np
import pytest
import scipy.special

from qkrf import geometry
from qkrf.geometry import (
    RESOURCE_LIMIT,
    DiscreteModel,
    KahlerConeError,
    ModelError,
    PolarizedModel,
    PotentialField,
    ProjectiveLineModel,
    barycentric_interpolate,
    barycentric_weights,
    build_p1_model,
    canonical_measure,
    diff_matrix,
    gauss_legendre_01,
    logsumexp,
    ma_density,
    twisted_weights,
)
from qkrf.hermforms import HermForm, matrix_exp, matrix_log, random_herm_pd
from qkrf.maps import balancing, project

# Agreement with scipy.special.logsumexp, the reference, to a few float64 ulps.
LSE_TOL = 8 * np.finfo(float).eps


def _assert_lse_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
    err = np.abs(got[finite] - ref[finite])
    assert np.all(err <= LSE_TOL * np.maximum(1.0, np.abs(ref[finite])))


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_logsumexp_matches_scipy_on_random_vectors(scale):
    rng = np.random.default_rng(2718)
    for n in (1, 2, 7, 128, 257):
        a = scale * rng.standard_normal(n)
        got = logsumexp(a)
        assert isinstance(got, float)
        _assert_lse_close(got, scipy.special.logsumexp(a))
        a[-1] = a.max()  # a tied maximum
        _assert_lse_close(logsumexp(a), scipy.special.logsumexp(a))


@pytest.mark.parametrize(
    "a",
    [
        [-np.inf, -np.inf, -np.inf],
        [0.5, np.inf, -2.0],
        [-np.inf, np.inf],
        [-np.inf, 3.0, -np.inf, -1.0],
        [np.nan, 1.0],
    ],
)
def test_logsumexp_edge_entries_match_scipy(a):
    got = logsumexp(np.array(a))
    assert isinstance(got, float)
    _assert_lse_close(got, scipy.special.logsumexp(np.array(a)))


def test_logsumexp_axis_matches_scipy():
    rng = np.random.default_rng(3141)
    a = 40.0 * rng.standard_normal((9, 300))
    a[:, 0] = -np.inf
    a[0, 1] = np.inf
    a[2:4, 2] = -np.inf
    a[1, 3] = a[5, 3] = a[:, 3].max()
    got = logsumexp(a, axis=0)
    assert got.shape == (300,)
    _assert_lse_close(got, scipy.special.logsumexp(a, axis=0))


@pytest.mark.parametrize("ties", [False, True])
def test_logsumexp_of_one_vector_along_an_axis_is_its_row_of_a_stack(ties):
    """A vector shaped (M,), (1, M) or (1, 1, M) takes the scalar reduction, with the stack's bits.

    The stack (3, 4, M) is reduced by the axis path; each of its rows,
    alone in any of these shapes, must give that row's value bit for bit,
    with the reduced axis dropped from its shape.  ``axis=None`` still
    gives a Python float.
    """
    rng = np.random.default_rng(1618)
    for m in (1, 7, 128, 257):
        stack = 30.0 * rng.standard_normal((3, 4, m))
        if ties:
            stack[..., -1] = stack.max(axis=-1)
        want = logsumexp(stack, axis=-1)
        assert want.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            row = stack[i, j]
            for shape in ((m,), (1, m), (1, 1, m)):
                got = logsumexp(row.reshape(shape), axis=-1)
                assert got.shape == shape[:-1]
                assert np.array_equal(got, np.reshape(want[i, j], shape[:-1]))
            assert logsumexp(row.reshape(1, m, 1), axis=1).shape == (1, 1)
            assert logsumexp(row.reshape(1, m, 1), axis=1)[0, 0] == want[i, j]
            scalar = logsumexp(row.reshape(1, m))
            assert isinstance(scalar, float) and scalar == want[i, j]


def test_gauss_legendre_exactness():
    """m nodes integrate monomials up to degree 2m-1 exactly."""
    x, w = gauss_legendre_01(8)
    for p in range(16):
        assert np.dot(w, x**p) == pytest.approx(1.0 / (p + 1), abs=1e-14)


@pytest.mark.parametrize("m", [16, 96, 257])
def test_gauss_legendre_tables_are_shared_and_read_only(m):
    x, w = np.polynomial.legendre.leggauss(m)
    nodes, weights = gauss_legendre_01(m)
    assert np.array_equal(nodes, 0.5 * (x + 1.0)) and np.array_equal(weights, 0.5 * w)
    again = gauss_legendre_01(m)
    assert again[0] is nodes and again[1] is weights
    for table in (nodes, weights):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.5


def _loop_barycentric_weights(x):
    """The weights one node at a time: the reference for the stacked log-sum."""
    logw = np.empty(x.size)
    sign = np.empty(x.size)
    for i in range(x.size):
        d = np.delete(x[i] - x, i)
        logw[i] = -np.sum(np.log(np.abs(d)))
        sign[i] = 1.0 if np.count_nonzero(d < 0) % 2 == 0 else -1.0
    return sign * np.exp(logw - logw.max())


def _loop_interpolate(x, fx, xq, w):
    """The interpolant one query at a time: the reference for the stacked form."""
    out = np.empty(xq.size)
    for j, xv in enumerate(xq):
        d = xv - x
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            out[j] = fx[hit[0]]
            continue
        t = w / d
        out[j] = np.dot(t, fx) / np.sum(t)
    return out


@pytest.mark.parametrize("m", [16, 64, 96, 128, 144, 160, 256, 448])
def test_barycentric_weights_and_interpolant_equal_the_loops(m):
    """Bitwise, on Gauss-Legendre nodes, on queries off them and on nodes."""
    x = gauss_legendre_01(m)[0]
    w = barycentric_weights(x)
    assert np.array_equal(w, _loop_barycentric_weights(x))
    rng = np.random.default_rng(m)
    fx = rng.standard_normal(m)
    for xq in (rng.uniform(0.0, 1.0, 200), gauss_legendre_01(2 * m)[0], x[::5]):
        got = barycentric_interpolate(x, fx, xq, w)
        assert np.array_equal(got, _loop_interpolate(x, fx, xq, w))
    mixed = np.concatenate([rng.uniform(0.0, 1.0, 7), x[3:5], [x[0]]])
    got = barycentric_interpolate(x, fx, mixed, w)
    assert np.array_equal(got, _loop_interpolate(x, fx, mixed, w))
    assert np.array_equal(got[-3:], fx[[3, 4, 0]])


def test_diff_matrix_on_polynomials():
    x, _ = gauss_legendre_01(12)
    d = diff_matrix(x, barycentric_weights(x))
    assert np.allclose(d @ x**3, 3.0 * x**2, atol=1e-10)
    assert np.allclose(d @ np.ones_like(x), 0.0, atol=1e-10)


def test_model_counts_and_volume(p1):
    assert list(p1.levels) == [1, 2, 3]
    assert [p1.nk(k) for k in p1.levels] == [3, 5, 7]
    assert p1.node_count == 96 * 24
    assert np.sum(p1.mu0_weights) == pytest.approx(p1.volume, abs=1e-12)
    assert np.sum(p1.radial_mu0_weights) == pytest.approx(2.0, abs=1e-12)
    assert np.sum(p1.radial_weights) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ModelError):
        p1.require_level(4)


def test_model_guards():
    with pytest.raises(ModelError):
        build_p1_model(0)
    with pytest.raises(ModelError):
        build_p1_model(2, radial_nodes=8, angular_nodes=16)


def test_high_level_model_builds_and_balances():
    """The diagonal path at k = 128 needs only (2k + 1) x radial nodes of storage."""
    model = build_p1_model(128)
    h = project(model.zero_potential(), 128)
    b = balancing(model, h)
    assert h.is_diagonal and b.is_diagonal
    assert np.allclose(b.diagonal(), h.diagonal(), rtol=1e-9, atol=0.0)
    assert "sections" not in model._tables


def test_sections_past_the_resource_limit_raise():
    k = 2**24
    model = ProjectiveLineModel(k_max=k, radial_nodes=16, angular_nodes=8)
    assert 16 * (2 * k + 1) * model.node_count > RESOURCE_LIMIT
    with pytest.raises(ModelError, match="resource limit"):
        model.sections(k)
    assert model.sections(1).shape == (3, model.node_count)


def test_walking_the_levels_holds_and_charges_only_the_last_level():
    """After levels 1 .. 64, one table of each kind is held, at level 64, and only it is charged."""
    model = ProjectiveLineModel(64, radial_nodes=160, angular_nodes=8)
    for k in model.levels:
        model.radial_section_sq(k)
        model.sections(k)
        model.gram(k, model.node_weights)
    assert {what: k for what, (k, _) in model._tables.items()} == {
        "radial sections": 64, "sections": 64, "angular mode tables": 64
    }
    n, s, m = 129, 257, model.radial_count
    tables = 8 * n * m, 16 * n * model.node_count, 8 * (s * m + 16 * n + 4 * s * n + 4 * n * n)
    assert model._held_bytes() == sum(tables)


def test_two_levels_past_the_limit_together_build_in_turn(monkeypatch):
    """A limit below two levels' section tables together, above each level's, refuses neither."""
    model = ProjectiveLineModel(2, radial_nodes=16, angular_nodes=8)
    radial = {k: 8 * (2 * k + 1) * 16 for k in (1, 2)}
    sections = {k: 16 * (2 * k + 1) * model.node_count for k in (1, 2)}
    limit = radial[2] + sections[2]
    assert radial[1] + sections[1] < limit < sections[1] + sections[2]
    monkeypatch.setattr(geometry, "RESOURCE_LIMIT", limit)
    for k in (1, 2, 1, 2):
        assert model.sections(k).shape == (2 * k + 1, model.node_count)
        assert model._held_bytes() == radial[k] + sections[k]


def test_a_table_past_the_limit_is_refused_and_not_charged(monkeypatch):
    model = ProjectiveLineModel(2, radial_nodes=16, angular_nodes=8)
    radial = 8 * 5 * 16
    monkeypatch.setattr(geometry, "RESOURCE_LIMIT", radial + 16 * 5 * model.node_count - 1)
    with pytest.raises(ModelError, match="sections at level 2: .* exceed the resource limit"):
        model.sections(2)
    assert list(model._tables) == ["radial sections"]
    assert model._held_bytes() == radial
    assert model.sections(1).shape == (3, model.node_count)


def test_section_gram_matches_beta_integrals(p1):
    """Reference-basis norms against mu0/V are Beta integrals."""
    for k in (1, 2):
        diag = p1.radial_section_sq(k) @ (p1.radial_mu0_weights / p1.volume)
        m = np.arange(2 * k + 1)
        expected = np.array(
            [
                math.factorial(i) * math.factorial(2 * k - i)
                / math.factorial(2 * k + 1)
                for i in m
            ]
        )
        assert np.allclose(diag, expected, atol=1e-13)


def test_potential_field_shift_and_radial_flag(p1):
    phi = PotentialField(p1, None, 0.1 * p1.u)
    assert phi.is_radial
    moved = phi.shifted(2.0)
    assert np.allclose(moved.require_profile(), phi.require_profile() + 2.0)
    dense = PotentialField(p1, np.tile(np.sin(p1.theta), p1.radial_count))
    assert not dense.is_radial
    with pytest.raises(ModelError):
        dense.require_profile()


def test_potential_field_takes_exactly_one_representation(p1):
    profile = 0.1 * p1.u
    with pytest.raises(ModelError, match="exactly one"):
        PotentialField(p1, p1.tile_radial(profile), profile)
    with pytest.raises(ModelError, match="exactly one"):
        PotentialField(p1)


@pytest.mark.parametrize("radial", [True, False], ids=["radial_profile", "node_values"])
def test_potential_field_copies_its_input(p1, radial):
    given = 0.1 * p1.u if radial else np.tile(np.sin(p1.theta), p1.radial_count)
    kept = given.copy()
    phi = PotentialField(p1, None, given) if radial else PotentialField(p1, given)
    values = phi.values.copy()
    given[0] = math.inf
    assert np.array_equal(phi.radial_profile if radial else phi.node_values, kept)
    assert np.array_equal(phi.values, values)


def test_discrete_model_copies_its_input():
    weights = np.full(4, 0.25)
    sections = np.eye(3, 4, dtype=complex)
    model = DiscreteModel({1: sections}, weights)
    mu0 = model.mu0_weights.copy()
    weights[0] = -1.0
    sections[0, 0] = 0.0
    assert np.array_equal(model.node_weights, np.full(4, 0.25))
    assert np.array_equal(model.mu0_weights, mu0)
    assert np.array_equal(model.sections(1), np.eye(3, 4, dtype=complex))


@pytest.mark.parametrize("name", ["mu0_weights", "radial_mu0_weights"])
def test_log_weights_are_cached_logs_of_the_weights(p1, discrete, name):
    models = [p1, discrete] if name == "mu0_weights" else [p1]
    for model in models:
        logs = getattr(model, f"log_{name}")
        assert getattr(model, f"log_{name}") is logs
        assert np.array_equal(logs, np.log(getattr(model, name)))


def test_stacked_twisted_weights_are_each_potentials_own(p1):
    rng = np.random.default_rng(71)
    values = 0.5 * rng.standard_normal((4, p1.node_count))
    stacked = twisted_weights(p1.log_mu0_weights, values, 3)
    assert stacked.shape == values.shape
    for row, v in zip(stacked, values):
        assert np.array_equal(row, twisted_weights(p1.log_mu0_weights, v, 3))
    one = twisted_weights(p1.log_mu0_weights, values[:1], 3)
    assert np.array_equal(one[0], stacked[0])


def test_canonical_measure_is_shift_invariant_probability(p1, bump):
    w = canonical_measure(bump)
    assert np.all(w > 0.0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    w_shift = canonical_measure(bump.shifted(500.0))
    assert np.allclose(w, w_shift, atol=1e-12)


def test_ma_density_round_metric(p1):
    zero = p1.zero_potential()
    density = ma_density(zero)
    assert np.allclose(density, p1.mu0_density, atol=1e-12)
    assert np.dot(density, p1.node_weights) == pytest.approx(p1.volume, abs=1e-10)


def test_ma_density_integrates_to_volume(p1, bump):
    assert np.dot(ma_density(bump), p1.node_weights) == pytest.approx(
        p1.volume, abs=1e-10
    )


def test_kahler_cone_guard(p1):
    steep = PotentialField(p1, None, 5.0 * p1.u * (1.0 - p1.u))
    with pytest.raises(KahlerConeError):
        ma_density(steep)


def test_interpolate_radial_reproduces_nodes(p1):
    profile = np.cos(2.0 * p1.u)
    assert np.allclose(p1.interpolate_radial(profile, p1.u), profile, atol=1e-12)
    mid = p1.interpolate_radial(p1.u**3, np.array([0.5]))
    assert mid[0] == pytest.approx(0.125, abs=1e-10)


def test_discrete_model_validation():
    good = np.eye(3, dtype=complex)
    with pytest.raises(ModelError):
        DiscreteModel({1: good}, np.array([0.5, 0.4, 0.4]))
    rank_deficient = np.ones((2, 3), dtype=complex)
    with pytest.raises(ModelError):
        DiscreteModel({1: rank_deficient}, np.full(3, 1.0 / 3.0))
    with pytest.raises(ModelError):
        DiscreteModel({}, np.full(3, 1.0 / 3.0))


# ---------------------------------------------------------------------------
# the projective line's contractions over angular modes against the section
# table, which the generic PolarizedModel implementations contract

EPS = np.finfo(float).eps
# In units of eps * cond(H) for Bergman sums, as in the frame tests of
# test_hermforms, and of eps * sqrt(G_mm G_nn), the Cauchy-Schwarz bound of
# an entry, for Grams.  Both routes sum the same terms in different orders.
STRUCTURED_TOL = 64.0


def _structured_cases():
    for k in (1, 2, 3, 6):
        # the smallest angular grid the model accepts, and one past 4k + 8
        for angular in (8, 4 * k + 40):
            for spread in (0.5, 3.0):
                yield pytest.param(k, angular, spread, id=f"k{k}-a{angular}-spread{spread}")


_MODELS = {}


def _model(k: int, angular: int) -> ProjectiveLineModel:
    if (k, angular) not in _MODELS:
        _MODELS[k, angular] = ProjectiveLineModel(k, radial_nodes=48, angular_nodes=angular)
    return _MODELS[k, angular]


@pytest.mark.parametrize("built", ["matrix", "matrix_exp", "diagonal"])
@pytest.mark.parametrize("k, angular, spread", _structured_cases())
def test_structured_bergman_sum_matches_the_section_contraction(k, angular, spread, built):
    """Single forms and a stack of three; each stacked sum is its form's own, bitwise."""
    model = _model(k, angular)
    rng = np.random.default_rng([k, angular, int(10 * spread)])
    n = 2 * k + 1
    forms = []
    for _ in range(3):
        if built == "diagonal":
            h = HermForm(k, np.exp(spread * rng.standard_normal(n)))
        else:
            h = HermForm(k, random_herm_pd(rng, n, spread=spread))
            if built == "matrix_exp":
                h = matrix_exp(k, matrix_log(h))
        forms.append(h)
    inverses = np.stack([1.0 / h.data for h in forms])
    frames = None if built == "diagonal" else np.stack([h.frame for h in forms])
    stacked = model.bergman_sum(k, frames, inverses)
    stacked_ref = PolarizedModel.bergman_sum(model, k, frames, inverses)
    assert stacked.shape == stacked_ref.shape == (3, model.node_count)
    for i, h in enumerate(forms):
        cond = h.data.max() / h.data.min()
        got = model.bergman_sum(k, h.frame, 1.0 / h.data)
        ref = PolarizedModel.bergman_sum(model, k, h.frame, 1.0 / h.data)
        assert got.shape == (model.node_count,)
        assert np.max(np.abs(got - ref) / ref) <= STRUCTURED_TOL * EPS * cond
        assert np.array_equal(stacked[i], got)
        assert np.array_equal(stacked_ref[i], ref)


@pytest.mark.parametrize("k, angular, spread", _structured_cases())
def test_structured_gram_matches_the_section_contraction(k, angular, spread):
    """Single weights and a stack of three; each stacked Gram is its weights' own, bitwise."""
    model = _model(k, angular)
    rng = np.random.default_rng([k, angular, int(10 * spread)])
    stack = model.node_weights * np.exp(spread * rng.standard_normal((3, model.node_count)))
    stacked = model.gram(k, stack)
    stacked_ref = PolarizedModel.gram(model, k, stack)
    assert stacked.shape == stacked_ref.shape == (3, 2 * k + 1, 2 * k + 1)
    for i, weights in enumerate(stack):
        got = model.gram(k, weights)
        ref = PolarizedModel.gram(model, k, weights)
        assert np.array_equal(got, got.conj().T)
        bound = np.sqrt(np.outer(np.real(np.diagonal(ref)), np.real(np.diagonal(ref))))
        assert np.all(np.abs(got - ref) <= STRUCTURED_TOL * EPS * bound)
        assert np.array_equal(stacked[i], got)
        assert np.array_equal(stacked_ref[i], ref)


def test_discrete_model_keeps_the_section_contraction(discrete):
    assert DiscreteModel.bergman_sum is PolarizedModel.bergman_sum
    assert DiscreteModel.gram is PolarizedModel.gram
    rng = np.random.default_rng(67)
    h = HermForm(2, random_herm_pd(rng, discrete.nk(2)))
    a = discrete.sections(2)
    amplitudes = h.frame.T @ a
    expected = (amplitudes.real**2 + amplitudes.imag**2).T @ (1.0 / h.data)
    assert np.array_equal(discrete.bergman_sum(2, h.frame, 1.0 / h.data), expected)
    phi = PotentialField(discrete, rng.standard_normal(discrete.node_count), None)
    gram = project(phi, 2).entries
    assert np.array_equal(gram, gram.conj().T)


def test_dense_bergman_sum_at_level_128_builds_no_section_table():
    """Only the mode tables are built: the section table would hold 36M entries."""
    model = build_p1_model(128)
    rng = np.random.default_rng(128)
    h = HermForm(128, random_herm_pd(rng, model.nk(128), spread=0.5))
    got = model.bergman_sum(128, h.frame, 1.0 / h.data)
    assert "sections" not in model._tables
    nodes = rng.choice(model.node_count, size=64, replace=False)
    r, j = np.divmod(nodes, model.angular_count)
    m = np.arange(model.nk(128))[:, None]
    a = np.sqrt(model.radial_section_sq(128)[:, r]) * np.exp(1j * m * model.theta[j])
    amplitudes = h.frame.T @ a
    ref = (amplitudes.real**2 + amplitudes.imag**2).T @ (1.0 / h.data)
    cond = h.data[-1] / h.data[0]
    assert np.max(np.abs(got[nodes] - ref) / ref) <= STRUCTURED_TOL * EPS * cond


def test_mode_tables_past_the_level_or_resource_limit_raise():
    model = _model(3, 20)
    with pytest.raises(ModelError, match="outside the supported range"):
        model.bergman_sum(4, None, np.ones(9))
    with pytest.raises(ModelError, match="outside the supported range"):
        model.gram(4, np.ones(model.node_count))
    k = 2**26
    big = ProjectiveLineModel(k_max=k, radial_nodes=16, angular_nodes=8)
    assert 8 * (4 * k + 1) * big.radial_count > RESOURCE_LIMIT
    with pytest.raises(ModelError, match="resource limit"):
        big.gram(k, np.ones(big.node_count))
    assert big.gram(1, np.ones(big.node_count)).shape == (3, 3)
