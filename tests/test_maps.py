import gc
import weakref

import numpy as np
import pytest

from qkrf import maps
from qkrf.flows import FlowError, quantized_flow_run
from qkrf.geometry import (
    DiscreteModel,
    ModelError,
    PotentialField,
    ProjectiveLineModel,
    twisted_weights,
)
from qkrf.hermforms import (
    HermForm,
    HermitianError,
    PositivityError,
    _held_form,
    gen_eig,
    matrix_exp,
    random_herm_pd,
)
from qkrf.maps import (
    QuantizationError,
    balancing,
    fubini_study,
    orthonormal_orthogonal,
    project,
)


def test_round_gram_is_diagonal_beta_matrix(p1):
    h = project(p1.zero_potential(), 1)
    assert h.is_diagonal
    assert np.allclose(h.diagonal(), [1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0], atol=1e-12)
    h2 = project(p1.zero_potential(), 2)
    expected = [1.0 / 5.0, 1.0 / 20.0, 1.0 / 30.0, 1.0 / 20.0, 1.0 / 5.0]
    assert np.allclose(h2.diagonal(), expected, atol=1e-12)


def test_project_level_guard(p1, bump):
    with pytest.raises(ModelError):
        project(bump, 9)


def test_project_shift_equivariance(p1, bump):
    """Shifting the potential by c scales the Gram by e^(-kc)."""
    a = project(bump, 2)
    b = project(bump.shifted(3.0), 2)
    assert np.allclose(a.entries, np.exp(3.0 * 2) * b.entries, rtol=1e-10)


def test_project_unnormalized_scaling(p1, bump):
    """project integrates against e^(-(k+1) phi) mu0 / Z, Z the canonical mass."""
    from scipy.special import logsumexp

    z = np.exp(logsumexp(np.log(p1.mu0_weights) - bump.values))
    a = p1.sections(1)
    raw = (a.conj() * (p1.mu0_weights * np.exp(-2.0 * bump.values))) @ a.T
    assert np.allclose(raw, z * project(bump, 1).entries, rtol=1e-11, atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_project_of_tiled_radial_potential_matches_the_radial_gram(p1, bump, k):
    """The node-valued and the radial normalization give the same Gram."""
    radial = project(bump, k)
    dense = project(PotentialField(p1, p1.tile_radial(bump.require_profile())), k)
    assert radial.is_diagonal and not dense.is_diagonal
    expected = np.diag(radial.diagonal())
    assert np.max(np.abs(dense.entries - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_an_exactly_diagonal_dense_gram_is_held_as_its_diagonal():
    """Sections on disjoint atoms have a diagonal Gram; project and balancing keep it diagonal."""
    sections = np.repeat(np.eye(3), 2, axis=1).astype(complex)
    model = DiscreteModel({1: sections}, np.full(6, 1.0 / 6.0))
    phi = PotentialField(model, np.linspace(0.0, 0.5, 6))
    h = project(phi, 1)
    assert h.is_diagonal
    gram = model.gram(1, twisted_weights(model.log_mu0_weights, phi.values, 2))
    assert np.array_equal(h.data, np.real(np.diagonal(gram)))
    assert balancing(model, h).is_diagonal


def test_fubini_study_scaling(p1):
    rng = np.random.default_rng(23)
    h = HermForm(2, random_herm_pd(rng, 5))
    base = fubini_study(p1, h).values
    moved = fubini_study(p1, h.scaled(np.e)).values
    assert np.allclose(moved - base, -0.5 * np.ones_like(base), atol=1e-12)


def test_balanced_fixed_point_small_levels(p1):
    for k in p1.levels:
        h = project(p1.zero_potential(), k)
        b = balancing(p1, h)
        rel = np.linalg.norm(b.entries - h.entries) / np.linalg.norm(h.entries)
        assert rel <= 1e-10


def test_beta_map_constant_at_round_metric(p1):
    """The Bergman approximation fubini_study o project of the round metric is constant."""
    for k in (1, 3):
        prof = fubini_study(p1, project(p1.zero_potential(), k)).require_profile()
        assert np.max(prof) - np.min(prof) <= 1e-11


def test_bergman_density_constant_at_fixed_point(p1):
    """The normalized Bergman density of the balanced form is identically 1."""
    h = project(p1.zero_potential(), 2)
    density = np.exp(2 * fubini_study(p1, h).values)
    assert np.allclose(density, 1.0, rtol=1e-10)


def test_bergman_density_radial_matches_dense(p1):
    """The diagonal fast path agrees with the dense evaluation."""
    rng = np.random.default_rng(31)
    entries = np.diag(np.exp(rng.standard_normal(5))).astype(complex)
    diag = HermForm(2, entries)
    nudged = entries.copy()
    nudged[0, 1] = nudged[1, 0] = 1e-300
    dense = HermForm(2, nudged)
    assert diag.is_diagonal and not dense.is_diagonal
    a = np.exp(2 * fubini_study(p1, diag).values)
    b = np.exp(2 * fubini_study(p1, dense).values)
    assert np.allclose(a, b, rtol=1e-10)


def _huge_diagonal_form():
    """A level-32 diagonal form whose radial Bergman sum underflows to 0 mid-grid.

    Its inverse entries are about 1e-308, and the squared reference
    amplitudes u^m (1-u)^(64-m) near u = 1/2 are about 2^-64, so their
    products fall below the smallest subnormal.
    """
    model = ProjectiveLineModel(32, radial_nodes=16, angular_nodes=8)
    return model, HermForm(32, np.full(model.nk(32), 1e308))


def test_fubini_study_refuses_a_radial_sum_that_underflows():
    model, h = _huge_diagonal_form()
    with pytest.raises(QuantizationError, match="not strictly positive"):
        fubini_study(model, h)


def test_fubini_study_refuses_a_dense_sum_that_overflows():
    """Reference sections near 1e200 square beyond the floating range."""
    rng = np.random.default_rng(61)
    values = 1e200 * (rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    model = DiscreteModel({1: values}, np.full(8, 1.0 / 8.0))
    h = HermForm(1, random_herm_pd(rng, 3))
    assert not h.is_diagonal
    with np.errstate(over="ignore"), pytest.raises(QuantizationError, match="not strictly positive"):
        fubini_study(model, h)


def test_project_refuses_a_singular_gram():
    """A potential that puts all the twisted mass on one atom leaves a rank-one Gram."""
    sections = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
    model = DiscreteModel({1: sections}, np.full(3, 1.0 / 3.0))
    phi = PotentialField(model, np.array([0.0, 1000.0, 1000.0]))
    with pytest.raises(QuantizationError, match="condition estimate inf"):
        project(phi, 1)


@pytest.mark.parametrize("with_energies", [True, False])
def test_quantized_flow_turns_a_bergman_failure_into_a_flow_error(with_energies):
    model, h = _huge_diagonal_form()
    with pytest.raises(FlowError, match="left the positive cone near t = 0.000000"):
        quantized_flow_run(model, h, t_max=1 / 32, dt=1 / 32, with_energies=with_energies)


def test_orthonormal_orthogonal_property():
    """Dense and diagonal h; the norms are scipy's generalized eigenvalues of (b, h)."""
    import scipy.linalg

    rng = np.random.default_rng(41)
    dense = HermForm(1, random_herm_pd(rng, 3))
    diagonal = HermForm(1, np.exp(rng.standard_normal(3)))
    assert not dense.is_diagonal and diagonal.is_diagonal
    for h in (dense, diagonal):
        b = HermForm(1, random_herm_pd(rng, 3))
        frame, norms = orthonormal_orthogonal(h, b)
        assert np.allclose(frame.conj().T @ h.entries @ frame, np.eye(3), atol=1e-11)
        off = frame.conj().T @ b.entries @ frame - np.diag(norms)
        assert np.max(np.abs(off)) <= 1e-11
        assert np.all(np.diff(norms) >= -1e-13)
        explicit = scipy.linalg.eigh(b.entries, h.entries, eigvals_only=True)
        assert np.allclose(norms, explicit, rtol=1e-12, atol=0.0)


def test_discrete_backend_maps(discrete):
    """Projection and balancing run on the atomic backend too."""
    rng = np.random.default_rng(53)
    h = HermForm(2, random_herm_pd(rng, discrete.nk(2)))
    b = balancing(discrete, h)
    assert b.dim == h.dim
    phi = fubini_study(discrete, h)
    assert phi.values.shape == (discrete.node_count,)


# ---------------------------------------------------------------------------
# stacks of forms, as the quantized flow holds them: each slice as its form alone


def _exponents(k, runs, seed):
    """A stack of Hermitian exponents Q of level k."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((runs, 2 * k + 1, 2 * k + 1))
    x = x + 1j * rng.standard_normal(x.shape)
    return 0.25 * (x + x.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("model_name", ["p1", "discrete"])
def test_a_dense_stack_equals_its_forms_alone(request, model_name):
    """``matrix_exp``, ``balancing`` and ``gen_eig`` of a stack, slice by slice, bitwise."""
    model = request.getfixturevalue(model_name)
    q = _exponents(2, 3, seed=7)
    stack = matrix_exp(2, q)
    step = balancing(model, stack)
    norms = gen_eig(step.gram, stack)
    for i in range(3):
        form = matrix_exp(2, q[i])
        for name in ("data", "frame", "logs"):
            assert np.array_equal(getattr(stack, name)[i], getattr(form, name))
        b = balancing(model, form)
        assert not b.is_diagonal
        assert np.array_equal(step.potential[i], fubini_study(model, form).values)
        for name in ("data", "frame", "entries"):
            assert np.array_equal(getattr(step.gram, name)[i], getattr(b, name))
        assert np.array_equal(norms[i], gen_eig(b, form))


def test_a_diagonal_stack_equals_its_forms_alone(p1):
    """On the radial path: ``balancing`` and ``gen_eig`` of a stack, slice by slice, bitwise."""
    data = np.exp(0.5 * np.random.default_rng(11).standard_normal((3, 7)))
    stack = _held_form(3, data)
    step = balancing(p1, stack)
    norms = gen_eig(step.gram, stack)
    for i in range(3):
        form = HermForm(3, data[i])
        b = balancing(p1, form)
        assert b.is_diagonal and step.gram.is_diagonal
        assert np.array_equal(step.potential[i], fubini_study(p1, form).radial_profile)
        assert np.array_equal(step.gram.data[i], b.data)
        assert np.array_equal(norms[i], gen_eig(b, form))


def _raised(call):
    with pytest.raises((HermitianError, PositivityError, QuantizationError)) as err:
        call()
    return type(err.value), str(err.value), err.value.start


def _assert_slice_1_fails_as_alone(stacked, alone):
    kind, message, start = _raised(alone)
    assert start is None
    assert _raised(stacked) == (kind, message, 1)


@pytest.mark.parametrize("q1", [np.nan, -800.0], ids=["not finite", "out of range"])
def test_matrix_exp_names_the_failing_slice_of_a_stack(q1):
    q = _exponents(1, 3, seed=3)
    q[1, 0, 0] = q1
    _assert_slice_1_fails_as_alone(lambda: matrix_exp(1, q), lambda: matrix_exp(1, q[1]))


def test_gen_eig_names_the_failing_slice_of_a_stack():
    """Slice 1 of the right stack falls below the floor, or has a zero on the radial path."""
    qa, qb = _exponents(1, 3, seed=5), _exponents(1, 3, seed=6)
    qb[1] = np.diag([-40.0, 0.0, 0.1])
    _assert_slice_1_fails_as_alone(
        lambda: gen_eig(matrix_exp(1, qa), matrix_exp(1, qb)),
        lambda: gen_eig(matrix_exp(1, qa[1]), matrix_exp(1, qb[1])),
    )
    data = np.ones((3, 3))
    data[1, 2] = 0.0
    _assert_slice_1_fails_as_alone(
        lambda: gen_eig(_held_form(1, data), _held_form(1, data)),
        lambda: gen_eig(data[1], data[1]),
    )


def _zero_weights_of_slice_1(weights):
    """``maps.twisted_weights`` with the weights of slice 1 of a stack, or of one form, zeroed."""

    def spoiled(log_mu0, values, power=1):
        w = weights(log_mu0, values, power)
        w[1 if w.ndim == 2 else slice(None)] = 0.0
        return w

    return spoiled


@pytest.mark.parametrize("case", ["radial sum", "radial Gram", "dense Gram", "discrete Gram"])
def test_a_stack_balancing_names_its_failing_slice(request, monkeypatch, case):
    """The stacked balancing's checks raise what the slice's own balancing raises, with start 1."""
    if case == "radial sum":
        # a form of 1e308 underflows its radial Bergman sum
        model = ProjectiveLineModel(32, radial_nodes=16, angular_nodes=8)
        stack = _held_form(32, np.array([[1.0], [1e308], [1.0]]) * np.ones(65))
    else:
        monkeypatch.setattr(maps, "twisted_weights", _zero_weights_of_slice_1(twisted_weights))
        model = request.getfixturevalue("discrete" if case == "discrete Gram" else "p1")
        if case == "radial Gram":
            stack = _held_form(2, np.exp(0.5 * np.random.default_rng(9).standard_normal((3, 5))))
        else:
            stack = matrix_exp(2, _exponents(2, 3, seed=9))
    form = _held_form(stack.level, stack.data[1], None if stack.is_diagonal else stack.frame[1])

    def stacked():
        with np.errstate(all="ignore"):
            step = balancing(model, stack)
        maps._check_step(model, step)

    _assert_slice_1_fails_as_alone(stacked, lambda: balancing(model, form))


def test_level_tables_are_built_once_and_go_with_their_model(monkeypatch):
    """One table per (model, k, path), however many maps and stages read it.

    The tables do not keep their model alive.
    """
    built = []
    level = maps._Level

    def counted(*args):
        built.append(args[:2])
        return level(*args)

    monkeypatch.setattr(maps, "_Level", counted)
    model = ProjectiveLineModel(2, radial_nodes=16, angular_nodes=8)
    radial = project(model.zero_potential(), 2)
    dense = HermForm(2, random_herm_pd(np.random.default_rng(2), 5, spread=0.5))
    for h in (radial, dense):
        balancing(model, h)
        fubini_study(model, h)
        quantized_flow_run(model, h, t_max=0.5, dt=0.125)
    project(model.zero_potential(), 1)
    assert sorted(built) == [(1, True), (2, False), (2, True)]

    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None
