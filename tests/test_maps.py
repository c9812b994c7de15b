import gc
import weakref
from math import factorial

import numpy as np
import pytest

from qkrf import maps
from qkrf.energies import s_k
from qkrf.experiments import family_potential
from qkrf.flows import FlowError, quantized_flow_run, quantized_flow_runs
from qkrf.geometry import (
    DiscreteModel,
    ModelError,
    PotentialField,
    ProjectiveLineModel,
    build_p1_model,
    logsumexp,
    twisted_weights,
)
from qkrf.hermforms import (
    HermForm,
    HermitianError,
    PositivityError,
    _held_form,
    _slice,
    gen_eig,
    matrix_exp,
    matrix_log,
    orthonormal_orthogonal,
    random_herm_pd,
)
from qkrf.maps import (
    QuantizationError,
    balancing,
    fubini_study,
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
    """``matrix_exp``, ``balancing`` with its node pass and ``gen_eig`` of a stack, slice by slice."""
    model = request.getfixturevalue(model_name)
    q = _exponents(2, 3, seed=7)
    stack = matrix_exp(2, q)
    total, gram, shift = balancing(model, stack)
    norms = gen_eig(gram, stack)
    for i in range(3):
        form = matrix_exp(2, q[i])
        for name in ("data", "frame", "logs"):
            assert np.array_equal(getattr(stack, name)[i], getattr(form, name))
        b = balancing(model, form)
        assert not b.is_diagonal
        potential = maps._fs_potential(np.log(total[i]), 5, 2)
        assert np.array_equal(potential, fubini_study(model, form).values)
        alone = maps._BergmanKernel(model, 2, radial=False)(1.0 / form.data, form.frame)
        assert np.array_equal(total[i], alone[0])
        assert all(np.array_equal(a[i], b_) for a, b_ in zip(shift, alone[2]))
        for name in ("data", "frame", "entries"):
            assert np.array_equal(getattr(gram, name)[i], getattr(b, name))
        assert np.array_equal(norms[i], gen_eig(b, form))


def test_a_diagonal_stack_equals_its_forms_alone(p1):
    """On the radial path: ``balancing`` with its node pass and ``gen_eig`` of a stack, slice by slice."""
    data = np.exp(0.5 * np.random.default_rng(11).standard_normal((3, 7)))
    stack = _held_form(3, data)
    total, gram, shift = balancing(p1, stack)
    assert isinstance(gram, np.ndarray)
    norms = gen_eig(_held_form(3, gram), stack)
    for i in range(3):
        form = HermForm(3, data[i])
        b = balancing(p1, form)
        assert b.is_diagonal and "entries" not in vars(b)
        potential = maps._fs_potential(np.log(total[i]), 7, 3)
        assert np.array_equal(potential, fubini_study(p1, form).radial_profile)
        alone = maps._BergmanKernel(p1, 3, radial=True)(1.0 / form.data)
        assert all(np.array_equal(a[i], b_) for a, b_ in zip(shift, alone[2]))
        assert np.array_equal(gram[i], b.data)
        assert np.array_equal(norms[i], gen_eig(b, form))


def _node_pass_and_log_space(model, h):
    """The kernel's node pass at h, (potential, weights, log Z), and its log-space oracle.

    The oracle is ``twisted_weights`` at the twist k + 1 and ``logsumexp``
    of log mu0 - phi, at the Fubini-Study potential phi of the kernel's sums.
    """
    radial = maps._radial_path(model, h)
    kernel = maps._BergmanKernel(model, h.level, radial)
    total = kernel.sums(1.0 / h.data, h.frame)
    weights, shift = maps._node_pass(kernel.mu0, total, h.dim, h.level)
    potential = maps._fs_potential(np.log(total), h.dim, h.level)
    log_mu0 = maps._log_mu0(model, radial)
    oracle = (
        twisted_weights(log_mu0, potential, h.level + 1),
        logsumexp(log_mu0 - potential, axis=-1),
    )
    return (potential, weights, maps._log_z(shift, h.dim, h.level)), oracle


def _assert_node_pass_matches_log_space(model, h):
    """Weights within 4 ulps per unit of exponent scale; log Z within 8 eps (1 + |log Z|).

    The exponent scale 1 + |log mu0| + (k + 1)|phi| + |log Z| bounds the
    terms of the exponent that ``twisted_weights`` rounds, so it sets the
    oracle's own error.  Measured: at most 3.3 ulps per unit on the radial
    grid and 2.1 on the dense one; log Z at most 1.6 eps (1 + |log Z|) apart.
    """
    (potential, weights, log_z), (reference, reference_log_z) = _node_pass_and_log_space(model, h)
    radial = maps._radial_path(model, h)
    scale = 1.0 + np.abs(maps._log_mu0(model, radial)) + (h.level + 1) * np.abs(potential)
    scale += abs(log_z)
    assert np.all(np.abs(weights - reference) <= 4.0 * scale * np.spacing(reference))
    eps = np.finfo(float).eps
    assert abs(log_z - reference_log_z) <= 8.0 * eps * (1.0 + abs(reference_log_z))


def test_the_node_pass_matches_the_log_space_weights_on_the_radial_grid():
    """Levels 1 to 64 on 160 radial nodes, at projections and at forms off balance.

    Each form also runs scaled by 1e-150 and 1e150, so that its Bergman sums
    move by 300 decades and the sums of all the inputs span more than that.
    """
    model = ProjectiveLineModel(64, radial_nodes=160, angular_nodes=8)
    rng = np.random.default_rng(3)
    low, high = np.inf, -np.inf
    for k in range(1, 65):
        for family, amplitude in (("bump", 0.3), ("sine", -0.5)):
            h = project(family_potential(model, family, amplitude), k)
            off = HermForm(k, h.data * np.exp(rng.standard_normal(h.dim)))
            for form in (h, off):
                for scale in (1.0, 1e-150, 1e150):
                    scaled = HermForm(k, form.data * scale)
                    _assert_node_pass_matches_log_space(model, scaled)
                    total = maps._BergmanKernel(model, k, radial=True).sums(1.0 / scaled.data)
                    low, high = min(low, total.min()), max(high, total.max())
    assert np.log10(high) - np.log10(low) >= 300.0


@pytest.mark.parametrize("angular", ["16", "4k+8"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_node_pass_matches_the_log_space_weights_on_the_dense_path(k, angular):
    model = ProjectiveLineModel(4, 64, angular_nodes=16 if angular == "16" else 4 * k + 8)
    for spread in (0.5, 1.0, 2.0):
        for seed in range(3):
            rng = np.random.default_rng([k, seed])
            h = HermForm(k, random_herm_pd(rng, 2 * k + 1, spread))
            for scale in (1.0, 1e-150, 1e150):
                _assert_node_pass_matches_log_space(model, h.scaled(scale))


def _max_shift_pass(log_mu0, total, n, k):
    """The node pass shifted by the largest exponent, as the Bergman step once took it.

    With s = log mu0 - phi and e = e^(s - max s), the weights are
    e N / (sum e B).
    """
    s = log_mu0 - maps._fs_potential(np.log(total), n, k)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e * (n / e.sum(axis=-1, keepdims=True)) / total


def test_the_min_shift_stays_finite_and_normal_where_the_max_shift_does():
    """Scaled forms whose Bergman sums fall below 1e-300 or rise past 1e300.

    At k = 64 the unit form's scales run past the one where its largest
    weight overflows, on both sides alike; at k = 1 and 2, where the
    exponent (m - log B) / k is widest, unit forms run over 10^-307 to
    10^307.  Wherever the max-shift pass gives a normal weight, the
    min-shift pass gives a normal weight too, within 1e-12 of it, and
    every Gram that the log-space weights give finite the kernel gives
    finite, within 1e-12.
    """
    model = ProjectiveLineModel(64, radial_nodes=160, angular_nodes=8)
    round_metric = project(model.zero_potential(), 64).data
    cases = [(64, np.ones(129), np.arange(270.0, 272.0, 0.05)),
             (64, round_metric, np.arange(303.0, 308.5, 0.5)),
             (64, np.ones(129), np.arange(-307.0, -300.5, 1.0))]
    cases += [(k, np.ones(2 * k + 1), np.arange(-307.0, 308.0, 7.0)) for k in (1, 2)]
    tiny, finite, low, high = np.finfo(float).tiny, 0, np.inf, -np.inf
    for k, base, exponents in cases:
        kernel = maps._BergmanKernel(model, k, radial=True)
        for e in exponents:
            h = HermForm(k, base * 10.0**e)
            with np.errstate(all="ignore"):
                total = kernel.sums(1.0 / h.data)
                weights, _ = maps._node_pass(kernel.mu0, total, h.dim, k)
                old = _max_shift_pass(maps._log_mu0(model, True), total, h.dim, k)
                (_, _, _), (reference, _) = _node_pass_and_log_space(model, h)
                gram, ref_gram = kernel.gram(weights), kernel.gram(reference)
            low, high = min(low, total.min()), max(high, total.max())
            normal = np.isfinite(old) & (np.abs(old) >= tiny)
            assert np.all(np.isfinite(weights[normal]) & (weights[normal] >= tiny)), (k, e)
            assert np.max(np.abs(weights[normal] / old[normal] - 1.0), initial=0.0) <= 1e-12
            if np.isfinite(ref_gram).all():
                finite += 1
                assert np.isfinite(gram).all(), (k, e)
                assert np.max(np.abs(gram / ref_gram - 1.0)) <= 1e-12
    assert low < 1e-300 and high > 1e300 and finite >= 100


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
        lambda: gen_eig(_held_form(1, data[1]), _held_form(1, data[1])),
    )


def _zero_weights_of_slice_1(node_pass):
    """``maps._node_pass`` with the weights of slice 1 of a stack, or of one form, zeroed."""

    def spoiled(mu0, total, n, k):
        w, shift = node_pass(mu0, total, n, k)
        w[1 if w.ndim == 2 else slice(None)] = 0.0
        return w, shift

    return spoiled


@pytest.mark.parametrize("case", ["radial sum", "radial Gram", "dense Gram", "discrete Gram"])
def test_a_stack_balancing_names_its_failing_slice(request, monkeypatch, case):
    """The stacked balancing's checks raise what the slice's own balancing raises, with start 1."""
    if case == "radial sum":
        # a form of 1e308 underflows its radial Bergman sum
        model = ProjectiveLineModel(32, radial_nodes=16, angular_nodes=8)
        stack = _held_form(32, np.array([[1.0], [1e308], [1.0]]) * np.ones(65))
    else:
        monkeypatch.setattr(maps, "_node_pass", _zero_weights_of_slice_1(maps._node_pass))
        model = request.getfixturevalue("discrete" if case == "discrete Gram" else "p1")
        if case == "radial Gram":
            stack = _held_form(2, np.exp(0.5 * np.random.default_rng(9).standard_normal((3, 5))))
        else:
            stack = matrix_exp(2, _exponents(2, 3, seed=9))
    form = _slice(stack, 1)

    def stacked():
        with np.errstate(all="ignore"):
            total, gram, _ = balancing(model, stack)
        maps._check_step(stack.level, total, gram)

    _assert_slice_1_fails_as_alone(stacked, lambda: balancing(model, form))


def test_the_model_builds_its_level_tables_once_and_is_collected(monkeypatch):
    """Each table of a level is built once, however many maps and stages read it.

    The maps keep no table of their own, so nothing keeps the model alive.
    """
    built = []
    level_table = ProjectiveLineModel._level_table

    def counted(self, what, k, nbytes, build):
        def recorded():
            built.append(f"{what} at level {k}")
            return build()

        return level_table(self, what, k, nbytes, recorded)

    monkeypatch.setattr(ProjectiveLineModel, "_level_table", counted)
    model = ProjectiveLineModel(2, radial_nodes=16, angular_nodes=8)
    radial = project(model.zero_potential(), 2)
    dense = HermForm(2, random_herm_pd(np.random.default_rng(2), 5, spread=0.5))
    for h in (radial, dense):
        balancing(model, h)
        fubini_study(model, h)
        quantized_flow_run(model, h, t_max=0.5, dt=0.125)
    project(model.zero_potential(), 1)
    assert sorted(built) == [
        "angular mode tables at level 2",
        "power rows at level 2",
        "radial sections at level 1",
        "radial sections at level 2",
    ]

    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("k", [2, 4, 8])
def test_the_balancing_jacobian_at_the_round_metric_has_the_predicted_spectrum(k):
    """Eigenvalues of Q -> log b_k(e^Q) on the radial path at project(zero potential, k).

    They are nu_0 = 1, for the scaling direction, and nu_j = ((k+1)/k) beta_j,
    beta_j = (2k)! (2k+1)! / ((2k-j)! (2k+j+1)!), for j = 1 .. 2k; central
    differences at eps = 1e-5 meet them within 8.1e-11 at k = 2, 4 and 8.
    """
    model = build_p1_model(8)
    q0 = np.log(project(model.zero_potential(), k).data)
    n, eps = q0.size, 1e-5

    def log_b(q):
        return balancing(model, HermForm(k, np.exp(q))).logs

    columns = [(log_b(q0 + eps * e) - log_b(q0 - eps * e)) / (2.0 * eps) for e in np.eye(n)]
    nu = np.linalg.eigvals(np.column_stack(columns))
    predicted = np.sort([1.0] + [(k + 1) / k * b for b in _berezin_eigenvalues(k)])
    assert np.max(np.abs(nu.imag)) <= 1e-9
    assert np.max(np.abs(np.sort(nu.real) - predicted)) <= 1e-9


def _hermitian_basis(n):
    """A real basis of the n x n Hermitian matrices: E_jj, then E_jl + E_lj and i (E_jl - E_lj)."""
    basis = []
    for j in range(n):
        for l in range(j, n):
            pairs = [(1.0, 1.0)] if j == l else [(1.0, 1.0), (1j, -1j)]
            for upper, lower in pairs:
                e = np.zeros((n, n), dtype=complex)
                e[j, l], e[l, j] = upper, lower
                basis.append(e)
    return basis


def _hermitian_coordinates(q):
    """The coordinates of a Hermitian q in ``_hermitian_basis``."""
    j, l = np.triu_indices(q.shape[0])
    parts = [[z.real] if a == b else [z.real, z.imag] for a, b, z in zip(j, l, q[j, l])]
    return np.concatenate(parts)


def _berezin_eigenvalues(k):
    """beta_j = (2k)! (2k+1)! / ((2k-j)! (2k+j+1)!) for j = 1 .. 2k."""
    return [
        factorial(2 * k) * factorial(2 * k + 1) / (factorial(2 * k - j) * factorial(2 * k + j + 1))
        for j in range(1, 2 * k + 1)
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_dense_balancing_jacobian_at_the_round_metric_has_the_predicted_spectrum(k):
    """Eigenvalues of Q -> log b_k(e^Q) on the dense path, with their multiplicities.

    In the N^2 real coordinates of a Hermitian Q at Q0 = log project(zero
    potential, k), they are nu_0 = 1 once and nu_j = ((k+1)/k) beta_j with
    multiplicity 2j + 1.  Central differences at eps = 1e-5 on
    ``build_p1_model(k)`` meet them within 4.7e-11, 1.7e-10, 4.1e-10 and
    6.5e-10 at k = 1 .. 4, with imaginary parts below 3e-10.  ``matrix_exp``
    holds every e^Q in its eigenframe, so each direction takes the dense path.
    """
    model = build_p1_model(k)
    q0 = np.diag(project(model.zero_potential(), k).logs).astype(complex)
    eps = 1e-5

    def log_b(q):
        return matrix_log(balancing(model, matrix_exp(k, q)))

    columns = [
        _hermitian_coordinates(log_b(q0 + eps * e) - log_b(q0 - eps * e)) / (2.0 * eps)
        for e in _hermitian_basis(2 * k + 1)
    ]
    nu = np.linalg.eigvals(np.column_stack(columns))
    nu_j = [(k + 1) / k * b for b in _berezin_eigenvalues(k)]
    predicted = np.sort([1.0] + [v for j, v in enumerate(nu_j, 1) for _ in range(2 * j + 1)])
    assert np.max(np.abs(nu.imag)) <= 1e-9
    assert np.max(np.abs(np.sort(nu.real) - predicted)) <= 1e-9


@pytest.mark.parametrize("k_max, radial_nodes", [(6, 96), (64, 160)])
def test_the_round_gram_is_the_beta_matrix_at_every_level(k_max, radial_nodes):
    """project(zero potential, k) = diag(m! (2k-m)! / (2k+1)!) at every level.

    On the default balanced-fixed-point grid (k <= 6) the largest relative
    error is 1.9e-14, and 3.7e-13 up to k = 64 on 160 radial nodes.
    """
    model = ProjectiveLineModel(k_max, radial_nodes=radial_nodes, angular_nodes=8)
    for k in model.levels:
        exact = np.array(
            [factorial(m) * factorial(2 * k - m) / factorial(2 * k + 1) for m in range(2 * k + 1)]
        )
        gram = project(model.zero_potential(), k)
        assert gram.is_diagonal
        assert np.max(np.abs(gram.data - exact) / exact) <= 1e-12, k


# ---------------------------------------------------------------------------
# symmetries of the dense path


ANGULAR_NODES = 16


def _conjugation_defect(model, k, h, g):
    """|b_k(g H g^*) - g b_k(H) g^*| / |b_k(H)| in Frobenius norms, for a unitary g."""
    b = balancing(model, HermForm(k, h)).entries
    moved = balancing(model, HermForm(k, g @ h @ g.conj().T)).entries
    return np.linalg.norm(moved - g @ b @ g.conj().T) / np.linalg.norm(b)


def _rotation(k, alpha):
    return np.diag(np.exp(1j * alpha * np.arange(2 * k + 1)))


def _grid_symmetries(model, k):
    """The symmetries sigma of the grid as pairs (nodes, g): phi o sigma has values phi.values[nodes].

    The Weyl reflection (u, theta) -> (1 - u, -theta), with g the reversal
    m <-> 2k - m, and the rotations theta -> theta + alpha, alpha in 2 pi Z / A,
    with g = diag(e^(i m alpha)).  Each maps nodes onto nodes, and g^T a(x)
    is a(sigma x) up to one phase per node.
    """
    a = model.angular_count
    index = np.arange(model.node_count).reshape(model.radial_count, a)
    steps = np.arange(a)
    yield index[::-1, -steps % a].ravel(), np.eye(2 * k + 1)[::-1]
    for turns in (1, 3, 7):
        yield index[:, (steps + turns) % a].ravel(), _rotation(k, 2.0 * np.pi * turns / a)


@pytest.mark.parametrize("spread", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_balancing_commutes_with_the_symmetries_of_the_grid(k, spread):
    """b_k(g H g^*) = g b_k(H) g^* for the symmetries of ``_grid_symmetries``.

    Up to rounding, which grows with the condition number of H: at most
    2.7e-15 relative, and 3.8e-13 at the condition number 5.5e3 of k = 4,
    spread 2.0.
    """
    model = ProjectiveLineModel(4, radial_nodes=96, angular_nodes=ANGULAR_NODES)
    n = 2 * k + 1
    h = random_herm_pd(np.random.default_rng([k, round(10 * spread)]), n, spread=spread)
    rounding = 8 * n * np.finfo(float).eps * np.linalg.cond(h)
    for _, g in _grid_symmetries(model, k):
        assert _conjugation_defect(model, k, h, g) <= rounding


@pytest.mark.parametrize("spread", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_project_and_fubini_study_commute_with_the_symmetries_of_the_grid(k, spread):
    """f(g H g^*) = f(H) o sigma and project(phi o sigma) = g project(phi) g^*.

    Up to the rounding bound of the balancing test above: the potentials
    differ by at most 2.2e-13 (k = 4, spread 2.0, against 8.8e-11), the
    Grams by at most 1.0e-15 relative.
    """
    model = ProjectiveLineModel(4, radial_nodes=96, angular_nodes=ANGULAR_NODES)
    n = 2 * k + 1
    h = random_herm_pd(np.random.default_rng([k, round(10 * spread)]), n, spread=spread)
    rounding = 8 * n * np.finfo(float).eps * np.linalg.cond(h)
    phi = fubini_study(model, HermForm(k, h))
    gram = project(phi, k).entries
    for nodes, g in _grid_symmetries(model, k):
        moved = fubini_study(model, HermForm(k, g @ h @ g.conj().T)).values
        assert np.max(np.abs(moved - phi.values[nodes])) <= rounding
        moved_gram = project(PotentialField(model, phi.values[nodes]), k).entries
        defect = np.linalg.norm(moved_gram - g @ gram @ g.conj().T)
        assert defect <= rounding * np.linalg.norm(gram)


def test_a_rotation_off_the_grid_breaks_the_symmetry():
    """alpha = 0.7 is no multiple of 2 pi / 16: the angular quadrature error shows (5.9e-3).

    So the commutation test above can fail.
    """
    model = ProjectiveLineModel(2, radial_nodes=96, angular_nodes=ANGULAR_NODES)
    h = random_herm_pd(np.random.default_rng([2, 20]), 5, spread=2.0)
    assert _conjugation_defect(model, 2, h, _rotation(2, 0.7)) >= 1e-3


def _moved_runs(path, k, spread):
    """Runs of one stack from a start H and its moves g H g^* by the grid symmetries.

    Returns (g, trace of H, trace of g H g^*, s_k(H), s_k(g H g^*)) for
    each symmetry.  On the dense path every symmetry of
    ``_grid_symmetries`` moves a random start; on the radial path the
    reflection moves a diagonal start, which every rotation fixes.
    """
    model = ProjectiveLineModel(4, radial_nodes=96, angular_nodes=ANGULAR_NODES)
    rng = np.random.default_rng([k, round(10 * spread)])
    if path == "dense":
        h = random_herm_pd(rng, 2 * k + 1, spread=spread)
        moves = [g for _, g in _grid_symmetries(model, k)]
    else:
        h = np.diag(project(family_potential(model, "bump", 0.3), k).data)
        h *= np.exp(spread * rng.standard_normal(2 * k + 1))
        moves = [np.eye(2 * k + 1)[::-1]]
    starts = [HermForm(k, h)] + [HermForm(k, g @ h @ g.conj().T) for g in moves]
    assert all((form.frame is None) == (path == "radial") for form in starts)
    first, *traces = quantized_flow_runs(model, starts, t_max=0.25, dt=0.05)
    s_first = s_k(model, starts[0])
    return [
        (g, first, trace, s_first, s_k(model, start))
        for g, trace, start in zip(moves, traces, starts[1:])
    ]


@pytest.mark.parametrize("spread", [0.5, 2.0])
@pytest.mark.parametrize("path, k", [("dense", 1), ("dense", 2), ("radial", 2), ("radial", 4)])
def test_the_stacked_flow_and_s_k_commute_with_the_symmetries_of_the_grid(path, k, spread):
    """A start moved by a grid symmetry, g H g^*, flows to the moved states with the same series.

    The moved starts run in one stack with H, so each run also checks the
    stack.  L, E_k, D_k, S_k, the relative entropy and s_k of the start
    are invariant; the states move as g H_t g^*.  Up to rounding, bounded
    by 8 N eps, times cond(H) on the dense path as in the balancing test
    above: the dense states differ by at most 3.1e-15 relative (Frobenius),
    the radial ones by 1.4e-15 entrywise, the series by 4.8e-15.
    """
    n = 2 * k + 1
    for g, first, moved, s_first, s_moved in _moved_runs(path, k, spread):
        assert np.array_equal(moved.times, first.times)
        rounding = 8 * n * np.finfo(float).eps
        if path == "dense":
            rounding *= np.linalg.cond(first.states[0].entries)
        for state, moved_state in zip(first.states, moved.states):
            expected = g @ state.entries @ g.conj().T
            if path == "dense":
                defect = np.linalg.norm(moved_state.entries - expected) / np.linalg.norm(expected)
            else:
                diagonal = np.real(np.diagonal(expected))
                defect = np.max(np.abs(moved_state.data - diagonal) / diagonal)
            assert defect <= rounding
        for name in ("L", "E_k", "D_k", "S_k", "relent_ref"):
            values = first.series[name]
            scale = max(1.0, np.max(np.abs(values)))
            assert np.max(np.abs(moved.series[name] - values)) <= rounding * scale, name
        assert abs(s_moved - s_first) <= rounding * max(1.0, s_first)
