import numpy as np
import pytest
import scipy.linalg

from qkrf.energies import e_k, l_functional, s_k
from qkrf.flows import quantized_flow_run
from qkrf.hermforms import (
    HermForm,
    HermitianError,
    PositivityError,
    _held_form,
    _slice,
    _stack,
    gen_eig,
    log_gap,
    matrix_exp,
    matrix_log,
    random_herm_pd,
)
from qkrf.maps import _check_step, balancing, fubini_study, project
from qkrf.nanorms import NAForm, ray_l_value


def test_form_rejects_indefinite_matrix():
    with pytest.raises(PositivityError):
        HermForm(1, np.diag([1.0, -0.5, 2.0]))


def test_form_rejects_bad_level():
    with pytest.raises(HermitianError):
        HermForm(0, np.eye(3))


def test_form_rejects_non_hermitian():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1.0
    with pytest.raises(HermitianError):
        HermForm(1, a)


def test_form_rejects_non_finite():
    a = np.eye(3, dtype=complex)
    a[1, 1] = np.nan
    with pytest.raises(HermitianError):
        HermForm(1, a)


def test_diagonal_detection_and_sqnorm():
    h = HermForm(2, np.diag([2.0, 1.0, 4.0, 1.0, 2.0]))
    assert h.is_diagonal
    c = np.zeros(5, dtype=complex)
    c[2] = 1.0 + 1.0j
    # the squared norm of a coefficient column c is c^H M c
    assert np.vdot(c, h.entries @ c).real == pytest.approx(8.0)


@pytest.mark.parametrize(
    "diag", [[2.0, 0.0, 1.0], [2.0, -0.5, 1.0], [1e-3, -1e-300, 5.0]]
)
def test_diagonal_form_positivity_message_matches_eigvalsh(diag):
    m = np.diag(diag).astype(complex)
    with pytest.raises(PositivityError) as err:
        HermForm(1, m)
    smallest = np.linalg.eigvalsh(m)[0]
    assert str(err.value) == (
        f"form is not positive definite: smallest eigenvalue {smallest:.6e}"
    )


def test_indefinite_dense_form_with_positive_diagonal_raises():
    m = np.array([[1.0, 2.0j], [-2.0j, 1.0]])
    with pytest.raises(PositivityError, match=r"smallest eigenvalue -1\.000000e\+00"):
        HermForm(1, m)


def test_is_diagonal_for_diagonal_and_dense_forms():
    assert HermForm(1, np.diag([1.0, 2.0, 3.0])).is_diagonal
    dense = np.diag([2.0, 2.0, 2.0]).astype(complex)
    dense[0, 2], dense[2, 0] = 0.5j, -0.5j
    assert not HermForm(1, dense).is_diagonal


def test_scaled_requires_positive_factor():
    h = HermForm(1, np.eye(3))
    with pytest.raises(PositivityError):
        h.scaled(-1.0)
    assert np.allclose(h.scaled(3.0).entries, 3.0 * np.eye(3))


def test_log_exp_round_trip():
    rng = np.random.default_rng(7)
    for n in (3, 5, 9):
        a = random_herm_pd(rng, n, spread=1.0)
        back = matrix_exp(1, matrix_log(HermForm(1, a))).entries
        assert np.allclose(back, a, atol=1e-12)


def test_matrix_log_diagonal():
    h = HermForm(1, np.diag([1.0, np.e, np.e**2]))
    q = matrix_log(h)
    assert np.allclose(np.diagonal(q).real, [0.0, 1.0, 2.0], atol=1e-14)


def test_gen_eig_congruence_invariance():
    """Generalized eigenvalues only see the pair up to joint congruence."""
    rng = np.random.default_rng(11)
    a = random_herm_pd(rng, 5, spread=0.8)
    b = random_herm_pd(rng, 5, spread=0.8)
    s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    mu = gen_eig(HermForm(1, a), HermForm(1, b))
    mu_s = gen_eig(HermForm(1, s.conj().T @ a @ s), HermForm(1, s.conj().T @ b @ s))
    assert np.allclose(mu, mu_s, rtol=1e-10)
    assert np.all(np.diff(mu) >= 0.0)
    assert np.allclose(gen_eig(HermForm(1, b), HermForm(1, b)), np.ones(5), atol=1e-13)


def test_rel_entropy_oracle(p1):
    """S_k with a given b_k(H) is the normalized entropy of gen_eig(b_k(H), H)."""
    b = HermForm(1, np.array([0.5, 0.3, 0.2]))
    h = HermForm(1, np.array([0.4, 0.4, 0.2]))
    ratios = np.array([0.5 / 0.4, 0.3 / 0.4, 1.0])
    expected = float(np.sum(ratios * np.log(ratios)) / 3.0)
    assert s_k(p1, h, balanced=b) == pytest.approx(expected, abs=1e-14)
    assert s_k(p1, h, balanced=h) == pytest.approx(0.0, abs=1e-14)


def test_geodesic_ray_constant_direction_rescales(p1):
    """Constant weights c move the ray's form to e^(-ct) h0, so L moves by ct/k."""
    rng = np.random.default_rng(5)
    h0 = HermForm(1, random_herm_pd(rng, 3))
    nu = NAForm(1, np.full(3, 0.7), np.eye(3, dtype=complex))
    start = ray_l_value(p1, nu, h0, 0.0)
    assert start == pytest.approx(l_functional(fubini_study(p1, h0)), abs=1e-12)
    assert ray_l_value(p1, nu, h0, 2.0) == pytest.approx(start + 1.4, abs=1e-12)


def test_geodesic_ray_diagonal_weights(p1):
    """On an h0-orthonormal adapted basis the ray at time t is diag(e^(-w t))."""
    w = np.array([1.0, 0.5, 0.0])
    h0 = project(p1.zero_potential(), 1)
    nu = NAForm(1, w, np.diag(1.0 / np.sqrt(h0.diagonal())).astype(complex))
    moved = HermForm(1, h0.diagonal() * np.exp(-3.0 * w))
    assert ray_l_value(p1, nu, h0, 3.0) == pytest.approx(
        l_functional(fubini_study(p1, moved)), abs=1e-12
    )


def test_log_gap_scale_oracle():
    """log_gap between e^c H and H is |c| sqrt(N)."""
    for n, c in ((3, 0.5), (5, -1.2)):
        h1 = HermForm(1, np.exp(c) * np.eye(n))
        h2 = HermForm(1, np.eye(n))
        assert log_gap(h1, h2) == pytest.approx(abs(c) * np.sqrt(n), abs=1e-12)
    assert log_gap(h2, h2) == 0.0


def test_log_gap_symmetric_dense():
    rng = np.random.default_rng(13)
    h1 = HermForm(2, random_herm_pd(rng, 5))
    h2 = HermForm(2, random_herm_pd(rng, 5))
    assert log_gap(h1, h2) == pytest.approx(log_gap(h2, h1), rel=1e-12)


def test_random_herm_pd_is_deterministic_and_pd():
    a = random_herm_pd(np.random.default_rng(42), 6, spread=1.5)
    b = random_herm_pd(np.random.default_rng(42), 6, spread=1.5)
    assert np.array_equal(a, b)
    assert np.min(np.linalg.eigvalsh(a)) > 0.0


@pytest.mark.parametrize(
    "diag",
    [
        [2.0, 0.0, 1.0],
        [2.0, -0.5, 1.0],
        [1e-3, -1e-300, 5.0],
        [1.0, np.nan, 2.0],
        [1.0, np.inf, 2.0],
        [-np.inf, 1.0, 2.0],
    ],
)
def test_vector_and_matrix_inputs_fail_alike(diag):
    errors = []
    for data in (np.array(diag), np.diag(diag)):
        with pytest.raises((HermitianError, PositivityError)) as err:
            HermForm(1, data)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


def test_vector_form_checks_shape_and_type():
    with pytest.raises(HermitianError):
        HermForm(1, np.array([]))
    with pytest.raises(HermitianError):
        HermForm(1, np.array([1.0 + 1.0j, 2.0]))
    with pytest.raises(HermitianError):
        HermForm(1, np.ones((2, 3)))


def test_vector_form_copies_its_input():
    d = np.array([1.0, 2.0, 3.0])
    h = HermForm(1, d)
    d[0] = -1.0
    assert np.array_equal(h.diagonal(), [1.0, 2.0, 3.0])


def test_vector_and_matrix_diagonal_forms_agree_bitwise():
    rng = np.random.default_rng(17)
    d = np.exp(3.0 * rng.standard_normal(7))
    d_ref = np.exp(rng.standard_normal(7))
    dense = HermForm(3, random_herm_pd(rng, 7))
    vec, mat = HermForm(3, d), HermForm(3, np.diag(d))
    ref_vec, ref_mat = HermForm(3, d_ref), HermForm(3, np.diag(d_ref))
    assert vec.is_diagonal and mat.is_diagonal
    assert np.array_equal(vec.diagonal(), mat.diagonal())
    assert np.array_equal(vec.diagonal(), d)
    assert np.array_equal(vec.entries, mat.entries)
    assert vec.entries.dtype == complex and vec.entries.shape == (7, 7)
    assert np.array_equal(gen_eig(vec, ref_vec), gen_eig(mat, ref_mat))
    assert np.array_equal(gen_eig(dense, vec), gen_eig(dense, mat))
    assert log_gap(vec, ref_vec) == log_gap(mat, ref_mat)
    assert e_k(vec, ref_vec) == e_k(mat, ref_mat)
    assert np.array_equal(matrix_log(vec), matrix_log(mat))
    assert np.array_equal(vec.scaled(2.5).diagonal(), mat.scaled(2.5).diagonal())


def test_diagonal_paths_leave_the_dense_matrix_unbuilt(p1):
    """The radial path of the forms, maps, entropy and flow, with its checks, builds no matrix."""
    h = HermForm(2, np.array([2.0, 1.0, 4.0, 1.0, 2.0]))
    ref = HermForm(2, np.ones(5))
    gen_eig(h, ref)
    log_gap(h, ref)
    e_k(h, ref)
    matrix_log(h)
    h.scaled(2.0)
    b = balancing(p1, h)
    gram = project(fubini_study(p1, h), 2)
    s_k(p1, h)
    s_k(p1, h, balanced=b)
    total, step_gram, _ = balancing(p1, _stack([h, ref], dense=False))
    _check_step(2, total, step_gram)
    assert isinstance(step_gram, np.ndarray)
    trace = quantized_flow_run(p1, h, t_max=0.5, dt=0.25)
    assert len(trace.states) == 3
    for form in (h, ref, b, gram, *trace.states):
        assert form.is_diagonal and "entries" not in vars(form)
    assert h.entries is h.entries


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_a_stack_answers_for_each_of_its_forms_bitwise(dense):
    """entries, diagonal, scaled and matrix_log of a stack, slice by slice.

    A dense stack also holds a diagonal form, in the identity frame.
    """
    rng = np.random.default_rng(23)
    forms = [HermForm(2, np.exp(rng.standard_normal(5))) for _ in range(3)]
    if dense:
        forms[1:] = [HermForm(2, random_herm_pd(rng, 5, spread=0.5)) for _ in range(2)]
    stack = _stack(forms, dense)
    slices = [_slice(stack, i) for i in range(3)]
    scaled = stack.scaled(2.5)
    assert stack.entries.shape == (3, 5, 5) and stack.is_diagonal is not dense
    for i, (form, one) in enumerate(zip(forms, slices)):
        assert np.array_equal(one.data, form.data) and np.array_equal(one.logs, form.logs)
        assert np.array_equal(stack.entries[i], one.entries)
        assert np.array_equal(stack.diagonal()[i], one.diagonal())
        alone = one.scaled(2.5)
        assert np.array_equal(scaled.data[i], alone.data)
        assert (scaled.frame is None) is (alone.frame is None) is not dense
        assert dense is False or np.array_equal(scaled.frame[i], alone.frame)
        assert np.array_equal(matrix_log(stack)[i], matrix_log(form))
    assert np.array_equal(_slice(stack, 2).entries, stack.entries[2])


def test_a_stack_of_diagonals_is_not_read_as_one_matrix():
    stack = _held_form(1, np.arange(1.0, 10.0).reshape(3, 3))
    assert np.array_equal(stack.entries, [np.diag(d) for d in stack.data])
    assert np.array_equal(matrix_log(stack), [np.diag(np.log(d)) for d in stack.data])
    assert np.array_equal(stack.scaled(2.0).data, 2.0 * stack.data)


def test_a_held_form_caches_only_what_its_caller_gives():
    """``_held_form`` keeps ``logs`` and ``entries`` out of the form unless given; a slice keeps them."""
    data = np.arange(1.0, 10.0).reshape(3, 3)
    assert set(vars(_held_form(1, data))) == {"level", "data", "frame"}
    logs = np.log(data)
    stack = _held_form(1, data, logs=logs)
    assert set(vars(stack)) == {"level", "data", "frame", "logs"} and stack.logs is logs
    one = _slice(stack, 1)
    assert set(vars(one)) == {"level", "data", "frame", "logs"}
    assert np.array_equal(one.logs, logs[1]) and np.array_equal(one.data, data[1])


def test_scaled_refuses_what_it_cannot_hold():
    h = HermForm(1, np.array([0.5, 1.0, 4.0]))
    with pytest.raises(HermitianError, match="non-finite"):
        h.scaled(1e308)
    with pytest.raises(PositivityError, match="smallest eigenvalue 0.000000e"):
        h.scaled(5e-324)


# ---------------------------------------------------------------------------
# operations in the eigenframe against the explicit routes

EPS = np.finfo(float).eps
# Tolerance in units of eps * cond(H): the explicit routes (an LU solve, an
# eigh of the matrix, a generalized eigh) lose accuracy in proportion to the
# condition number of the form they work against.  The frame results sit
# within 10 of these units of them on these cases.
FRAME_TOL = 64.0


def _frame_cases():
    for k in (1, 2, 3):
        for spread in (0.5, 3.0):
            for built in ("matrix", "matrix_exp"):
                yield pytest.param(k, spread, built, id=f"k{k}-spread{spread}-{built}")


def _seeded_pair(k: int, spread: float, built: str):
    """A dense form and a reference form at level k, and the form's condition."""
    rng = np.random.default_rng([k, int(10 * spread)])
    n = 2 * k + 1
    h = HermForm(k, random_herm_pd(rng, n, spread=spread))
    if built == "matrix_exp":
        h = matrix_exp(k, matrix_log(h))
    ref = HermForm(k, random_herm_pd(rng, n, spread=spread))
    values = np.linalg.eigvalsh(h.entries)
    assert not h.is_diagonal and not ref.is_diagonal
    return h, ref, values[-1] / values[0]


@pytest.mark.parametrize("k, spread, built", _frame_cases())
def test_frame_bergman_sum_matches_an_lu_solve(p1, k, spread, built):
    h, _, cond = _seeded_pair(k, spread, built)
    a = p1.sections(k)
    lu = scipy.linalg.lu_factor(h.entries)
    explicit = np.real(np.einsum("ax,ax->x", a, scipy.linalg.lu_solve(lu, a.conj())))
    density = np.exp(k * fubini_study(p1, h).values) * h.dim
    assert np.max(np.abs(density - explicit) / explicit) <= FRAME_TOL * EPS * cond


@pytest.mark.parametrize("k, spread, built", _frame_cases())
def test_frame_matrix_log_matches_eigh(k, spread, built):
    h, _, cond = _seeded_pair(k, spread, built)
    values, vectors = np.linalg.eigh(h.entries)
    explicit = (vectors * np.log(values)) @ vectors.conj().T
    assert np.max(np.abs(matrix_log(h) - explicit)) <= FRAME_TOL * EPS * cond


@pytest.mark.parametrize("k, spread, built", _frame_cases())
def test_frame_gen_eig_matches_generalized_eigh(k, spread, built):
    h, ref, cond = _seeded_pair(k, spread, built)
    explicit = scipy.linalg.eigh(ref.entries, h.entries, eigvals_only=True)
    got = gen_eig(ref, h)
    assert np.all(np.diff(got) >= 0.0)
    assert np.max(np.abs(got - explicit)) <= FRAME_TOL * EPS * cond * explicit[-1]


@pytest.mark.parametrize("k, spread, built", _frame_cases())
def test_frame_e_k_matches_the_gen_eig_route(k, spread, built):
    h, ref, cond = _seeded_pair(k, spread, built)
    ref_values = np.linalg.eigvalsh(ref.entries)
    explicit = -np.sum(np.log(gen_eig(h, ref))) / (k * h.dim)
    tol = FRAME_TOL * EPS * max(cond, ref_values[-1] / ref_values[0])
    assert e_k(h, ref) == pytest.approx(explicit, abs=tol)


@pytest.mark.parametrize("seed", range(4))
def test_outside_matrix_errors_keep_their_messages(seed):
    rng = np.random.default_rng(seed)
    m = random_herm_pd(rng, 5, spread=0.5)
    values = np.linalg.eigvalsh(m)
    indefinite = m - 0.5 * (values[1] + values[2]) * np.eye(5)
    # the message reads the smallest eigenvalue eigvalsh gives
    smallest = np.linalg.eigvalsh(indefinite)[0]
    assert smallest < 0.0
    with pytest.raises(PositivityError) as err:
        HermForm(2, indefinite)
    assert str(err.value) == f"form is not positive definite: smallest eigenvalue {smallest:.6e}"

    skew = m.copy()
    skew[0, 1] += 1e-6
    resid = float(np.max(np.abs(skew - skew.conj().T)))
    scale = float(np.max(np.abs(skew)))
    with pytest.raises(HermitianError) as err:
        HermForm(2, skew)
    assert str(err.value) == f"form is not Hermitian: asymmetry {resid:.3e} at scale {scale:.3e}"


def test_matrix_exp_refuses_a_non_finite_exponent():
    q = np.zeros((3, 3), dtype=complex)
    q[1, 1] = np.nan
    with pytest.raises(HermitianError, match="non-finite"):
        matrix_exp(1, q)
    with pytest.raises(PositivityError, match="floating range"):
        matrix_exp(1, np.diag([-800.0, 0.0, 1.0]).astype(complex))
