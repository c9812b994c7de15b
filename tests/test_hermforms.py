import numpy as np
import pytest

from qkrf.energies import e_k, l_functional, s_k
from qkrf.hermforms import (
    HermForm,
    HermitianError,
    PositivityError,
    gen_eig,
    log_gap,
    matrix_exp,
    matrix_log,
    random_herm_pd,
)
from qkrf.maps import fubini_study, project
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
        back = matrix_exp(matrix_log(HermForm(1, a)))
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
    mu = gen_eig(a, b)
    mu_s = gen_eig(s.conj().T @ a @ s, s.conj().T @ b @ s)
    assert np.allclose(mu, mu_s, rtol=1e-10)
    assert np.all(np.diff(mu) >= 0.0)
    assert np.allclose(gen_eig(b, b), np.ones(5), atol=1e-13)


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
    dense = random_herm_pd(rng, 7)
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


def test_diagonal_paths_leave_the_dense_matrix_unbuilt():
    h = HermForm(2, np.array([2.0, 1.0, 4.0, 1.0, 2.0]))
    ref = HermForm(2, np.ones(5))
    gen_eig(h, ref)
    log_gap(h, ref)
    e_k(h, ref)
    matrix_log(h)
    h.scaled(2.0)
    assert "entries" not in vars(h) and "entries" not in vars(ref)
    assert h.entries is h.entries
