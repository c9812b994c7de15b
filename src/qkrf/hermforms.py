"""Positive Hermitian forms: generalized spectra, logarithms, log distances.

A form on the level-k section space is given by its matrix in the
reference basis, with the physics convention that the pairing is
antilinear in the first slot, so the squared norm of a coefficient
column c is c^H M c and an orthonormal frame S satisfies S^H M S = I.
A diagonal form is held as its real diagonal vector, checked in O(N),
and every spectral operation on diagonal forms is elementwise; the
dense matrix of such a form is built only when asked for.  Matrices
enter through ``HermForm`` (or ``gen_eig``), which checks and
symmetrizes them, (A + A^H)/2, once.  ``matrix_log`` and ``matrix_exp``
are the quantized flow's maps between forms and Hermitian matrices
Q = log H; they trust their input.  Dense spectral operations refuse
eigenvalues below a relative floor instead of clamping them; silent
regularization would corrupt the decay-rate measurements built on top
of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

HERMITIAN_TOL = 1e-12
EIG_FLOOR = 1e-14


class HermitianError(ValueError):
    """Input is not Hermitian within tolerance, or shapes do not match."""


class PositivityError(ValueError):
    """A spectral operation met a nonpositive or floored eigenvalue."""


def _check_and_symmetrize(a: np.ndarray, what: str) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise HermitianError(f"{what} must be a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise HermitianError(f"{what} has non-finite entries")
    scale = float(np.max(np.abs(a)))
    resid = float(np.max(np.abs(a - a.conj().T)))
    if resid > HERMITIAN_TOL * max(scale, 1.0):
        raise HermitianError(
            f"{what} is not Hermitian: asymmetry {resid:.3e} at scale {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


def _offdiagonal_is_zero(a: np.ndarray) -> bool:
    return bool(np.count_nonzero(a - np.diag(np.diagonal(a))) == 0)


def _hermitian_data(a, what: str) -> np.ndarray:
    """Checked data of a Hermitian input: its real diagonal if it is diagonal.

    A form's data is taken as it is.  A 1-D input is a diagonal, checked in
    O(N); a matrix is checked in full and symmetrized.
    """
    if isinstance(a, HermForm):
        return a.data
    a = np.asarray(a)
    if a.ndim != 1:
        m = _check_and_symmetrize(a.astype(complex, copy=False), what)
        return np.real(np.diagonal(m)).copy() if _offdiagonal_is_zero(m) else m
    if a.size == 0:
        raise HermitianError(f"{what} must be nonempty")
    if np.iscomplexobj(a):
        raise HermitianError(f"{what}: a diagonal must be given as a real vector")
    d = np.array(a, dtype=float)
    if not np.all(np.isfinite(d)):
        raise HermitianError(f"{what} has non-finite entries")
    return d


def _dense(data: np.ndarray) -> np.ndarray:
    return np.diag(data).astype(complex) if data.ndim == 1 else data


@dataclass(frozen=True)
class HermForm:
    """A positive definite Hermitian form on the level-k section space.

    ``data`` is either the real diagonal (a 1-D vector) of a diagonal form
    or the matrix of a dense one.  A matrix found to be diagonal is stored
    as its diagonal, so ``is_diagonal`` is exact and costs nothing.
    """

    level: int
    data: np.ndarray

    def __post_init__(self):
        if self.level < 1:
            raise HermitianError("level must be a positive integer")
        data = _hermitian_data(self.data, "form")
        # LAPACK returns a diagonal matrix's eigenvalues exactly, so the
        # smallest diagonal entry is the number eigvalsh would give (beyond
        # magnitudes of about 1e+-145 LAPACK rescales first, which can move
        # the last bit of its answer but never the sign).
        smallest = data.min() if data.ndim == 1 else np.linalg.eigvalsh(data)[0]
        if smallest <= 0.0:
            raise PositivityError(
                f"form is not positive definite: smallest eigenvalue {smallest:.6e}"
            )
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.data.ndim == 1

    @cached_property
    def entries(self) -> np.ndarray:
        """The complex matrix of the form; built on first use for a diagonal form."""
        return _dense(self.data)

    def diagonal(self) -> np.ndarray:
        if self.is_diagonal:
            return self.data.copy()
        return np.real(np.diagonal(self.data)).copy()

    def scaled(self, c: float) -> "HermForm":
        if c <= 0.0:
            raise PositivityError("scaling factor must be positive")
        return HermForm(self.level, c * self.data)


def _floor_check(values: np.ndarray, what: str) -> None:
    top = float(values[-1])
    if top <= 0.0 or float(values[0]) <= EIG_FLOOR * top:
        raise PositivityError(
            f"{what}: eigenvalue {values[0]:.6e} below the relative floor "
            f"{EIG_FLOOR:.0e} * {top:.6e}"
        )


def matrix_log(h: HermForm) -> np.ndarray:
    """Hermitian logarithm of a positive definite form, as a complex matrix."""
    if h.is_diagonal:
        return np.diag(np.log(h.data)).astype(complex)
    values, frame = np.linalg.eigh(h.data)
    _floor_check(values, "matrix log")
    core = (frame * np.log(values)) @ frame.conj().T
    return 0.5 * (core + core.conj().T)


def matrix_exp(q: np.ndarray) -> np.ndarray:
    """Exponential of a Hermitian matrix; positive definite up to rounding.

    The result is not symmetrized: it becomes a form through ``HermForm``,
    which checks and symmetrizes it.
    """
    if _offdiagonal_is_zero(q):
        return np.diag(np.exp(np.real(np.diagonal(q)))).astype(complex)
    values, frame = np.linalg.eigh(q)
    return (frame * np.exp(values)) @ frame.conj().T


def gen_eig(a, b) -> np.ndarray:
    """Generalized eigenvalues of (a, b), ascending; b must be positive.

    These are the eigenvalues of b^(-1/2) a b^(-1/2); in a basis that is
    b-orthonormal and a-orthogonal they are the squared a-norms of the
    frame vectors.  Forms and matrices are both accepted.
    """
    da = _hermitian_data(a, "left matrix")
    db = _hermitian_data(b, "right matrix")
    if da.shape[0] != db.shape[0]:
        raise HermitianError("generalized eigenvalue inputs differ in shape")
    if da.ndim == 1 and db.ndim == 1:
        if db.min() <= 0.0:
            raise PositivityError("right matrix has a nonpositive diagonal entry")
        return np.sort(da / db)
    am, bm = _dense(da), _dense(db)
    _floor_check(np.linalg.eigvalsh(bm), "generalized eigenvalues")
    return scipy.linalg.eigh(am, bm, eigvals_only=True)


def log_gap(h1: HermForm, h2: HermForm) -> float:
    """Hilbert-Schmidt distance of matrix logarithms (0 iff the forms agree)."""
    if h1.dim != h2.dim:
        raise HermitianError("log gap of forms with different dimensions")
    if h1.is_diagonal and h2.is_diagonal:
        diff = np.log(h1.diagonal()) - np.log(h2.diagonal())
        return float(np.linalg.norm(diff))
    return float(np.linalg.norm(matrix_log(h1) - matrix_log(h2)))


# ---------------------------------------------------------------------------
# random generators used by the harness and the stress tests


def random_herm_pd(rng: np.random.Generator, n: int, spread: float = 1.0) -> np.ndarray:
    """Random positive definite Hermitian matrix with log-uniform-ish spectrum."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(x)[0]
    eigs = np.exp(spread * rng.standard_normal(n))
    m = (q * eigs) @ q.conj().T
    return 0.5 * (m + m.conj().T)

