"""Positive Hermitian forms: spectra, logarithms, geodesics, relative entropy.

A form on the level-k section space is given by its matrix in the
reference basis, with the physics convention that the pairing is
antilinear in the first slot, so the squared norm of a coefficient
column c is c^H M c and an orthonormal frame S satisfies S^H M S = I.
A diagonal form is held as its real diagonal vector, checked in O(N),
and every spectral operation on diagonal forms is elementwise; the
dense matrix of such a form is built only when asked for.  Matrix
inputs are checked and symmetrized, (A + A^H)/2, once, when they enter,
and dense spectral operations refuse eigenvalues below a relative floor
instead of clamping them; silent regularization would corrupt the
decay-rate measurements built on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np
import scipy.linalg

if TYPE_CHECKING:  # only for annotations; the norm objects live elsewhere
    from .nanorms import NAForm

HERMITIAN_TOL = 1e-12
EIG_FLOOR = 1e-14


class HermitianError(ValueError):
    """Input is not Hermitian within tolerance, or shapes do not match."""


class PositivityError(ValueError):
    """A spectral operation met a nonpositive or floored eigenvalue."""


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, (HermForm, TangentForm)):
        return a.entries
    return np.asarray(a, dtype=complex)


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
    a = a.entries if isinstance(a, TangentForm) else np.asarray(a)
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

    def sqnorm(self, coeffs: np.ndarray) -> float:
        """Squared norm of the section with the given coefficient column."""
        c = np.asarray(coeffs, dtype=complex)
        return float(np.real(np.vdot(c, self.entries @ c)))


@dataclass(frozen=True)
class TangentForm:
    """A Hermitian (not necessarily definite) direction at a form."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _check_and_symmetrize(
            np.asarray(self.entries, dtype=complex), "tangent matrix"
        )
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralPair:
    """Eigenvalues (ascending) and a unitary frame of eigenvectors."""

    values: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        n = self.values.shape[0]
        if self.frame.shape != (n, n):
            raise HermitianError("frame shape does not match the eigenvalue count")
        gram = self.frame.conj().T @ self.frame
        if float(np.max(np.abs(gram - np.eye(n)))) > 1e-10:
            raise HermitianError("eigenvector frame is not unitary within 1e-10")

    def apply(self, fn) -> np.ndarray:
        """Assemble frame * diag(fn(values)) * frame^H, symmetrized."""
        core = (self.frame * fn(self.values)) @ self.frame.conj().T
        return 0.5 * (core + core.conj().T)


def eigh(a: Union[np.ndarray, HermForm, TangentForm]) -> SpectralPair:
    """Spectral decomposition of a Hermitian matrix."""
    m = _check_and_symmetrize(_as_matrix(a), "matrix")
    values, frame = np.linalg.eigh(m)
    return SpectralPair(values, frame)


def _floor_check(values: np.ndarray, what: str) -> None:
    top = float(values[-1])
    if top <= 0.0 or float(values[0]) <= EIG_FLOOR * top:
        raise PositivityError(
            f"{what}: eigenvalue {values[0]:.6e} below the relative floor "
            f"{EIG_FLOOR:.0e} * {top:.6e}"
        )


def matrix_log(a: Union[np.ndarray, HermForm]) -> TangentForm:
    """Hermitian logarithm of a positive definite form or matrix."""
    data = _hermitian_data(a, "matrix")
    if data.ndim == 1:
        if data.min() <= 0.0:
            raise PositivityError(f"matrix log of a nonpositive diagonal entry {data.min():.6e}")
        return TangentForm(np.diag(np.log(data)).astype(complex))
    pair = SpectralPair(*np.linalg.eigh(data))
    _floor_check(pair.values, "matrix log")
    return TangentForm(pair.apply(np.log))


def matrix_exp(q: Union[np.ndarray, TangentForm]) -> np.ndarray:
    """Hermitian exponential; always lands in the positive definite cone."""
    m = _as_matrix(q)
    if _offdiagonal_is_zero(m):
        return np.diag(np.exp(np.real(np.diagonal(m)))).astype(complex)
    pair = eigh(m)
    return pair.apply(np.exp)


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


def rel_entropy(a, b) -> float:
    """Normalized relative entropy (1/N) sum mu_i log mu_i of gen_eig(a, b)."""
    mu = gen_eig(a, b)
    if mu[0] <= 0.0:
        raise PositivityError(f"relative entropy of a nonpositive spectrum {mu[0]:.6e}")
    return float(np.sum(mu * np.log(mu)) / mu.size)


def geodesic(h0: HermForm, h1: HermForm, t: float) -> HermForm:
    """Symmetric-space geodesic between two forms, h0 at t=0 and h1 at t=1.

    In a basis that is h0-orthonormal and h1-diagonal with generalized
    eigenvalues e^(lam_i), the point at time t has diagonal e^(lam_i t).
    """
    if h0.dim != h1.dim:
        raise HermitianError("geodesic endpoints differ in dimension")
    w, v = scipy.linalg.eigh(h1.entries, h0.entries)
    if w[0] <= 0.0:
        raise PositivityError("geodesic endpoint spectrum is not positive")
    vinv = np.linalg.inv(v)
    core = vinv.conj().T @ (np.power(w, t)[:, None] * vinv)
    return HermForm(h0.level, core)


def _orthonormalize_adapted(h0: HermForm, basis: np.ndarray) -> np.ndarray:
    """Make an adapted basis h0-orthonormal without mixing the filtration.

    Triangular (Gram-Schmidt) normalization in the stored descending-weight
    order preserves every leading span, hence the norm the basis encodes.
    """
    if basis.shape != (h0.dim, h0.dim):
        raise HermitianError("adapted basis shape does not match the form")
    gram = basis.conj().T @ h0.entries @ basis
    gram = 0.5 * (gram + gram.conj().T)
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise PositivityError("adapted basis is numerically degenerate") from exc
    tri = scipy.linalg.solve_triangular(
        low.conj().T, np.eye(h0.dim, dtype=complex), lower=False
    )
    return basis @ tri


def geodesic_ray(h0: HermForm, direction: "NAForm", t: float) -> HermForm:
    """Geodesic ray from h0 in the direction of a non-Archimedean norm.

    The adapted basis is first made h0-orthonormal by triangular
    normalization; the returned form is the one for which
    e^(lam_i t / 2) s_i is orthonormal.  A direction with constant weights
    c just rescales h0 by e^(-c t).
    """
    weights = np.asarray(direction.weights, dtype=float)
    if weights.shape != (h0.dim,):
        raise HermitianError("direction dimension does not match the form")
    frame = _orthonormalize_adapted(
        h0, np.asarray(direction.adapted_basis, dtype=complex)
    )
    inv = np.linalg.inv(frame)
    core = inv.conj().T @ (np.exp(-weights * t)[:, None] * inv)
    return HermForm(h0.level, core)


def log_gap(h1: HermForm, h2: HermForm) -> float:
    """Hilbert-Schmidt distance of matrix logarithms (0 iff the forms agree)."""
    if h1.dim != h2.dim:
        raise HermitianError("log gap of forms with different dimensions")
    if h1.is_diagonal and h2.is_diagonal:
        diff = np.log(h1.diagonal()) - np.log(h2.diagonal())
        return float(np.linalg.norm(diff))
    q1 = matrix_log(h1).entries
    q2 = matrix_log(h2).entries
    return float(np.linalg.norm(q1 - q2))


# ---------------------------------------------------------------------------
# random generators used by the harness and the stress tests


def random_herm_pd(rng: np.random.Generator, n: int, spread: float = 1.0) -> np.ndarray:
    """Random positive definite Hermitian matrix with log-uniform-ish spectrum."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(x)[0]
    eigs = np.exp(spread * rng.standard_normal(n))
    m = (q * eigs) @ q.conj().T
    return 0.5 * (m + m.conj().T)

