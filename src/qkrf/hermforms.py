"""Positive Hermitian forms: generalized spectra, logarithms, log distances.

A form on the level-k section space is given by its matrix in the
reference basis, with the physics convention that the pairing is
antilinear in the first slot, so the squared norm of a coefficient
column c is c^H M c and an orthonormal frame S satisfies S^H M S = I.
A diagonal form is held as its real diagonal vector, checked in O(N),
and every spectral operation on diagonal forms is elementwise.  A dense
form is held in its eigenframe, H = V diag(e^lam) V^*, decomposed once;
its logarithm, its generalized spectra against other matrices and its
Bergman sums all read that frame.  The matrix of either kind of form is
built only when asked for.  Matrices enter through ``HermForm`` (or
``gen_eig``), which checks and symmetrizes them, (A + A^H)/2, once.
``matrix_log`` and ``matrix_exp`` are the quantized flow's maps between
forms and Hermitian matrices Q = log H; ``matrix_exp`` builds its form
from the eigen-decomposition of Q, positive by construction, and checks
only that Q and the exponentials of its eigenvalues are finite.  The
dense Gram forms of ``maps.project`` are Hermitian by construction too,
and are held without another check.  The kernels behind these maps and
behind ``gen_eig`` take stacks of matrices on leading axes, as the
quantized flow integrates several starts at once; their checks run per
matrix, and a failed one names the stack index it met.  Dense spectral
operations refuse eigenvalues below a relative floor instead of clamping
them; silent regularization would corrupt the decay-rate measurements
built on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

HERMITIAN_TOL = 1e-12
EIG_FLOOR = 1e-14
# e^lam and e^-lam are positive finite floats for |lam| below this
LOG_RANGE = float(np.log(np.finfo(float).max))


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

    A form gives its diagonal or its matrix as it is.  A 1-D input is a
    diagonal, checked in O(N); a matrix is checked in full and symmetrized.
    """
    if isinstance(a, HermForm):
        return a.data if a.is_diagonal else a.entries
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


def _require(ok: np.ndarray, error: type, message: Callable[[tuple], str]) -> None:
    """Raise ``error(message(i))`` at the first index i where ``ok`` fails.

    ``ok`` has one entry per matrix or vector of a stack (0-d for a single
    one).  The error keeps the stack index as its ``start`` attribute, None
    for a single input, so that a stacked caller can name what failed.
    """
    if np.count_nonzero(ok) < ok.size:
        index = tuple(np.argwhere(~ok)[0])
        exc = error(message(index))
        exc.start = int(index[0]) if index else None
        raise exc


def _require_positive(smallest: np.ndarray) -> None:
    """PositivityError unless the smallest eigenvalue of each form of a stack is positive."""
    _require(
        smallest > 0.0,
        PositivityError,
        lambda i: f"form is not positive definite: smallest eigenvalue {smallest[i]:.6e}",
    )


@dataclass(frozen=True)
class HermForm:
    """A positive definite Hermitian form on the level-k section space.

    ``data`` holds the eigenvalues of the form in its eigenframe
    ``frame``: H = V diag(data) V^*.  A diagonal form has no frame (the
    reference basis is its eigenframe) and ``data`` is its real diagonal,
    in basis order.  A dense form has a unitary ``frame`` and ascending
    ``data``; ``logs`` are the logarithms lam of its eigenvalues.  A
    matrix given to the constructor is checked and symmetrized; it is
    stored as its diagonal when its off-diagonal part is zero and
    decomposed once otherwise, so ``is_diagonal`` is exact and costs
    nothing.
    """

    level: int
    data: np.ndarray
    frame: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.level < 1:
            raise HermitianError("level must be a positive integer")
        matrix = _hermitian_data(self.data, "form")
        if matrix.ndim == 1:
            # LAPACK returns a diagonal matrix's eigenvalues exactly, so the
            # smallest diagonal entry is the number eigh would give (beyond
            # magnitudes of about 1e+-145 LAPACK rescales first, which can move
            # the last bit of its answer but never the sign).
            values, frame = matrix, None
            smallest = values.min()
        else:
            values, frame = np.linalg.eigh(matrix)
            smallest = values[0]
        _require_positive(smallest)
        object.__setattr__(self, "data", values)
        if frame is not None:
            object.__setattr__(self, "frame", frame)
            object.__setattr__(self, "entries", matrix)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.frame is None

    @cached_property
    def logs(self) -> np.ndarray:
        """Logarithms of the eigenvalues ``data``."""
        return np.log(self.data)

    @cached_property
    def entries(self) -> np.ndarray:
        """The complex matrix of the form; built on first use unless it was given."""
        if self.frame is None:
            return np.diag(self.data).astype(complex)
        m = (self.frame * self.data) @ self.frame.conj().T
        return 0.5 * (m + m.conj().T)

    def diagonal(self) -> np.ndarray:
        if self.is_diagonal:
            return self.data.copy()
        return np.real(np.diagonal(self.entries)).copy()

    def scaled(self, c: float) -> "HermForm":
        if c <= 0.0:
            raise PositivityError("scaling factor must be positive")
        return HermForm(self.level, c * (self.data if self.is_diagonal else self.entries))


def _floor_check(values: np.ndarray, what: str) -> None:
    """PositivityError unless each spectrum of a stack clears the relative floor."""
    low, top = values.min(axis=-1), values.max(axis=-1)
    _require(
        (top > 0.0) & (low > EIG_FLOOR * top),
        PositivityError,
        lambda i: f"{what}: eigenvalue {low[i]:.6e} below the relative floor "
        f"{EIG_FLOOR:.0e} * {top[i]:.6e}",
    )


def matrix_log(h: HermForm) -> np.ndarray:
    """Hermitian logarithm of a positive definite form, as a complex matrix."""
    if h.is_diagonal:
        return np.diag(h.logs).astype(complex)
    _floor_check(h.data, "matrix log")
    return _frame_log(h.frame, h.logs)


def _frame_log(frame: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """V diag(logs) V^* for frames V and logarithms of eigenvalues, stacked on leading axes.

    Unchecked: the caller has checked the eigenvalues against the relative
    floor (``_floor_check`` with "matrix log").
    """
    core = (frame * logs[..., None, :]) @ frame.conj().swapaxes(-1, -2)
    return 0.5 * (core + core.conj().swapaxes(-1, -2))


def matrix_exp(level: int, q: np.ndarray) -> HermForm:
    """The level-k form e^Q of a Hermitian matrix Q, held in the eigenframe of Q.

    Q is taken as Hermitian: the flow builds it from forms.  It must be
    finite, and so must e^lam and e^-lam for its eigenvalues lam; e^Q is
    then positive by construction and is not checked again.
    """
    values, frame = _exponent_eigh(q)
    _require_exponent_range(values)
    return _held_form(level, np.exp(values), frame, logs=values)


def _exponent_eigh(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenframes of Hermitian exponents Q, stacked on leading axes.

    Each Q must be finite, as ``eigh`` can raise LinAlgError otherwise;
    ``_require_exponent_range`` then checks the eigenvalues.
    """
    _require(
        np.isfinite(q).all(axis=(-2, -1)),
        HermitianError,
        lambda i: "matrix exponent has non-finite entries",
    )
    return np.linalg.eigh(q)


def _require_exponent_range(values: np.ndarray) -> None:
    """PositivityError unless e^lam and e^-lam are finite for each stack's eigenvalues lam.

    ``values`` are ascending, as ``eigh`` gives them; e^Q is then a positive form.
    """
    low, high = values[..., 0], values[..., -1]
    _require(
        (-LOG_RANGE < low) & (high < LOG_RANGE),
        PositivityError,
        lambda i: f"matrix exponent has eigenvalues from {low[i]:.6e} to {high[i]:.6e}, "
        f"beyond the floating range +-{LOG_RANGE:.6e} of their exponentials",
    )


def _held_form(
    level: int, data: np.ndarray, frame: Optional[np.ndarray] = None, **held
) -> HermForm:
    """A form from parts built in the package, around ``__post_init__``.

    ``data`` and ``frame`` already satisfy the form's invariants (a
    positive diagonal without a frame, or ascending positive eigenvalues
    in a unitary frame), so they are not checked again; ``held`` gives
    cached ``logs`` or ``entries`` that are known already.
    """
    form = object.__new__(HermForm)
    for name, value in (("level", level), ("data", data), ("frame", frame), *held.items()):
        object.__setattr__(form, name, value)
    return form


def _eigenframe(b, what: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Eigenvalues and eigenframe of a form or a Hermitian input (None if diagonal)."""
    if isinstance(b, HermForm):
        return b.data, b.frame
    db = _hermitian_data(b, what)
    return (db, None) if db.ndim == 1 else np.linalg.eigh(db)


def gen_eig(a, b) -> np.ndarray:
    """Generalized eigenvalues of (a, b), ascending; b must be positive.

    These are the eigenvalues of b^(-1/2) a b^(-1/2); in a basis that is
    b-orthonormal and a-orthogonal they are the squared a-norms of the
    frame vectors.  In the eigenframe b = V diag(e^lam) V^* they are the
    eigenvalues of e^(-lam/2) V^* a V e^(-lam/2).  Forms and matrices are
    both accepted.
    """
    da = _hermitian_data(a, "left matrix")
    values, frame = _eigenframe(b, "right matrix")
    if da.shape[0] != values.shape[0]:
        raise HermitianError("generalized eigenvalue inputs differ in shape")
    if da.ndim == 1 and frame is None:
        if values.min() <= 0.0:
            raise PositivityError("right matrix has a nonpositive diagonal entry")
        return np.sort(da / values)
    return _framed_gen_eig(np.diag(da).astype(complex) if da.ndim == 1 else da, values, frame)


def _framed_gen_eig(am: np.ndarray, values: np.ndarray, frame: Optional[np.ndarray]) -> np.ndarray:
    """Generalized eigenvalues of matrices am against forms given by eigenvalues and frames.

    Stacks on leading axes; a form without a frame is diagonal, with
    ``values`` its diagonal.  The forms' spectra must clear the floor.
    """
    _floor_check(values, "generalized eigenvalues")
    if frame is not None:
        am = frame.conj().swapaxes(-1, -2) @ am @ frame
    scale = 1.0 / np.sqrt(values)
    return np.linalg.eigvalsh(scale[..., :, None] * am * scale[..., None, :])


def log_gap(h1: HermForm, h2: HermForm) -> float:
    """Hilbert-Schmidt distance of matrix logarithms (0 iff the forms agree)."""
    if h1.dim != h2.dim:
        raise HermitianError("log gap of forms with different dimensions")
    if h1.is_diagonal and h2.is_diagonal:
        return float(np.linalg.norm(h1.logs - h2.logs))
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
