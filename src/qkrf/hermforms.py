"""Positive Hermitian forms: generalized spectra, logarithms, log distances.

A form on the level-k section space is given by its matrix in the
reference basis, with the physics convention that the pairing is
antilinear in the first slot, so the squared norm of a coefficient
column c is c^H M c and an orthonormal frame S satisfies S^H M S = I.
A diagonal form is held as its real diagonal vector, checked in O(N),
and every spectral operation on diagonal forms is elementwise.  A dense
form is held in its eigenframe, H = V diag(e^lam) V^*, decomposed once;
its logarithm, its generalized spectra against other forms and its
Bergman sums all read that frame.  The matrix of either kind of form is
built only when asked for.  Matrices enter only through ``HermForm``,
which checks and symmetrizes them, (A + A^H)/2, once; every operation
here takes forms.
``matrix_log`` and ``matrix_exp`` are the quantized flow's maps between
forms and Hermitian matrices Q = log H; ``matrix_exp`` builds its form
from the eigen-decomposition of Q, positive by construction, and checks
only that Q and the exponentials of its eigenvalues are finite.  The
dense Gram forms of ``maps.project`` are Hermitian by construction too,
and are held without another check.  ``HermForm`` also holds a stack of
forms of one level, as the quantized flow integrates several starts at
once: ``data`` and ``frame`` carry a leading stack axis, and ``data``
stays each form's spectrum vector.  Only the package stacks forms
(``_stack``, and ``_slice`` for one back); ``entries``, ``diagonal``,
``scaled``, ``matrix_log``, ``matrix_exp`` and ``gen_eig`` answer for
each form of a stack as for it alone, bit for bit, and a failed check
names the stack index it met as the error's ``start``.  ``gen_eig`` and
``orthonormal_orthogonal`` whiten one matrix against a form's eigenframe
in one place, ``_whitened``.  Dense spectral operations refuse
eigenvalues below a relative floor instead of clamping them; silent
regularization would corrupt the decay-rate measurements built on top
of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
EIG_FLOOR = 1e-14
# e^lam and e^-lam are positive finite floats for |lam| below this
LOG_RANGE = float(np.log(np.finfo(float).max))


class HermitianError(ValueError):
    """Input is not Hermitian within tolerance, or shapes do not match."""


class PositivityError(ValueError):
    """A spectral operation met a nonpositive or floored eigenvalue."""


def _check_and_symmetrize(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise HermitianError(f"form must be a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise HermitianError("form has non-finite entries")
    scale = float(np.max(np.abs(a)))
    resid = float(np.max(np.abs(a - a.conj().T)))
    if resid > HERMITIAN_TOL * max(scale, 1.0):
        raise HermitianError(
            f"form is not Hermitian: asymmetry {resid:.3e} at scale {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


def _offdiagonal_is_zero(a: np.ndarray) -> bool:
    return bool(np.count_nonzero(a - np.diag(np.diagonal(a))) == 0)


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


def _require_spectra(values: np.ndarray) -> None:
    """HermitianError unless each spectrum of a stack is finite, then PositivityError."""
    finite = np.isfinite(values).all(axis=-1)
    _require(finite, HermitianError, lambda i: "form has non-finite entries")
    _require_positive(values.min(axis=-1))


@dataclass(frozen=True, eq=False)
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
    nothing.  A stack of forms carries leading axes on ``data`` and ``frame``.
    """

    level: int
    data: np.ndarray
    frame: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.level < 1:
            raise HermitianError("level must be a positive integer")
        # A 1-D input is a diagonal, checked in O(N); a matrix is checked in
        # full and symmetrized, and held as its real diagonal if it is diagonal.
        values, frame = np.asarray(self.data), None
        if values.ndim != 1:
            matrix = _check_and_symmetrize(values.astype(complex, copy=False))
            if _offdiagonal_is_zero(matrix):
                values = np.real(np.diagonal(matrix)).copy()
            else:
                values, frame = np.linalg.eigh(matrix)
        elif values.size == 0:
            raise HermitianError("form must be nonempty")
        elif np.iscomplexobj(values):
            raise HermitianError("form: a diagonal must be given as a real vector")
        else:
            values = np.array(values, dtype=float)
            if not np.all(np.isfinite(values)):
                raise HermitianError("form has non-finite entries")
        # LAPACK returns a diagonal matrix's eigenvalues exactly, so the
        # smallest diagonal entry is the number eigh would give (beyond
        # magnitudes of about 1e+-145 LAPACK rescales first, which can move
        # the last bit of its answer but never the sign).
        _require_positive(values.min() if frame is None else values[0])
        object.__setattr__(self, "data", values)
        if frame is not None:
            object.__setattr__(self, "frame", frame)
            object.__setattr__(self, "entries", matrix)

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

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
            return self.data[..., None] * np.eye(self.dim, dtype=complex)
        return _frame_matrix(self.frame, self.data)

    def diagonal(self) -> np.ndarray:
        if self.is_diagonal:
            return self.data.copy()
        return np.real(np.diagonal(self.entries, axis1=-2, axis2=-1)).copy()

    def scaled(self, c: float) -> "HermForm":
        """The form cH, held in the frame of H."""
        if c <= 0.0:
            raise PositivityError("scaling factor must be positive")
        with np.errstate(over="ignore", under="ignore"):
            data = c * self.data
        _require_spectra(data)
        return _held_form(self.level, data, self.frame)


def _frame_matrix(frame: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^* for frames V and eigenvalues, stacked on leading axes.

    Unchecked: a caller that passes logarithms has checked the eigenvalues
    against the relative floor (``_floor_check`` with "matrix log").
    """
    core = (frame * values[..., None, :]) @ frame.conj().swapaxes(-1, -2)
    return 0.5 * (core + core.conj().swapaxes(-1, -2))


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
    """Hermitian logarithm of a positive definite form, or of each form of a stack."""
    if h.is_diagonal:
        return h.logs[..., None] * np.eye(h.dim, dtype=complex)
    _floor_check(h.data, "matrix log")
    return _frame_matrix(h.frame, h.logs)


def matrix_exp(level: int, q: np.ndarray) -> HermForm:
    """The level-k form e^Q of a Hermitian matrix Q, held in the eigenframe of Q.

    Q is taken as Hermitian: the flow builds it from forms.  It must be
    finite, and so must e^lam and e^-lam for its eigenvalues lam; e^Q is
    then positive by construction and is not checked again.  Exponents
    stacked on leading axes give a stack of forms, each decomposed on its
    own; a failed check names the stack index it met.
    """
    _require(
        np.isfinite(q).all(axis=(-2, -1)),
        HermitianError,
        lambda i: "matrix exponent has non-finite entries",
    )
    values, frame = np.linalg.eigh(q)
    low, high = values[..., 0], values[..., -1]
    _require(
        (-LOG_RANGE < low) & (high < LOG_RANGE),
        PositivityError,
        lambda i: f"matrix exponent has eigenvalues from {low[i]:.6e} to {high[i]:.6e}, "
        f"beyond the floating range +-{LOG_RANGE:.6e} of their exponentials",
    )
    return _held_form(level, np.exp(values), frame, logs=values)


def _held_form(level: int, data: np.ndarray, frame=None, logs=None, entries=None) -> HermForm:
    """A form from parts built in the package, around ``__post_init__``.

    ``data`` and ``frame`` already satisfy the form's invariants (a
    positive diagonal without a frame, or ascending positive eigenvalues
    in a unitary frame), so they are not checked again; they may carry
    leading stack axes.  ``logs`` and ``entries``, when known already,
    are cached on the form; otherwise they stay out of its ``vars``.
    """
    form = object.__new__(HermForm)
    held = form.__dict__
    held["level"], held["data"], held["frame"] = level, data, frame
    if logs is not None:
        held["logs"] = logs
    if entries is not None:
        held["entries"] = entries
    return form


def _stack(forms: Sequence[HermForm], dense: bool) -> HermForm:
    """Diagonal forms, or with ``dense`` any forms of one level, as one stack with their logs.

    A dense stack holds a diagonal form in the identity frame, which contracts it exactly.
    """
    data = np.stack([h.data for h in forms])
    logs = np.stack([h.logs for h in forms])
    if not dense:
        return _held_form(forms[0].level, data, logs=logs)
    eye = np.eye(forms[0].dim, dtype=complex)
    frame = np.stack([eye if h.frame is None else h.frame for h in forms])
    return _held_form(forms[0].level, data, frame, logs=logs)


def _slice(form: HermForm, i: int) -> HermForm:
    """Form i of a stack, with the logarithms and matrix the stack holds already."""
    parts = (form.__dict__.get(name) for name in ("frame", "logs", "entries"))
    return _held_form(form.level, form.data[i], *(None if a is None else a[i] for a in parts))


def gen_eig(a: HermForm, b: HermForm) -> np.ndarray:
    """Generalized eigenvalues of (a, b), ascending; b must be positive.

    These are the eigenvalues of b^(-1/2) a b^(-1/2); in a basis that is
    b-orthonormal and a-orthogonal they are the squared a-norms of the
    frame vectors.  In the eigenframe b = V diag(e^lam) V^* they are the
    eigenvalues of e^(-lam/2) V^* a V e^(-lam/2).  Stacks of forms are
    accepted too; a failed check names the stack index it met.
    """
    values, frame = b.data, b.frame
    if a.dim != b.dim:
        raise HermitianError("generalized eigenvalue inputs differ in shape")
    if a.is_diagonal and frame is None:
        _require(
            values.min(axis=-1) > 0.0,
            PositivityError,
            lambda i: "right matrix has a nonpositive diagonal entry",
        )
        return np.sort(a.data / values)
    _floor_check(values, "generalized eigenvalues")
    # a diagonal a is not asked for its entries, which would be cached on it
    am = a.data[..., None] * np.eye(a.dim, dtype=complex) if a.is_diagonal else a.entries
    return np.linalg.eigvalsh(_whitened(am, values, frame)[0])


def _whitened(a: np.ndarray, values: np.ndarray, frame: Optional[np.ndarray]) -> tuple:
    """e^(-lam/2) V^* a V e^(-lam/2) and the scales e^(-lam/2), against b = V diag(e^lam) V^*.

    ``values`` are b's eigenvalues e^lam and ``frame`` is V, None for a
    diagonal b; stacks are whitened each on its own.
    """
    if frame is not None:
        a = frame.conj().swapaxes(-1, -2) @ a @ frame
    scale = 1.0 / np.sqrt(values)
    return scale[..., :, None] * a * scale[..., None, :], scale


def orthonormal_orthogonal(h: HermForm, b: HermForm) -> tuple[np.ndarray, np.ndarray]:
    """Frame that is h-orthonormal and b-orthogonal, with its b-norms.

    Returns (frame, norms): columns satisfy S^H h S = I and
    S^H b S = diag(norms), norms ascending.  The norms are the generalized
    eigenvalues of (b, h).  With W = V e^(-lam/2) from h's eigenframe
    (V = I for a diagonal h) and the whitened W^H b W = U diag(norms) U^*,
    S = W U.
    """
    if h.dim != b.dim:
        raise HermitianError("forms differ in dimension")
    whitened, scale = _whitened(b.entries, h.data, h.frame)
    norms, rotation = np.linalg.eigh(whitened)
    if norms[0] <= 0.0:
        raise PositivityError("second form is not positive on the frame")
    frame = scale[:, None] * rotation
    return (frame if h.is_diagonal else h.frame @ frame), norms


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
