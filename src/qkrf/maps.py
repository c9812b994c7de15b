"""Quantization maps between Hermitian forms and potentials.

The three basic maps at level k are

    fubini_study : H     -> (1/k) log( (1/N_k) sum_i |s_i|^2_ref ),
                            with s_i any H-orthonormal frame,
    project      : phi   -> Gram matrix of the reference basis against
                            e^(-k phi) d mu_phi,  where d mu_phi is the
                            probability measure e^(-phi) mu0 / Z,
    balancing    : H     -> project(fubini_study(H)),

and the Bergman approximation of a potential is fubini_study o project.
``fubini_study`` is the one Bergman map: it takes the logarithm of the
Bergman sum B(x) = a(x)^T H^-1 conj(a(x)) at each node x, with a(x) the
reference sections at x, and keeps no separate density.  The chain
Bergman sum -> Gram weights -> Gram -> eigh is one kernel,
``_BergmanKernel``, bound to a model, a level and a path, which holds
the level's tables.  Its middle link is one pass over the nodes,
``_node_pass``: at phi = (1/k) log(B / N_k) the twist is exact,
e^(-k phi) = N_k / B, so the weights e^(-(k+1) phi) mu0 / Z are the
probability e^(-phi) mu0 / Z times N_k / B.  Shifted by m = min log B,
with x = mu0 e^((m - log B) / k), they are N_k x / (B sum x), and
log Z = (log N_k - m) / k + log sum x, which ``_log_z`` reads where it
is needed; no potential is built.  Every Fubini-Study potential, of a
Bergman sum here or of a ray's log-sum-exp in ``nanorms``, is
(log B - log N_k) / k from log B by ``_fs_potential``.  The public maps
bind a kernel per call and check what it computed: ``fubini_study``
takes its Bergman sums, ``project`` its Gram on the log-space weights of
``twisted_weights`` at an arbitrary potential, and ``balancing`` the
whole step, on one form or on the quantized flow's dense stack, which
gets the step back unchecked.  The flow binds the radial kernel once
per run and calls it on the (R, N) array e^(-Q) of its states, so a
stage looks nothing up and builds no form; it folds the step's checks
into one test per RK4 stage.  ``_radial_path`` is the one test of a
form's dimension and path, which the flow takes per start.  Off the
radial path the Bergman sum and the Gram contraction are the model's:
``PolarizedModel.bergman_sum`` and ``PolarizedModel.gram``.  The generic
ones contract the section table, the Bergman sum in the form's
eigenframe H = V diag(e^lam) V^* as sum_i e^(-lam_i) |(V^T a(x))_i|^2;
the projective line regroups both over the angular modes of its tensor
grid.  No solve and no explicit orthonormalization is ever performed.
Rotation-invariant data rides a diagonal fast path: the reference
monomial Gram is exponentially ill scaled in k, and keeping diagonal
forms as diagonal vectors preserves full relative accuracy elementwise
where a dense spectral route would drown the small entries in rounding.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .geometry import (
    ModelError,
    PolarizedModel,
    PotentialField,
    twisted_weights,
)
from .hermforms import (
    HermForm,
    HermitianError,
    _held_form,
    _offdiagonal_is_zero,
    _require,
)


class QuantizationError(ValueError):
    """Numerically singular Gram or a Bergman sum that is not positive."""


@lru_cache(maxsize=None)
def _log_count(n: int) -> np.float64:
    """log N_k, once per N; ``math.log`` can differ from ``np.log`` in the last bit."""
    return np.log(n)


def _fs_potential(log_b: np.ndarray, n: int, k: int) -> np.ndarray:
    """Fubini-Study potentials (log B - log N_k) / k from log B, computed in place."""
    log_b -= _log_count(n)
    log_b /= k
    return log_b


def _node_pass(mu0: np.ndarray, total: np.ndarray, n: int, k: int) -> tuple:
    """Gram weights N x / (B sum x) of Bergman sums B, and the pair (min log B, sum x).

    x = mu0 e^((min log B - log B) / k), at most mu0; a stack of sums is
    reduced row by row, each as that sum alone.  Unchecked: a zero,
    infinite or NaN sum leaves NaN weights.
    """
    x = np.log(total)
    low = np.minimum.reduce(x, axis=-1, keepdims=True)
    np.subtract(low, x, out=x)
    x /= k
    np.exp(x, out=x)
    x *= mu0
    mass = np.add.reduce(x, axis=-1, keepdims=True)
    x *= n / mass
    x /= total
    return x, (low[..., 0], mass[..., 0])


class _BergmanKernel:
    """The Bergman step of level-k forms on one model and path, bound once.

    ``sigma_t`` is the model's contiguous (radial, N) table on the radial
    path, None off it.  A call takes inverse spectra 1 / data, stacked on
    leading axes, with eigenframes off the radial path, and returns the
    Bergman sums, the Grams (diagonals on the radial path, one form off
    it) and the node pass's pair, unchecked (``_check_step``).  Each form
    of a stack gets the bits it gets alone.
    """

    __slots__ = ("model", "k", "n", "sigma_t", "mu0")

    def __init__(self, model: PolarizedModel, k: int, radial: bool):
        self.model, self.k, self.n = model, k, model.nk(k)
        self.sigma_t = model.radial_section_sq(k).T if radial else None
        self.mu0 = model.radial_mu0_weights if radial else model.mu0_weights

    def __call__(self, inverse: np.ndarray, frame: Optional[np.ndarray] = None) -> tuple:
        total = self.sums(inverse, frame)
        weights, shift = _node_pass(self.mu0, total, self.n, self.k)
        return total, self.gram(weights), shift

    def sums(self, inverse: np.ndarray, frame: Optional[np.ndarray] = None) -> np.ndarray:
        """Bergman sums of forms from their inverse spectra and frames, stacked on leading axes."""
        if self.sigma_t is not None:
            return (self.sigma_t @ inverse[..., None])[..., 0]
        return self.model.bergman_sum(self.k, frame, inverse)

    def gram(self, weights: np.ndarray):
        """Grams of the reference basis against node weights, stacked on leading axes.

        A stack with a non-finite Gram gets NaN spectra, which fail every
        check: ``eigh`` can raise LinAlgError on such input.
        """
        if self.sigma_t is not None:
            return (weights[..., None, :] @ self.sigma_t)[..., 0, :]
        gram = self.model.gram(self.k, weights)
        values, frame = np.linalg.eigh(gram) if np.isfinite(gram).all() else (
            np.full(gram.shape[:-1], np.nan), np.full(gram.shape, np.nan, dtype=complex)
        )
        return _held_form(self.k, values, frame, entries=gram)


def _log_z(shift: tuple, n: int, k: int) -> np.ndarray:
    """log Z = log int e^(-phi) mu0 from a node pass's pair (min log B, sum x)."""
    low, mass = shift
    return (_log_count(n) - low) / k + np.log(mass)


def _log_mu0(model: PolarizedModel, radial: bool) -> np.ndarray:
    return model.log_radial_mu0_weights if radial else model.log_mu0_weights


def _check_sums(total: np.ndarray) -> None:
    _require(
        ((total > 0.0) & (total < np.inf)).all(axis=-1),
        QuantizationError,
        lambda i: "Bergman sum is not strictly positive",
    )


def _check_gram(k: int, gram) -> None:
    """HermitianError for a non-finite kernel's Gram, then QuantizationError for a singular one."""
    radial = isinstance(gram, np.ndarray)
    spectrum = gram if radial else gram.data
    values = gram if radial else gram.entries
    _require(
        np.isfinite(values).all(axis=-1 if radial else (-2, -1)),
        HermitianError,
        lambda i: "form has non-finite entries",
    )

    def singular(i: tuple) -> str:
        eigs = np.sort(values[i]) if radial else np.linalg.eigvalsh(values[i])
        cond = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
        return (
            f"Gram matrix numerically singular at level {k} "
            f"(condition estimate {cond:.3e}); the quadrature grid likely "
            f"cannot resolve N_k = {spectrum.shape[-1]} sections"
        )

    low = spectrum.min(axis=-1) if radial else spectrum[..., 0]
    _require(low > 0.0, QuantizationError, singular)


def _check_step(k: int, total: np.ndarray, gram) -> None:
    _check_sums(total)
    _check_gram(k, gram)


def _radial_path(model: PolarizedModel, h: HermForm) -> bool:
    """Whether h takes the radial path; ModelError unless h fits the section space."""
    n = model.nk(h.level)
    if h.dim != n:
        raise ModelError(f"form dimension {h.dim} does not match N_k = {n}")
    return model.supports_radial and h.is_diagonal


def _gram_form(k: int, gram) -> HermForm:
    """A kernel's checked Gram as a form, held as its diagonal when its off-diagonal part is zero."""
    if isinstance(gram, np.ndarray):
        return _held_form(k, gram)
    if _offdiagonal_is_zero(gram.entries):
        return _held_form(k, np.real(np.diagonal(gram.entries)).copy())
    return gram


def fubini_study(model: PolarizedModel, h: HermForm) -> PotentialField:
    """Fubini-Study potential of a form; scales as f(cH) = f(H) - log(c)/k.

    A diagonal form on a model with radial structure gives a radial profile.
    """
    radial = _radial_path(model, h)
    with np.errstate(all="ignore"):
        total = _BergmanKernel(model, h.level, radial).sums(1.0 / h.data, h.frame)
    _check_sums(total)
    values = _fs_potential(np.log(total), h.dim, h.level)
    return PotentialField(model, None, values) if radial else PotentialField(model, values)


def project(phi: PotentialField, k: int) -> HermForm:
    """Gram form of the reference basis against e^(-k phi) d mu_phi.

    The Gram of a radial potential, or any Gram whose off-diagonal part
    is zero, is held as its diagonal, any other in its eigenframe.
    """
    model = phi.model
    model.require_level(k)
    radial = phi.is_radial
    with np.errstate(all="ignore"):
        values = phi.radial_profile if radial else phi.values
        weights = twisted_weights(_log_mu0(model, radial), values, k + 1)
        gram = _BergmanKernel(model, k, radial).gram(weights)
    _check_gram(k, gram)
    return _gram_form(k, gram)


def balancing(model: PolarizedModel, h: HermForm):
    """One application of the balancing map b_k = project o fubini_study.

    The quantized flow balances its dense stack of forms, a form whose
    ``data`` carry a leading stack axis and whose forms fit the section
    space, in one call; it gets back the kernel's (B, Grams, pair)
    unchecked, to check with the rest of its stage, under its own
    np.errstate.
    """
    if h.data.ndim > 1:
        radial = model.supports_radial and h.is_diagonal
        return _BergmanKernel(model, h.level, radial)(1.0 / h.data, h.frame)
    radial = _radial_path(model, h)
    with np.errstate(all="ignore"):
        total, gram, _ = _BergmanKernel(model, h.level, radial)(1.0 / h.data, h.frame)
    _check_step(h.level, total, gram)
    return _gram_form(h.level, gram)
