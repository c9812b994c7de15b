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
Bergman sum -> potential and Gram weights -> Gram -> eigh is one step,
``_bergman_step``, an array kernel: it takes the inverse spectra of
level-k forms, one or stacked on leading axes, with their eigenframes
off the radial path, and returns the potentials, the Grams as one
``HermForm`` (their diagonals on the radial path, their eigenframes and
matrices off it) and log Z, looking the level's radial table up once.
Its middle link is one pass over the nodes, ``_gram_weights``: at phi =
(1/k) log(B / N_k) the twist is exact, e^(-k phi) = N_k / B, so the
weights e^(-(k+1) phi) mu0 / Z are the probability e^(-phi) mu0 / Z
times N_k / B, and the pass also yields log Z, from which the flow reads
L.  Every Fubini-Study potential, of a Bergman sum here or of a ray's
log-sum-exp in ``nanorms``, is (log B - log N_k) / k from log B by
``_fs_potential``.  The public maps wrap the kernel's links:
``fubini_study`` runs the Bergman sum on one form, ``project`` the Gram
on one arbitrary potential, with the log-space weights of
``twisted_weights``, and ``balancing`` the whole step, on one form or on
the quantized flow's dense stack, which gets the step back unchecked.
The flow's radial stage calls the kernel on the (R, N) array of its
states' diagonals directly, so no form of the states is built in a
stage.  The kernel computes without checks, on the tables of its level
that the model builds once (``radial_section_sq``, the log weights of
mu0); the public maps then check what they computed, and the flow folds
the step's checks into one test per RK4 stage.
``_radial_path`` is the one test of a form's dimension and path, which
the flow takes per start.  The Bergman sum and the Gram contraction are
the model's: ``PolarizedModel.bergman_sum`` and ``PolarizedModel.gram``.
The generic ones contract the section table, the Bergman sum in the
form's eigenframe H = V diag(e^lam) V^* as sum_i e^(-lam_i)
|(V^T a(x))_i|^2; the projective line regroups both over the angular
modes of its tensor grid.  No solve and no explicit orthonormalization
is ever performed.  Rotation-invariant data rides a
diagonal fast path: the reference monomial Gram is exponentially ill
scaled in k, and keeping diagonal forms as diagonal vectors preserves
full relative accuracy elementwise where a dense spectral route would
drown the small entries in rounding.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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


class _BergmanStep(NamedTuple):
    """One balancing of forms, stacked on leading axes.

    ``potential`` holds the Fubini-Study potentials (radial profiles on
    the radial path, node values otherwise), ``gram`` the twisted Grams
    as one form, held as computed, and ``log_z`` the log normalisers
    log Z = log int e^(-phi) mu0 of the potentials.
    """

    potential: np.ndarray
    gram: HermForm
    log_z: np.ndarray


# The kernels below compute without checking, so that a valid input pays
# for no check on the way.  Their callers run them under np.errstate, so
# that a failing input warns nothing, and then check the results.  A
# potential is finite exactly where its Bergman sum is positive and
# finite, as its logarithm is.  On the radial path they read the level's
# radial section table ``sigma`` (``radial_section_sq``), None otherwise.


def _bergman_sum(model: PolarizedModel, k: int, inverse: np.ndarray, frame, sigma) -> np.ndarray:
    """Bergman sums of level-k forms from inverse spectra and frames, stacked on leading axes."""
    if sigma is not None:
        return (sigma.T @ inverse[..., None])[..., 0]
    return model.bergman_sum(k, frame, inverse)


def _fs_potential(log_b: np.ndarray, n: int, k: int) -> np.ndarray:
    """Fubini-Study potentials (log B - log N_k) / k from log B, computed in place."""
    log_b -= _log_count(n)
    log_b /= k
    return log_b


def _gram_weights(log_mu0: np.ndarray, total: np.ndarray, n: int, k: int) -> tuple:
    """Potentials, Gram weights e^(-(k+1) phi) mu0 / Z and log Z of Bergman sums, in one node pass.

    At the Fubini-Study potential phi = (1/k) log(B / N) of a Bergman sum
    B the twist is exact, e^(-k phi) = N / B, so the weights are
    e^(-phi) mu0 / Z times N / B.  The probability e^(-phi) mu0 / Z is
    normalised by its largest term: with s = log mu0 - phi and e =
    e^(s - max s), it is e / sum e, and log Z = max s + log sum e.  A
    stack of sums is reduced row by row, each as that sum alone.
    """
    potential = _fs_potential(np.log(total), n, k)
    shifted = log_mu0 - potential
    top = shifted.max(axis=-1, keepdims=True)
    shifted -= top
    e = np.exp(shifted, out=shifted)
    mass = e.sum(axis=-1, keepdims=True)
    e *= n / mass
    e /= total
    return potential, e, (top + np.log(mass))[..., 0]


def _gram(model: PolarizedModel, k: int, weights: np.ndarray, sigma) -> HermForm:
    """Grams of the reference basis against node weights, stacked on leading axes.

    A stack with a non-finite Gram gets NaN spectra, which fail every
    check: ``eigh`` can raise LinAlgError on such input.
    """
    if sigma is not None:
        return _held_form(k, (sigma @ weights[..., None])[..., 0])
    gram = model.gram(k, weights)
    values, frame = np.linalg.eigh(gram) if np.isfinite(gram).all() else (
        np.full(gram.shape[:-1], np.nan), np.full(gram.shape, np.nan, dtype=complex)
    )
    return _held_form(k, values, frame, entries=gram)


def _log_mu0(model: PolarizedModel, radial: bool) -> np.ndarray:
    return model.log_radial_mu0_weights if radial else model.log_mu0_weights


def _check_potential(potential: np.ndarray) -> None:
    _require(
        np.isfinite(potential).all(axis=-1),
        QuantizationError,
        lambda i: "Bergman sum is not strictly positive",
    )


def _check_gram(k: int, gram: HermForm) -> None:
    """HermitianError for a non-finite Gram, then QuantizationError for a singular one."""
    spectrum, radial = gram.data, gram.is_diagonal
    values = spectrum if radial else gram.entries
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


def _bergman_step(model: PolarizedModel, k: int, inverse: np.ndarray, frame=None) -> _BergmanStep:
    """The chain Bergman sum -> potential and Gram weights -> Gram -> eigh, on arrays.

    Level-k forms, one or stacked on leading axes, are given by their
    inverse spectra 1 / data and, off the radial path, their eigenframes.
    Forms without a frame on a model with radial structure take the
    radial path, whose table is looked up once.  Unchecked:
    ``_check_step`` raises for a Bergman sum that is not positive and
    finite or a singular Gram (QuantizationError) and for a non-finite
    Gram (HermitianError), and the error's ``start`` names the stack
    index it met (None for one form).
    """
    radial = frame is None and model.supports_radial
    sigma = model.radial_section_sq(k) if radial else None
    total = _bergman_sum(model, k, inverse, frame, sigma)
    potential, weights, log_z = _gram_weights(_log_mu0(model, radial), total, inverse.shape[-1], k)
    return _BergmanStep(potential, _gram(model, k, weights, sigma), log_z)


def _check_step(k: int, step: _BergmanStep) -> None:
    _check_potential(step.potential)
    _check_gram(k, step.gram)


def _radial_path(model: PolarizedModel, h: HermForm) -> bool:
    """Whether h takes the radial path; ModelError unless h fits the section space."""
    n = model.nk(h.level)
    if h.dim != n:
        raise ModelError(f"form dimension {h.dim} does not match N_k = {n}")
    return model.supports_radial and h.is_diagonal


def _gram_form(gram: HermForm) -> HermForm:
    """A checked Gram as its form, held as its diagonal when its off-diagonal part is zero.

    That is how ``HermForm`` holds such a matrix.
    """
    if not gram.is_diagonal and _offdiagonal_is_zero(gram.entries):
        return _held_form(gram.level, np.real(np.diagonal(gram.entries)).copy())
    return gram


def fubini_study(model: PolarizedModel, h: HermForm) -> PotentialField:
    """Fubini-Study potential of a form; scales as f(cH) = f(H) - log(c)/k.

    A diagonal form on a model with radial structure gives a radial profile.
    """
    radial = _radial_path(model, h)
    sigma = model.radial_section_sq(h.level) if radial else None
    with np.errstate(all="ignore"):
        total = _bergman_sum(model, h.level, 1.0 / h.data, h.frame, sigma)
        values = _fs_potential(np.log(total), h.dim, h.level)
    _check_potential(values)
    return PotentialField(model, None, values) if radial else PotentialField(model, values)


def project(phi: PotentialField, k: int) -> HermForm:
    """Gram form of the reference basis against e^(-k phi) d mu_phi.

    The Gram of a radial potential, or any Gram whose off-diagonal part
    is zero, is held as its diagonal, any other in its eigenframe.
    """
    model = phi.model
    model.require_level(k)
    radial = phi.is_radial
    sigma = model.radial_section_sq(k) if radial else None
    with np.errstate(all="ignore"):
        values = phi.radial_profile if radial else phi.values
        weights = twisted_weights(_log_mu0(model, radial), values, k + 1)
        gram = _gram(model, k, weights, sigma)
    _check_gram(k, gram)
    return _gram_form(gram)


def balancing(model: PolarizedModel, h: HermForm) -> HermForm:
    """One application of the balancing map b_k = project o fubini_study.

    The quantized flow balances its dense stack of forms, a form whose
    ``data`` carry a leading stack axis and whose forms fit the section
    space, in one call; it gets back the ``_BergmanStep`` unchecked, to
    check with the rest of its stage, under its own np.errstate.
    """
    if h.data.ndim > 1:
        return _bergman_step(model, h.level, 1.0 / h.data, h.frame)
    _radial_path(model, h)
    with np.errstate(all="ignore"):
        step = _bergman_step(model, h.level, 1.0 / h.data, h.frame)
    _check_step(h.level, step)
    return _gram_form(step.gram)
