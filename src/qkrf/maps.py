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
Bergman sum a(x)^T H^-1 conj(a(x)) at each node x, with a(x) the
reference sections at x, and keeps no separate density.  The chain
Bergman sum -> potential -> twisted Gram -> eigh is one step,
``_bergman_step``, on a ``HermForm`` that may be a stack of forms:
``fubini_study`` runs its first half on one form, ``project`` its second
on one potential and ``balancing`` all of it, on one form or on the
quantized flow's stack, whose Grams come back as one stacked form.  The
step computes without checks, on tables of its level built once per
model (``_level``); the public maps then check what they computed, and
the flow folds the step's checks into one test per RK4 stage.  That sum
and the Gram contraction are the model's: ``PolarizedModel.bergman_sum``
and ``PolarizedModel.gram``.  The generic
ones contract the section table, the Bergman sum in the form's eigenframe
H = V diag(e^lam) V^* as sum_i e^(-lam_i) |(V^T a(x))_i|^2; the
projective line regroups both over the angular modes of its tensor grid.
No solve and no explicit orthonormalization is ever performed.
Rotation-invariant data rides a diagonal fast path: the reference
monomial Gram is exponentially ill scaled in k, and keeping
diagonal forms as diagonal vectors preserves full relative accuracy
elementwise where a dense spectral route would drown the small entries in
rounding.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple, Optional

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
    PositivityError,
    _held_form,
    _offdiagonal_is_zero,
    _require,
)


class QuantizationError(ValueError):
    """Numerically singular Gram or a Bergman sum that is not positive."""


class _Level(NamedTuple):
    """The tables of level k that a Bergman step reads, on the radial path or not."""

    k: int
    radial: bool
    log_nk: float
    sections_sq: Optional[np.ndarray]  # radial_section_sq(k), on the radial path only
    log_mu0: np.ndarray  # log weights of mu0 on the radial grid or at the nodes


# model -> {(k, radial): _Level}, built once per model, level and path; held
# weakly, so that the tables go with their model
_LEVELS: weakref.WeakKeyDictionary[PolarizedModel, dict] = weakref.WeakKeyDictionary()


def _level(model: PolarizedModel, k: int, radial: bool) -> _Level:
    tables = _LEVELS.setdefault(model, {})
    level = tables.get((k, radial))
    if level is None:
        level = tables[k, radial] = _Level(
            k,
            radial,
            np.log(model.nk(k)),
            model.radial_section_sq(k) if radial else None,
            model.log_radial_mu0_weights if radial else model.log_mu0_weights,
        )
    return level


class _BergmanStep(NamedTuple):
    """One balancing of forms, stacked on leading axes.

    ``potential`` holds the Fubini-Study potentials (radial profiles on
    the radial path, node values otherwise) and ``gram`` the twisted
    Grams of the reference basis as one form: on the radial path a
    diagonal form, otherwise held in its eigenframes with its matrices
    as ``entries``.
    """

    potential: np.ndarray
    gram: HermForm


# The kernels below compute without checking, so that a valid input pays
# for no check on the way.  Their callers run them under np.errstate, so
# that a failing input warns nothing, and then check the results.  A
# potential is finite exactly where its Bergman sum is positive and
# finite, as its logarithm is.


def _potential(model: PolarizedModel, level: _Level, h: HermForm) -> np.ndarray:
    """Fubini-Study potentials of a form or a stack of forms."""
    inverse = 1.0 / h.data
    if level.radial:
        total = (level.sections_sq.T @ inverse[..., None])[..., 0]
    else:
        total = model.bergman_sum(level.k, h.frame, inverse)
    return (np.log(total) - level.log_nk) / level.k


def _gram(model: PolarizedModel, level: _Level, potential: np.ndarray) -> HermForm:
    """Twisted Grams of potentials, stacked on leading axes, as one form.

    A stack with a non-finite Gram gets NaN spectra, which fail every
    check: ``eigh`` can raise LinAlgError on such input.
    """
    weights = twisted_weights(level.log_mu0, potential, level.k + 1)
    if level.radial:
        return _held_form(level.k, (level.sections_sq @ weights[..., None])[..., 0])
    gram = model.gram(level.k, weights)
    spectrum = np.linalg.eigh(gram) if np.isfinite(gram).all() else (
        np.full(gram.shape[:-1], np.nan), np.full(gram.shape, np.nan, dtype=complex)
    )
    return _held_form(level.k, *spectrum, entries=gram)


def _check_potential(potential: np.ndarray) -> None:
    _require(
        np.isfinite(potential).all(axis=-1),
        QuantizationError,
        lambda i: "Bergman sum is not strictly positive",
    )


def _check_gram(model: PolarizedModel, gram: HermForm) -> None:
    """HermitianError for a non-finite Gram, then QuantizationError for a singular one."""
    radial = gram.is_diagonal
    entries = gram.data if radial else gram.entries
    _require(
        np.isfinite(entries).all(axis=-1 if radial else (-2, -1)),
        HermitianError,
        lambda i: "form has non-finite entries",
    )

    def singular(i: tuple) -> str:
        eigs = np.sort(entries[i]) if radial else np.linalg.eigvalsh(entries[i])
        cond = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
        return (
            f"Gram matrix numerically singular at level {gram.level} "
            f"(condition estimate {cond:.3e}); the quadrature grid likely "
            f"cannot resolve N_k = {model.nk(gram.level)} sections"
        )

    low = gram.data.min(axis=-1) if radial else gram.data[..., 0]
    _require(low > 0.0, QuantizationError, singular)


def _bergman_step(model: PolarizedModel, level: _Level, h: HermForm) -> _BergmanStep:
    """The chain Bergman sum -> potential -> twisted Gram -> eigh, for one form or a stack.

    Unchecked: ``_check_step`` raises for a Bergman sum that is not
    positive and finite or a singular Gram (QuantizationError) and for a
    non-finite Gram (HermitianError), and the error's ``start`` names the
    stack index it met (None for one form).
    """
    potential = _potential(model, level, h)
    return _BergmanStep(potential, _gram(model, level, potential))


def _check_step(model: PolarizedModel, step: _BergmanStep) -> None:
    _check_potential(step.potential)
    _check_gram(model, step.gram)


def _radial_path(model: PolarizedModel, h: HermForm) -> bool:
    """Whether h takes the radial path; ModelError unless h fits the section space."""
    n = model.nk(h.level)
    if h.dim != n:
        raise ModelError(f"form dimension {h.dim} does not match N_k = {n}")
    return model.supports_radial and h.is_diagonal


def _gram_form(gram: HermForm) -> HermForm:
    """A checked Gram form, held as its diagonal when its off-diagonal part is zero.

    That is how ``HermForm`` holds such a matrix.
    """
    if gram.is_diagonal or not _offdiagonal_is_zero(gram.entries):
        return gram
    return _held_form(gram.level, np.real(np.diagonal(gram.entries)).copy())


def fubini_study(model: PolarizedModel, h: HermForm) -> PotentialField:
    """Fubini-Study potential of a form; scales as f(cH) = f(H) - log(c)/k.

    A diagonal form on a model with radial structure gives a radial profile.
    """
    radial = _radial_path(model, h)
    with np.errstate(all="ignore"):
        values = _potential(model, _level(model, h.level, radial), h)
    _check_potential(values)
    return PotentialField(model, None, values) if radial else PotentialField(model, values)


def project(phi: PotentialField, k: int) -> HermForm:
    """Gram form of the reference basis against e^(-k phi) d mu_phi.

    The Gram of a radial potential, or any Gram whose off-diagonal part
    is zero, is held as its diagonal, any other in its eigenframe.
    """
    level = _level(phi.model, k, phi.is_radial)
    with np.errstate(all="ignore"):
        gram = _gram(phi.model, level, phi.radial_profile if level.radial else phi.values)
    _check_gram(phi.model, gram)
    return _gram_form(gram)


def balancing(model: PolarizedModel, h: HermForm) -> HermForm:
    """One application of the balancing map b_k = project o fubini_study.

    The quantized flow balances its stack of forms, a form whose ``data``
    carry a leading stack axis and whose forms fit the section space, in
    one call; it gets back the whole ``_BergmanStep`` unchecked, to check
    with the rest of its stage, under its own np.errstate.  A stack takes
    the radial path exactly when it is diagonal.
    """
    if h.data.ndim > 1:
        return _bergman_step(model, _level(model, h.level, h.is_diagonal), h)
    level = _level(model, h.level, _radial_path(model, h))
    with np.errstate(all="ignore"):
        step = _bergman_step(model, level, h)
    _check_step(model, step)
    return _gram_form(step.gram)


def orthonormal_orthogonal(h: HermForm, b: HermForm) -> tuple[np.ndarray, np.ndarray]:
    """Frame that is h-orthonormal and b-orthogonal, with its b-norms.

    Returns (frame, norms): columns satisfy S^H h S = I and
    S^H b S = diag(norms), norms ascending.  The norms are the generalized
    eigenvalues of (b, h).  The frame is built from h's eigenframe
    h = V diag(e^lam) V^*, as in ``gen_eig``: with W = V diag(e^(-lam/2))
    (V = I for a diagonal h) and W^H b W = U diag(norms) U^*, S = W U.
    """
    if h.dim != b.dim:
        raise HermitianError("forms differ in dimension")
    scale = 1.0 / np.sqrt(h.data)
    whitened = b.entries if h.is_diagonal else h.frame.conj().T @ b.entries @ h.frame
    norms, rotation = np.linalg.eigh(scale[:, None] * whitened * scale)
    if norms[0] <= 0.0:
        raise PositivityError("second form is not positive on the frame")
    frame = scale[:, None] * rotation
    return (frame if h.is_diagonal else h.frame @ frame), norms
