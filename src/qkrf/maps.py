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
reference sections at x, and keeps no separate density.  That sum and the
Gram contraction are the model's:
``PolarizedModel.bergman_sum`` and ``PolarizedModel.gram``.  The generic
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

import numpy as np

from .geometry import (
    ModelError,
    PolarizedModel,
    PotentialField,
    twisted_weights,
)
from .hermforms import HermForm, HermitianError, PositivityError, _eigen_form


class QuantizationError(ValueError):
    """Numerically singular Gram or a Bergman sum that is not positive."""


def fubini_study(model: PolarizedModel, h: HermForm) -> PotentialField:
    """Fubini-Study potential of a form; scales as f(cH) = f(H) - log(c)/k.

    A diagonal form on a model with radial structure gives a radial profile.
    """
    k = h.level
    n = model.nk(k)
    if h.dim != n:
        raise ModelError(f"form dimension {h.dim} does not match N_k = {n}")
    radial = model.supports_radial and h.is_diagonal
    if radial:
        total = model.radial_section_sq(k).T @ (1.0 / h.data)
    else:
        total = model.bergman_sum(k, h.frame, 1.0 / h.data)
    if np.any(total <= 0.0) or not np.all(np.isfinite(total)):
        raise QuantizationError("Bergman sum is not strictly positive")
    values = (np.log(total) - np.log(n)) / k
    return PotentialField(model, None, values) if radial else PotentialField(model, values)


def project(phi: PotentialField, k: int) -> HermForm:
    """Gram form of the reference basis against e^(-k phi) d mu_phi."""
    model = phi.model
    n = model.nk(k)
    if phi.is_radial:
        weights = twisted_weights(model.log_radial_mu0_weights, phi.radial_profile, k + 1)
        gram = model.radial_section_sq(k) @ weights
    else:
        gram = model.gram(k, twisted_weights(model.log_mu0_weights, phi.values, k + 1))
    try:
        form = HermForm(k, gram) if gram.ndim == 1 else _eigen_form(k, gram)
    except PositivityError as exc:
        eigs = np.sort(gram) if gram.ndim == 1 else np.linalg.eigvalsh(gram)
        cond = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
        raise QuantizationError(
            f"Gram matrix numerically singular at level {k} "
            f"(condition estimate {cond:.3e}); the quadrature grid likely "
            f"cannot resolve N_k = {n} sections"
        ) from exc
    return form


def balancing(model: PolarizedModel, h: HermForm) -> HermForm:
    """One application of the balancing map b_k = project o fubini_study."""
    return project(fubini_study(model, h), h.level)


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
