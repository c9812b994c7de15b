"""Energy and entropy functionals, classical and quantized.

Classical side (radial backend): the Monge-Ampere energy E, the
normalized integral L(phi) = -log((1/V) int e^(-phi) d mu0), the log
Ricci density rho of the canonical probability measure against the
normalized Monge-Ampere measure, and the relative entropy S between the
two.

Quantized side at level k: the determinant energy E_k, the scale
invariant D_k = L o fubini_study - E_k, the quantized entropy
S_k(H) = (1/N_k) sum B_i log B_i over the generalized eigenvalues B_i
of (b_k(H), H), the pairing of its Legendre-type variational form, and
the free energy F^NA of a non-Archimedean norm.  All exponential sums go
through log-sum-exp so geodesic rays at large time stay finite.

Integrals against mu0 read the models' cached log weights.  L, S and S_k
from balancing norms are defined here only; flows and ray slopes call them.
L has one formula, log V - log Z with Z = int e^(-phi) mu0, for node
values and radial profiles alike; its log Z comes from a log-sum-exp
here or from the balancing's node pass.  The free energy of a norm's
weights has one formula too, which the conjugate pairing reuses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .geometry import (
    PolarizedModel,
    PotentialField,
    ProjectiveLineModel,
    logsumexp,
    radial_canonical_measure,
)
from .hermforms import HermForm, gen_eig
from .maps import _log_mu0, balancing, fubini_study

if TYPE_CHECKING:
    from .nanorms import NAForm

class FunctionalError(ValueError):
    """Invalid input to an energy functional."""


# ---------------------------------------------------------------------------
# classical functionals (radial backend)


def ma_energy(phi: PotentialField) -> float:
    """Monge-Ampere energy, the primitive of phi -> (1/V) int . omega_phi^n.

    On the line this is (1/(2V)) (int phi omega_0 + int phi omega_phi).
    Shifts act affinely, E(phi + c) = E(phi) + c.
    """
    model = phi.model
    model.require_radial()
    psi = phi.require_profile()
    lap = model.admissible_laplacian(psi)
    w = model.radial_weights
    return float(np.dot(w, psi) + 0.25 * np.dot(w, psi * lap))


def l_functional(phi: PotentialField) -> float:
    """L(phi) = -log((1/V) int e^(-phi) d mu0), computed in log space."""
    if phi.is_radial:
        return float(_l_values(phi.model, phi.radial_profile, radial=True))
    return float(_l_values(phi.model, phi.values, radial=False))


def _l_values(model: PolarizedModel, values: np.ndarray, radial: bool) -> np.ndarray:
    """L of potentials from their radial profiles or node values, stacked on leading axes."""
    return _l_from_log_z(model, logsumexp(_log_mu0(model, radial) - values, axis=-1))


def _l_from_log_z(model: PolarizedModel, log_z: np.ndarray) -> np.ndarray:
    """L = log V - log Z of potentials from their log normalisers log Z = log int e^(-phi) mu0.

    The radial reference weights have mass V as well, so radial profiles
    take the same formula.
    """
    return np.log(model.volume) - log_z


def log_ricci_profile(
    model: ProjectiveLineModel, psi: np.ndarray, lap: Optional[np.ndarray] = None
) -> np.ndarray:
    """log of d mu_psi / (V^(-1) omega_psi) on the radial grid.

    ``lap`` is the radial Laplacian of psi when the caller already has it.
    """
    lap = model.admissible_laplacian(psi, lap)
    logz = logsumexp(model.log_radial_mu0_weights - psi)
    return np.log(2.0) - psi - logz - np.log1p(0.5 * lap)


def entropy_classical(phi: PotentialField) -> float:
    """Relative entropy of d mu_phi against V^(-1) omega_phi^n; nonnegative."""
    model = phi.model
    model.require_radial()
    psi = phi.require_profile()
    rho = log_ricci_profile(model, psi)
    cm = radial_canonical_measure(model, psi)
    return float(np.dot(cm, rho))


# ---------------------------------------------------------------------------
# quantized functionals


def e_k(h: HermForm, h_ref: HermForm) -> float | np.ndarray:
    """Determinant energy -(1/(k N_k)) log det(h_ref^(-1) h).

    The log determinant is the sum of the forms' log-eigenvalues; two
    diagonal forms take it entrywise.  Two stacks of forms give the
    energy of each pair as an array, each as for that pair alone.
    """
    if h.level != h_ref.level or h.dim != h_ref.dim:
        raise FunctionalError("determinant energy needs forms of the same level and dimension")
    scale = h.level * h.dim
    if h.is_diagonal and h_ref.is_diagonal:
        value = -np.sum(h.logs - h_ref.logs, axis=-1) / scale
    else:
        value = -(np.sum(h.logs, axis=-1) - np.sum(h_ref.logs, axis=-1)) / scale
    return float(value) if value.ndim == 0 else value


def d_k(model: PolarizedModel, h: HermForm, h_ref: HermForm) -> float:
    """Scale-invariant energy L(fubini_study(h)) - E_k(h); critical at balance."""
    return l_functional(fubini_study(model, h)) - e_k(h, h_ref)


def balancing_norms(model: PolarizedModel, h: HermForm, balanced: Optional[HermForm] = None) -> np.ndarray:
    """Generalized eigenvalues of (b_k(h), h), ascending; they sum to N_k."""
    b = balancing(model, h) if balanced is None else balanced
    return gen_eig(b, h)


def s_k(model: PolarizedModel, h: HermForm, balanced: Optional[HermForm] = None) -> float:
    """Quantized entropy (1/N_k) sum B_i log B_i with B = gen_eig(b_k(h), h).

    The B_i sum to N_k, so the value is nonnegative and vanishes exactly
    at balanced forms.
    """
    return entropy_of_norms(balancing_norms(model, h, balanced))


def entropy_of_norms(b_norms: np.ndarray) -> float | np.ndarray:
    """(1/N) sum B_i log B_i of balancing norms B, the value of S_k.

    Norms stacked on leading axes give one value per stack entry, each as
    for its norms alone.
    """
    value = np.sum(b_norms * np.log(b_norms), axis=-1) / b_norms.shape[-1]
    return float(value) if value.ndim == 0 else value


def canonical_conjugate_weights(b_norms: np.ndarray, k: int) -> np.ndarray:
    """The weight vector lam_i = -k log B_i attaining the entropy supremum."""
    return -k * np.log(np.asarray(b_norms, dtype=float))


def conjugate_value(b_norms: np.ndarray, k: int, lam: np.ndarray) -> float:
    """Pairing -(1/N) sum (lam_i / k) B_i - log((1/N) sum e^(-lam_i / k)).

    Its second term is the free energy of the weights lam, as ``f_k_na``.
    """
    b = np.asarray(b_norms, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != b.shape:
        raise FunctionalError("trial weights and norms differ in length")
    linear = -float(np.dot(lam / k, b)) / b.size
    return linear + _free_energy(lam, k)


def f_k_na(nu: "NAForm") -> float:
    """Free energy log N_k - log sum e^(-lam_i / k) of a norm's weights.

    Adding a constant c to every weight adds c/k.
    """
    return _free_energy(np.asarray(nu.weights, dtype=float), nu.level)


def _free_energy(lam: np.ndarray, k: int) -> float:
    """log N - log sum e^(-lam_i / k) of N weights lam at level k."""
    return float(np.log(lam.size) - logsumexp(-lam / k))
