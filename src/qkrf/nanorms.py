"""Ultrametric norms on section spaces and the entropy duality probes.

A norm is stored as an adapted basis together with descending weights;
the induced filtration assigns a section the norm e^(-lambda) of the
deepest filtration step containing it.  The module provides the
empirical jump measure of the weights, a slope estimator for the
asymptotic growth of L along the geodesic ray a norm generates, the
non-Archimedean entropy built from that slope, and the extraction of a
norm from a quantized-flow state through an orthonormal-orthogonal
frame.

Every ray quantity is evaluated in factored form: the Bergman sums
along the ray are log-sum-exp combinations of per-section amplitudes,
so no ill-conditioned matrix at large ray time is ever assembled.  Their
logs become potentials and L through the package's one Fubini-Study
potential (``maps``) and one L (``energies``).  When
each h0-orthonormal adapted section is a multiple of one monomial, as
for every norm adapted to the reference basis and every norm extracted
from a radial flow, its amplitude is rotation invariant and the ray runs
on the radial grid, all times of a slope horizon in one reduction.

A basis built here as a permutation of the reference basis or a unitary
QR factor is regular by construction and skips the condition check that
every other adapted basis takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energies import (
    _l_values,
    canonical_conjugate_weights,
    conjugate_value,
    entropy_of_norms,
    f_k_na,
)
from .flows import quantized_flow_run
from .geometry import ModelError, PolarizedModel, PotentialField, logsumexp
from .hermforms import HermForm, HermitianError, PositivityError, orthonormal_orthogonal
from .maps import _fs_potential, balancing, project

SUPPORT_TOL = 1e-12
CONDITION_LIMIT = 1e13
# byte budget of the trial stacks in ultrametric_trials
PANEL_CHUNK_BYTES = 1 << 20
# ray slope ladder: difference width, rungs, target uncertainty, horizon doublings
SLOPE_DELTA = 1.0
SLOPE_RUNGS = 4
SLOPE_TOL = 1e-3
MAX_DOUBLINGS = 4
# duality probe: the flow step at level k is DUALITY_STEP / k, and norms
# are extracted at the last EXTRACT_COUNT sampled times
DUALITY_STEP = 0.25
EXTRACT_COUNT = 3


class NANormError(ValueError):
    """Invalid ultrametric data."""


@dataclass(frozen=True, eq=False)
class NAForm:
    """Ultrametric norm: adapted basis columns s_i with weights lam_i.

    Weights are descending; the norm of a section is e^(-lam_i) for the
    smallest weight whose adapted component is nonzero.
    """

    level: int
    weights: np.ndarray
    adapted_basis: np.ndarray

    def __post_init__(self):
        _check_na(self)
        _require_regular(self.adapted_basis)

    @property
    def dim(self) -> int:
        return self.weights.size

    def shifted(self, c: float) -> "NAForm":
        return _regular_na(self.level, self.weights + float(c), self.adapted_basis)


def _check_na(nu: NAForm) -> None:
    """Check a norm's level, weights and basis shape; store them as float and complex arrays."""
    if nu.level < 1:
        raise NANormError("level must be a positive integer")
    weights = np.asarray(nu.weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0 or not np.all(np.isfinite(weights)):
        raise NANormError("weights must be a finite 1-D vector")
    if weights.size > 1 and np.any(np.diff(weights) > SUPPORT_TOL):
        raise NANormError("weights must be sorted in descending order")
    basis = np.asarray(nu.adapted_basis, dtype=complex)
    if basis.shape != (weights.size, weights.size):
        raise NANormError("adapted basis shape does not match the weights")
    object.__setattr__(nu, "weights", weights)
    object.__setattr__(nu, "adapted_basis", basis)


def _regular_na(level: int, weights: np.ndarray, basis: np.ndarray) -> NAForm:
    """A norm whose basis is regular by construction, without the condition check.

    Permuted reference bases, unitary QR factors and the basis of a norm
    already checked need no SVD; the level, weights and shape are still
    checked.
    """
    nu = object.__new__(NAForm)
    for name, value in (("level", level), ("weights", weights), ("adapted_basis", basis)):
        object.__setattr__(nu, name, value)
    _check_na(nu)
    return nu


def trivial_na(model: PolarizedModel, k: int) -> NAForm:
    return diagonal_na(model, k, np.zeros(model.nk(k)))


def diagonal_na(model: PolarizedModel, k: int, weights: Sequence[float]) -> NAForm:
    """Norm adapted to the reference basis, weights given in any order."""
    n = model.nk(k)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != (n,):
        raise NANormError(f"need {n} weights at level {k}")
    return _regular_na(k, *_diagonal_frames(lam))


def _diagonal_frames(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending weights and permuted reference bases for weights (..., N)."""
    order = np.argsort(-lam, axis=-1, kind="stable")
    basis = np.eye(lam.shape[-1], dtype=complex)[order].swapaxes(-1, -2)
    return np.take_along_axis(lam, order, axis=-1), basis


def _require_regular(bases: np.ndarray) -> None:
    """Reject adapted bases (..., N, N) past CONDITION_LIMIT, one SVD per matrix."""
    sv = np.linalg.svd(bases, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (sv[..., -1] <= 0.0) | (sv[..., 0] / sv[..., -1] > CONDITION_LIMIT)
    if np.any(singular):
        raise NANormError("adapted basis is numerically singular")


def random_na(
    rng: np.random.Generator,
    model: PolarizedModel,
    k: int,
    spread: float = 1.0,
    diagonal: bool = False,
) -> NAForm:
    """Seeded norm with unitary (or reference-diagonal) adapted basis."""
    n = model.nk(k)
    lam = np.sort(spread * rng.standard_normal(n))[::-1]
    if diagonal:
        return diagonal_na(model, k, lam)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _regular_na(k, lam, np.linalg.qr(x)[0])


def na_norm_value(nu: NAForm, coeffs: np.ndarray) -> float | np.ndarray:
    """Norm of the section with the given reference-basis coefficients.

    ``coeffs`` is one coefficient vector, whose norm is returned as a
    float, or an (N, m) matrix of coefficient columns, whose m norms are
    returned as an array from a single solve against the adapted basis.
    """
    values = _norm_values(nu.weights, nu.adapted_basis, np.asarray(coeffs, dtype=complex))
    return float(values) if values.ndim == 0 else values


def _norm_values(weights: np.ndarray, bases: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The support rule over a stack of norms, weights (..., N) and bases (..., N, N).

    ``coeffs`` holds one vector (..., N) or m columns (..., N, m) per
    norm, and the norms come back with shape (...) or (..., m).  A
    section's norm is e^(-lam_i) for the smallest weight whose adapted
    coordinate exceeds SUPPORT_TOL times its largest one.
    """
    columns = coeffs.ndim == weights.ndim + 1
    c = coeffs if columns else coeffs[..., None]
    if c.ndim != weights.ndim + 1 or c.shape[:-1] != weights.shape or c.shape[-1] == 0:
        raise NANormError(
            f"coefficients must be a vector or columns of length {weights.shape[-1]}, "
            f"got shape {coeffs.shape}"
        )
    mags = np.abs(np.linalg.solve(bases, c))
    top = mags.max(axis=-2, keepdims=True)
    if np.any(top == 0.0):
        raise NANormError("the zero section has no norm")
    support = mags > SUPPORT_TOL * top
    values = np.exp(-np.min(np.where(support, weights[..., None], np.inf), axis=-2))
    return values if columns else values[..., 0]


def ultrametric_trials(
    rng: np.random.Generator, model: PolarizedModel, k: int, trials: int
) -> np.ndarray:
    """Norms of a + b, a, b and (2 - 1.5i) a under seeded norms, one row per trial.

    Trial t takes the norm ``random_na(rng, model, k, diagonal=t % 2 == 0)``
    and then a and b, each as real and imaginary parts of N normals, in
    the order a loop over the trials would draw them.  The generator
    draws one sequential stream, so each chunk of trials takes one draw,
    and the rows and the generator's final state equal that loop's bit
    for bit.  Trials are stacked PANEL_CHUNK_BYTES at a time: one QR and
    one solve per chunk.  Their bases, permutations and unitary QR
    factors, are regular by construction and take no condition check.
    """
    n = model.nk(k)
    # a trial holds about four complex N x N arrays (its draw, the QR input,
    # the basis and its LU factor) and a few N x 4 ones
    chunk = max(1, PANEL_CHUNK_BYTES // (64 * n * (n + 4)))
    odd = np.arange(trials) % 2 == 1
    sizes = 5 * n + 2 * n * n * odd  # normals drawn per trial
    values = np.empty((trials, 4))
    for lo in range(0, trials, chunk):
        size, is_odd = sizes[lo : lo + chunk], odd[lo : lo + chunk]
        start = np.cumsum(size) - size
        draw = rng.standard_normal(int(size.sum()))
        lam = np.sort(draw[start[:, None] + np.arange(n)], axis=-1)[:, ::-1]
        weights = lam.copy()
        bases = np.empty(lam.shape + (n,), dtype=complex)
        weights[~is_odd], bases[~is_odd] = _diagonal_frames(lam[~is_odd])
        x = draw[(start[is_odd] + n)[:, None] + np.arange(2 * n * n)].reshape(-1, 2, n, n)
        bases[is_odd] = np.linalg.qr(x[:, 0] + 1j * x[:, 1])[0]
        ab = draw[(start + size - 4 * n)[:, None] + np.arange(4 * n)].reshape(-1, 4, n)
        a = ab[:, 0] + 1j * ab[:, 1]
        b = ab[:, 2] + 1j * ab[:, 3]
        values[lo : lo + chunk] = _norm_values(
            weights, bases, np.stack([a + b, a, b, (2.0 - 1.5j) * a], axis=-1)
        )
    return values


# ---------------------------------------------------------------------------
# empirical jump measure


@dataclass(frozen=True, eq=False)
class DHMeasure:
    """Uniform atomic measure on the rescaled weights lam_i / k."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if atoms.shape != masses.shape or atoms.ndim != 1:
            raise NANormError("atoms and masses must be matching 1-D vectors")
        if np.any(masses <= 0.0) or abs(masses.sum() - 1.0) > 1e-12:
            raise NANormError("masses must be positive and sum to one")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    @property
    def mean(self) -> float:
        return float(np.dot(self.atoms, self.masses))

    @property
    def second_moment(self) -> float:
        """Square root of the centered second moment."""
        centered = self.atoms - self.mean
        return float(math.sqrt(np.dot(self.masses, centered**2)))


def dh_empirical(nu: NAForm) -> DHMeasure:
    n = nu.dim
    return DHMeasure(nu.weights / nu.level, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# ray slope estimation


@dataclass(frozen=True, eq=False)
class SlopeEstimate:
    value: float
    uncertainty: float
    converged: bool
    ladder_times: np.ndarray
    ladder_slopes: np.ndarray
    extrapolants: np.ndarray


def _neville_to_zero(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Diagonal of the Neville tableau extrapolating (xs, ys) to x = 0."""
    n = xs.size
    p = list(ys.astype(float))
    out = [p[0]]
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            num = xs[i + level] * p[i] - xs[i] * p[i + 1]
            nxt.append(num / (xs[i + level] - xs[i]))
        p = nxt
        out.append(p[0])
    return np.asarray(out)


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
    tri = np.linalg.solve(low.conj().T, np.eye(h0.dim, dtype=complex))
    return basis @ tri


def _ray_log_amplitudes(
    model: PolarizedModel, nu: NAForm, h0: HermForm
) -> tuple[np.ndarray, bool]:
    """log |s_i|^2 for the h0-orthonormalized adapted basis, and whether they are radial.

    When the model has radial structure and column i of that frame F has
    exactly one nonzero entry F_(m_i, i), |s_i|^2 = |F_(m_i, i)|^2 sigma_(m_i)(r)
    is rotation invariant, and the amplitudes come as (N, radial_count)
    with True; otherwise they come at every node, (N, node_count), with False.
    """
    frame = _orthonormalize_adapted(h0, nu.adapted_basis)
    with np.errstate(divide="ignore"):
        if model.supports_radial and np.all(np.count_nonzero(frame, axis=0) == 1):
            rows = np.argmax(frame != 0.0, axis=0)
            scale = np.abs(frame[rows, np.arange(nu.dim)]) ** 2
            return np.log(scale)[:, None] + np.log(model.radial_section_sq(nu.level)[rows]), True
        amplitudes = frame.T @ model.sections(nu.level)
        # one float array, squared and logged in place, once the complex one is gone
        log_amplitudes = np.abs(amplitudes)
        del amplitudes
        np.square(log_amplitudes, out=log_amplitudes)
        return np.log(log_amplitudes, out=log_amplitudes), False


def _ray_l_values(
    model: PolarizedModel, nu: NAForm, times: np.ndarray, log_amplitudes: np.ndarray,
    radial: bool,
) -> np.ndarray:
    """L of the Fubini-Study potentials at the ray times, one stacked reduction.

    ``log_amplitudes`` and ``radial`` are those of ``_ray_log_amplitudes``.
    Each time's potential is reduced on its own slice, so its L has the
    same bits as the one-time call's.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = nu.weights[:, None] * times[:, None, None] + log_amplitudes
        values = _fs_potential(logsumexp(exponents, axis=-2), nu.dim, nu.level)
    if not np.all(np.isfinite(values)):
        raise ModelError("the ray's potential is not finite")
    return _l_values(model, values, radial)


def ray_l_value(model: PolarizedModel, nu: NAForm, h0: HermForm, t: float) -> float:
    """L of the Fubini-Study potential at ray time t, fully in log space."""
    log_amplitudes, radial = _ray_log_amplitudes(model, nu, h0)
    return float(_ray_l_values(model, nu, np.array([float(t)]), log_amplitudes, radial)[0])


def l_na_slope(
    model: PolarizedModel, nu: NAForm, h0: HermForm, t_max: float = 40.0
) -> SlopeEstimate:
    """Asymptotic growth rate of L along the geodesic ray of a norm.

    Finite-difference slopes of L(f_k(H_t)) over [t - SLOPE_DELTA, t] are
    taken on a ladder of SLOPE_RUNGS times below t_max and extrapolated
    to t = infinity by Neville's scheme in 1/t.  At a fixed quadrature
    grid the slopes converge exponentially in t, so deeper tableau
    columns can amplify the residual of the lowest rung instead of
    cancelling it; the estimate is therefore the tableau diagonal entry
    with the smallest step from its predecessor, and the uncertainty is
    that step.

    The convergence rate is set by the smallest active weight gap, so a
    norm with near-degenerate weights may be far from its asymptote at
    t_max.  When the uncertainty exceeds SLOPE_TOL the horizon is
    doubled, up to MAX_DOUBLINGS times, keeping the estimate honest for
    such norms.

    A ray on the radial grid evaluates the 2 SLOPE_RUNGS times of a
    horizon as one stacked reduction; a ray at every node takes one
    reduction per time, whose arrays stay in cache.
    """
    if t_max < 10.0:
        raise NANormError("slope estimation needs t_max >= 10")
    if h0.level != nu.level or h0.dim != nu.dim:
        raise NANormError("base form level does not match the norm")
    log_amplitudes, radial = _ray_log_amplitudes(model, nu, h0)
    estimate = None
    horizon = float(t_max)
    for _ in range(MAX_DOUBLINGS + 1):
        times = horizon * (1.0 - np.arange(SLOPE_RUNGS) / (2.0 * SLOPE_RUNGS))
        ladder = np.concatenate([times, times - SLOPE_DELTA])
        parts = [ladder] if radial else np.split(ladder, ladder.size)
        values = np.concatenate(
            [_ray_l_values(model, nu, part, log_amplitudes, radial) for part in parts]
        )
        slopes = (values[:SLOPE_RUNGS] - values[SLOPE_RUNGS:]) / SLOPE_DELTA
        extrapolants = _neville_to_zero(1.0 / times, slopes)
        steps = np.abs(np.diff(extrapolants))
        best = int(np.argmin(steps)) + 1
        value = float(extrapolants[best])
        uncertainty = float(steps[best - 1])
        estimate = SlopeEstimate(
            value=value,
            uncertainty=uncertainty,
            converged=bool(uncertainty <= SLOPE_TOL),
            ladder_times=times,
            ladder_slopes=slopes,
            extrapolants=extrapolants,
        )
        if estimate.converged:
            break
        horizon *= 2.0
    return estimate


@dataclass(frozen=True)
class NAEntropy:
    value: float
    uncertainty: float
    converged: bool
    slope: float
    free_energy: float


def s_k_na(
    model: PolarizedModel,
    nu: NAForm,
    h0: HermForm,
    t_max: float = 40.0,
) -> NAEntropy:
    """Non-Archimedean entropy: ray slope of L minus the free energy.

    Translation of the weights by a constant moves both terms by c/k, so
    the value is translation invariant up to the estimator uncertainty.
    """
    estimate = l_na_slope(model, nu, h0, t_max=t_max)
    free = f_k_na(nu)
    return NAEntropy(
        value=float(estimate.value - free),
        uncertainty=estimate.uncertainty,
        converged=estimate.converged,
        slope=estimate.value,
        free_energy=free,
    )


# ---------------------------------------------------------------------------
# extraction from the quantized flow and the duality report


def extract_na_from_flow(model: PolarizedModel, h: HermForm) -> tuple[NAForm, float]:
    """Norm read off a flow state H_t, and the residual of its entropy identity.

    The adapted basis is H_t-orthonormal and b_k(H_t)-orthogonal, with
    the canonical conjugate weights -k log B_i of its b_k(H_t)-norms B_i;
    they are descending because the norms come out ascending.  The
    residual |S_k(H_t) - conjugate value at these weights| is pure algebra
    and vanishes up to rounding.
    """
    frame, norms = orthonormal_orthogonal(h, balancing(model, h))
    lam = canonical_conjugate_weights(norms, h.level)
    residual = abs(entropy_of_norms(norms) - conjugate_value(norms, h.level, lam))
    return NAForm(h.level, lam, frame), residual


def duality_gap(
    model: PolarizedModel,
    k: int,
    phi0: PotentialField,
    t_max: float = 12.0,
    panel: int = 5,
    seed: int = 0,
    slope_t_max: float = 40.0,
) -> dict:
    """Fixed-k duality probe: flow infimum of S_k against extracted norms.

    Runs the quantized flow toward its balanced limit at step
    DUALITY_STEP / k, extracts norms at the last EXTRACT_COUNT sampled
    times, and compares min S_k with -S_k^NA for the
    extracted norms and for a seeded panel (the trivial norm included).
    The one-sided inequality -S_k^NA <= min S_k holds for every tested
    norm up to the slope-estimator uncertainty.
    """
    h0 = project(phi0, k)
    trace = quantized_flow_run(model, h0, t_max=t_max, dt=DUALITY_STEP / k)
    min_s_k = float(np.min(trace.series["S_k"]))

    base = project(model.zero_potential(), k)
    extracted = []
    for t_j, h in zip(trace.times[-EXTRACT_COUNT:], trace.states[-EXTRACT_COUNT:]):
        nu_j, residual = extract_na_from_flow(model, h)
        entropy = s_k_na(model, nu_j, base, t_max=slope_t_max)
        alt = s_k_na(model, nu_j, h, t_max=slope_t_max)
        extracted.append(
            {
                "t": float(t_j),
                "identity_residual": float(residual),
                "s_na": entropy.value,
                "uncertainty": entropy.uncertainty,
                "converged": entropy.converged,
                "base_spread": float(abs(entropy.value - alt.value)),
            }
        )

    rng = np.random.default_rng(seed)
    members = [("trivial", trivial_na(model, k))]
    for i in range(max(0, panel - 1)):
        diagonal = i % 2 == 0
        members.append(
            (
                "random-diagonal" if diagonal else "random-unitary",
                random_na(rng, model, k, spread=0.8, diagonal=diagonal),
            )
        )
    panel_rows = []
    for kind, nu in members:
        entropy = s_k_na(model, nu, base, t_max=slope_t_max)
        tolerance = entropy.uncertainty + 0.05
        panel_rows.append(
            {
                "kind": kind,
                "s_na": entropy.value,
                "minus_s_na": -entropy.value,
                "uncertainty": entropy.uncertainty,
                "converged": entropy.converged,
                "one_sided_ok": bool(-entropy.value <= min_s_k + tolerance),
            }
        )

    return {
        "k": int(k),
        "min_s_k": min_s_k,
        "extracted": extracted,
        "panel": panel_rows,
        "panel_max_minus_s_na": float(max(row["minus_s_na"] for row in panel_rows)),
        "one_sided_all": bool(all(row["one_sided_ok"] for row in panel_rows)),
    }
