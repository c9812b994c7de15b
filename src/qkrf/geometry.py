"""Polarized model backends: quadrature weights, section bases, measures.

Two backends are provided.  The projective-line backend carries the full
geometric structure of the anti-canonically polarized Riemann sphere:
a radial coordinate, spectral differentiation, the round reference
measure, and Monge-Ampere densities of radial potentials.  The discrete
backend is a finite atomic measure with prescribed section values; it has
no differential structure but supports every quantization-map operation,
which makes it useful for stress-testing the linear algebra.

Projective-line coordinates: the affine chart variable z is reduced to
u = |z|^2 / (1 + |z|^2) in (0, 1) and an angle theta.  In (u, theta) the
unit-mass Fubini-Study form is uniform, the anti-canonical reference form
has constant density 1/pi with respect to du dtheta, and the total volume
is 2.  Level-k sections are spanned by the monomials z^m, m = 0 .. 2k,
whose pointwise reference amplitudes are

    |z^m|^2_(ref) = u^m (1 - u)^(2k - m).

For a radial potential psi(u) the curvature form of the twisted metric
has density (2 + (u(1-u) psi')') / (2 pi), with the derivative taken by
barycentric spectral differentiation on the Gauss-Legendre nodes.

A model holds its quadrature as one weight per node, ``node_weights``,
with no table of node coordinates: the projective line's node i is
(u[i // A], theta[i % A]) on its A angles.  The models own the reference
measure mu0 and cache its log weights; the radial mu0 weights of the
projective line have mass V, as the 2-D ones do.  ``twisted_weights``
normalizes e^(-p phi) mu0 in log space for any potential.  Balancing,
whose potentials are Fubini-Study potentials, takes its Gram weights
from the Bergman sum instead (``maps._node_pass``).  ``logsumexp``
reduces one vector, along an axis or not, by its scalar path, with the
bits of a stacked reduction.  The projective line keeps its per-level
tables (radial sections, sections, angular modes) in one cache that
holds one level of each kind: a request for another level drops the held
table of its kind first.  Each level's radial tables are products of two
power rows, u^j and (1-u)^j with j up to 2 k_max, which the cache holds
once, so no level takes a logarithm or an exponential.  The bytes of the
tables held, with those of the table to be built, are checked against
RESOURCE_LIMIT before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

TWO_PI = 2.0 * math.pi

# The most bytes of tables one model may hold at once, one level of each
# kind, counted from the tables held.  A ray of ``nanorms`` peaks at 3.15 to
# 3.37 times its section table (tracemalloc, levels 2 and 8 on 128 to 256
# radial and angular nodes), so this keeps it below 3.4 GiB.
RESOURCE_LIMIT = 2**30


class ModelError(ValueError):
    """Unsupported level, missing capability, or resource limit."""


class KahlerConeError(ValueError):
    """A potential whose Monge-Ampere density is not strictly positive."""


# ---------------------------------------------------------------------------
# quadrature and barycentric spectral calculus


@lru_cache(maxsize=64)
def gauss_legendre_01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1), read-only.

    They depend on m alone, so each node count is computed once and every
    caller shares the same two arrays.
    """
    x, w = np.polynomial.legendre.leggauss(m)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights of the node set x, scaled to unit max magnitude.

    The products are accumulated as log magnitudes so that large node
    counts neither overflow nor underflow; barycentric formulas only use
    ratios of these weights, so the scaling is harmless.  Row i of the
    off-diagonal differences x_i - x_j holds the factors of weight i, in
    the order of j, and sums as that 1-D vector would.
    """
    x = np.asarray(x, dtype=float)
    m = x.size
    # the differences without the diagonal: drop every (m + 1)-th entry
    d = (x[:, None] - x[None, :]).ravel()[1:].reshape(m - 1, m + 1)[:, :-1].reshape(m, m - 1)
    sign = np.where(np.count_nonzero(d < 0, axis=1) % 2 == 0, 1.0, -1.0)
    logw = -np.sum(np.log(np.abs(d, out=d), out=d), axis=1)
    logw -= logw.max()
    return sign * np.exp(logw)


@lru_cache(maxsize=64)
def _legendre_barycentric_weights(m: int) -> np.ndarray:
    """Barycentric weights of the m nodes of ``gauss_legendre_01``, read-only, once per m."""
    w = barycentric_weights(gauss_legendre_01(m)[0])
    w.flags.writeable = False
    return w


def diff_matrix(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix on nodes x with barycentric weights w."""
    x = np.asarray(x, dtype=float)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    # negative-sum trick: rows annihilate constants exactly
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def barycentric_interpolate(
    x: np.ndarray, fx: np.ndarray, xq: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Evaluate the interpolant of (x, fx), with barycentric weights w, at query points xq.

    A query that falls on a node takes that node's value.  Each query's
    numerator is a dot product of its own row, a stack of (1, m) @ (m, 1)
    products, as one query at a time would take it; a single
    matrix-vector product rounds differently.
    """
    x = np.asarray(x, dtype=float)
    fx = np.asarray(fx, dtype=float)
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    d = xq[:, None] - x[None, :]
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(w, d, out=d)
        out = (t[:, None, :] @ fx[:, None])[:, 0, 0] / np.sum(t, axis=1)
    on_node = hit.any(axis=1)
    out[on_node] = fx[np.argmax(hit[on_node], axis=1)]
    return out


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True, eq=False)
class PotentialField:
    """A real potential sampled on a model's quadrature nodes.

    Exactly one representation is given: ``node_values`` at every 2-D
    node, or ``radial_profile`` on the radial grid when the field is
    rotation invariant, whose node values are then tiled on demand.  The
    given array is copied, so later writes to it do not reach the field.
    """

    model: "PolarizedModel"
    node_values: Optional[np.ndarray] = None
    radial_profile: Optional[np.ndarray] = None

    def __post_init__(self):
        radial = self.radial_profile is not None
        if radial == (self.node_values is not None):
            raise ModelError("potential needs exactly one of node values and a radial profile")
        if radial and not self.model.supports_radial:
            raise ModelError("radial profile on a backend without radial structure")
        name = "radial_profile" if radial else "node_values"
        count = self.model.radial_count if radial else self.model.node_count
        v = np.array(getattr(self, name), dtype=float)
        if v.shape != (count,):
            raise ModelError(f"potential {name} has shape {v.shape}, expected ({count},)")
        if not np.all(np.isfinite(v)):
            raise ModelError(f"potential {name} must be finite")
        object.__setattr__(self, name, v)

    @cached_property
    def values(self) -> np.ndarray:
        """Values at every 2-D quadrature node (tiled from the profile if needed)."""
        if self.node_values is not None:
            return self.node_values
        return self.model.tile_radial(self.radial_profile)

    @property
    def is_radial(self) -> bool:
        return self.radial_profile is not None

    def require_profile(self) -> np.ndarray:
        if self.radial_profile is None:
            raise ModelError("operation needs a rotation-invariant potential")
        return self.radial_profile

    def shifted(self, c: float) -> "PotentialField":
        if self.is_radial:
            return PotentialField(self.model, None, self.radial_profile + c)
        return PotentialField(self.model, self.node_values + c)

    def refined(self, factor: int) -> "PotentialField":
        """This radial potential interpolated onto a grid ``factor`` times finer in u.

        The refined model keeps k_max but takes only 8 angular nodes, so
        its node quadrature is exact only at level 1 (angular_nodes > 4 k):
        above level 1 it is valid for radial-path work alone, which is all
        that the resolution controls built on it read.
        """
        profile, model = self.require_profile(), self.model
        fine = ProjectiveLineModel(model.k_max, factor * model.radial_count, 8)
        return PotentialField(fine, None, model.interpolate_radial(profile, fine.u))


# ---------------------------------------------------------------------------
# model backends


class PolarizedModel:
    """Common interface of the quantization backends."""

    volume: float
    k_max: int
    supports_radial: bool = False

    # subclasses set these: the positive quadrature weight and the density
    # of the reference measure mu0 at each node
    node_weights: np.ndarray
    mu0_density: np.ndarray

    @property
    def node_count(self) -> int:
        return self.node_weights.shape[0]

    @cached_property
    def mu0_weights(self) -> np.ndarray:
        """Quadrature weights of the reference measure (sums to the volume)."""
        return self.node_weights * self.mu0_density

    @cached_property
    def log_mu0_weights(self) -> np.ndarray:
        return np.log(self.mu0_weights)

    @property
    def levels(self) -> range:
        return range(1, self.k_max + 1)

    def require_level(self, k: int) -> None:
        if not isinstance(k, (int, np.integer)) or k < 1 or k > self.k_max:
            raise ModelError(f"level {k} outside the supported range 1..{self.k_max}")

    def nk(self, k: int) -> int:
        raise NotImplementedError

    def sections(self, k: int) -> np.ndarray:
        """Complex amplitude matrix A with A[i, x] the i-th basis section at node x.

        The pointwise reference kernel is K_ij(x) = A[i, x] conj(A[j, x]).
        """
        raise NotImplementedError

    def bergman_sum(
        self, k: int, frame: Optional[np.ndarray], inverse: np.ndarray
    ) -> np.ndarray:
        """Bergman sum a(x)^T H^-1 conj(a(x)) of a level-k form at every node.

        The form is H = V diag(1 / inverse) V^*, with V = ``frame`` (the
        reference basis when None) and a(x) the reference sections at x.
        The sum is read as sum_i inverse_i |(V^T a(x))_i|^2, a sum of
        nonnegative terms over the section table.  Forms stacked on
        leading axes of ``inverse`` and ``frame`` give stacked sums, each
        contracted on its own.
        """
        a = self.sections(k)
        amplitudes = a if frame is None else frame.swapaxes(-1, -2) @ a
        squares = amplitudes.real**2 + amplitudes.imag**2
        return (squares.swapaxes(-1, -2) @ inverse[..., None])[..., 0]

    def gram(self, k: int, weights: np.ndarray) -> np.ndarray:
        """Gram matrix G_mn = sum_x weights(x) conj(a_m(x)) a_n(x), Hermitian.

        Weights stacked on leading axes give stacked Grams.
        """
        a = self.sections(k)
        g = (a.conj() * weights[..., None, :]) @ a.T
        return 0.5 * (g + g.conj().swapaxes(-1, -2))

    def zero_potential(self) -> PotentialField:
        if self.supports_radial:
            return PotentialField(self, None, np.zeros(self.radial_count))
        return PotentialField(self, np.zeros(self.node_count), None)

    # radial structure, overridden by the projective-line backend
    radial_count: int = 0

    def tile_radial(self, profile: np.ndarray) -> np.ndarray:
        raise ModelError("backend has no radial structure")

    def require_radial(self) -> None:
        if not self.supports_radial:
            raise ModelError("operation requires the radial (projective line) backend")


class _ModeTables(NamedTuple):
    """Per-level tables of the projective line's structured contractions."""

    products: np.ndarray  # (4k+1, radial) sigma_s(r), s = m + n
    phases: np.ndarray  # (2N, angular) cos(d theta) rows, then sin(d theta)
    bergman_src: np.ndarray
    bergman_scale: np.ndarray
    gram_src: np.ndarray
    gram_sign: np.ndarray


class ProjectiveLineModel(PolarizedModel):
    """Anti-canonically polarized projective line with the round reference metric.

    The quadrature grid is the tensor product of ``radial_nodes``
    Gauss-Legendre points in u with ``angular_nodes`` uniform angles; node
    index order is radial-major.  Angular sums annihilate the off-diagonal
    monomial cross terms exactly whenever angular_nodes exceeds the largest
    frequency present, which is why builders should keep
    angular_nodes > 4 k_max.
    """

    supports_radial = True

    def __init__(self, k_max: int, radial_nodes: int, angular_nodes: int):
        if k_max < 1:
            raise ModelError("k_max must be at least 1")
        if radial_nodes < 16:
            raise ModelError("need at least 16 radial nodes")
        if angular_nodes < 8:
            raise ModelError("need at least 8 angular nodes")
        self.k_max = int(k_max)
        self.volume = 2.0
        self.radial_count = int(radial_nodes)
        self.angular_count = int(angular_nodes)

        self.u, self.radial_weights = gauss_legendre_01(radial_nodes)
        self.theta = TWO_PI * np.arange(angular_nodes) / angular_nodes
        self._bary = _legendre_barycentric_weights(radial_nodes)

        # each radial weight times the angular weight 2 pi / A, radial-major
        self.node_weights = np.repeat(self.radial_weights * (TWO_PI / angular_nodes), angular_nodes)
        # round reference: density 1/pi with respect to du dtheta, volume 2
        self.mu0_density = np.full(self.node_count, 1.0 / math.pi)
        # each kind of table to its one held level and table
        self._tables: dict[str, tuple[int, object]] = {}

    @cached_property
    def diff(self) -> np.ndarray:
        """The spectral differentiation matrix on the radial grid, built on first use."""
        return diff_matrix(self.u, self._bary)

    def nk(self, k: int) -> int:
        self.require_level(k)
        return 2 * k + 1

    def _held_table(self, what: str, k: int):
        """The table ``what`` if it is held at level k, else None; ModelError for a bad level."""
        self.require_level(k)
        held = self._tables.get(what)
        return held[1] if held is not None and held[0] == k else None

    def _level_table(self, what: str, k: int, nbytes: int, build):
        """The level-k table ``what``, built by ``build()``; its callers ask ``_held_table`` first.

        One level of each kind is held: a request for another level drops
        the held table of its kind before the new one is built.  The bytes
        held, with the ``nbytes`` the new table will take, are checked
        against RESOURCE_LIMIT before it is built.
        """
        self._tables.pop(what, None)
        if self._held_bytes() + nbytes > RESOURCE_LIMIT:
            raise ModelError(
                f"{what} at level {k}: {nbytes} more bytes exceed the resource limit"
            )
        table = build()
        self._tables[what] = (k, table)
        return table

    def _held_bytes(self) -> int:
        """The bytes of the tables held, an array or a tuple of arrays each."""
        return sum(
            table.nbytes if isinstance(table, np.ndarray) else sum(a.nbytes for a in table)
            for _, table in self._tables.values()
        )

    @cached_property
    def radial_mu0_weights(self) -> np.ndarray:
        """Radial weights of the reference measure (sums to the volume)."""
        return 2.0 * self.radial_weights

    @cached_property
    def log_radial_mu0_weights(self) -> np.ndarray:
        return np.log(self.radial_mu0_weights)

    def _power_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """u^j and (1-u)^(2 k_max - j), j = 0 .. 2 k_max, as (radial, 2 k_max + 1) columns.

        Built once, by ``np.power``, and held and charged as a table at level k_max.
        """
        k = self.k_max
        if (held := self._held_table("power rows", k)) is not None:
            return held

        def build() -> tuple[np.ndarray, np.ndarray]:
            j = np.arange(2 * k + 1, dtype=float)
            return np.power(self.u[:, None], j), np.power((1.0 - self.u)[:, None], j[::-1])

        return self._level_table("power rows", k, 16 * (2 * k + 1) * self.radial_count, build)

    def radial_section_sq(self, k: int) -> np.ndarray:
        """Squared reference amplitudes u^m (1-u)^(2k-m) on the radial grid, (N, radial).

        Each is a product of two powers; entries at high level and extreme
        nodes may be far below unit scale but every term is nonnegative,
        so downstream positive sums lose no relative accuracy.  The table
        is held as its contiguous transpose, which the Bergman step reads.
        """
        if (held := self._held_table("radial sections", k)) is not None:
            return held.T
        u_rows, v_rows = self._power_rows()

        def build() -> np.ndarray:
            return u_rows[:, : 2 * k + 1] * v_rows[:, 2 * (self.k_max - k) :]

        nbytes = 8 * (2 * k + 1) * self.radial_count
        return self._level_table("radial sections", k, nbytes, build).T

    def sections(self, k: int) -> np.ndarray:
        if (held := self._held_table("sections", k)) is not None:
            return held
        # the radial table first, so that it is held when the section table is charged
        radial_sq = self.radial_section_sq(k)

        def build() -> np.ndarray:
            m = np.arange(2 * k + 1, dtype=float)
            radial = np.sqrt(radial_sq)
            phases = np.exp(1j * np.outer(m, self.theta))
            return (radial[:, :, None] * phases[:, None, :]).reshape(
                2 * k + 1, self.node_count
            )

        return self._level_table("sections", k, 16 * (2 * k + 1) * self.node_count, build)

    def _mode_tables(self, k: int) -> _ModeTables:
        """The level-k tables of the structured contractions, built once.

        With a_m(r, theta) = rho_m(r) e^(i m theta), every product of two
        sections is rho_m rho_n = sigma_(m+n)(r) = u^(s/2) (1-u)^(2k-s/2),
        s = m + n, times the angular mode e^(i (m-n) theta).  The pairs
        lo <= hi of section indices, with d = hi - lo and s = lo + hi,
        give the gathers that read the Bergman coefficients from H^-1 and
        write the Gram from its d >= 0 modes.
        """
        if (held := self._held_table("angular mode tables", k)) is not None:
            return held
        n, s, a = 2 * k + 1, 4 * k + 1, self.angular_count

        u_rows, v_rows = self._power_rows()

        def build() -> _ModeTables:
            # sigma_s is u^j (1-u)^(2k-j) at s = 2j, and u^j (1-u)^(2k-j-1)
            # times sqrt(u (1-u)) at s = 2j + 1
            top, products = 2 * (self.k_max - k), np.empty((s, self.radial_count))
            products[0::2] = (u_rows[:, : 2 * k + 1] * v_rows[:, top:]).T
            odd = u_rows[:, : 2 * k] * v_rows[:, top + 1 :]
            products[1::2] = (odd * np.sqrt(self.u * (1.0 - self.u))[:, None]).T
            # the angle d * theta_j reduced mod 2 pi exactly, on its index
            turns = np.outer(np.arange(n), np.arange(a)) % a
            angle = (TWO_PI / a) * turns
            phases = np.vstack([np.cos(angle), np.sin(angle)])

            lo, hi = np.triu_indices(n)
            d, total = hi - lo, lo + hi
            # Bergman coefficients, laid out (s, [re d | im d]) and scaled so
            # that B = Re sum_d w_d c_d e^(i d theta), w_0 = 1 and w_d = 2
            # otherwise, is products^T @ (coefficients @ phases)
            weight = np.where(d == 0, 1.0, 2.0)
            bergman_src = np.zeros(s * 2 * n, dtype=np.intp)
            bergman_scale = np.zeros(s * 2 * n)
            bergman_src[total * 2 * n + d] = hi * 2 * n + 2 * lo
            bergman_scale[total * 2 * n + d] = weight
            bergman_src[total * 2 * n + n + d] = hi * 2 * n + 2 * lo + 1
            bergman_scale[total * 2 * n + n + d] = -weight
            # Gram entries as (real, imaginary) float pairs in row-major
            # order, read from the (s, [cos d | sin d]) table: the upper
            # triangle from the d >= 0 modes, the lower from their conjugates
            gram_src = np.empty(2 * n * n, dtype=np.intp)
            gram_sign = np.ones(2 * n * n)
            upper, lower = lo * 2 * n + 2 * hi, hi * 2 * n + 2 * lo
            gram_src[upper] = gram_src[lower] = total * 2 * n + d
            gram_src[upper + 1] = gram_src[lower + 1] = total * 2 * n + n + d
            gram_sign[lower[d > 0] + 1] = -1.0
            return _ModeTables(
                products, phases, bergman_src, bergman_scale, gram_src, gram_sign
            )

        # float64 and intp entries, 8 bytes each
        nbytes = 8 * (s * self.radial_count + 2 * n * a + 4 * s * n + 4 * n * n)
        return self._level_table("angular mode tables", k, nbytes, build)

    def bergman_sum(
        self, k: int, frame: Optional[np.ndarray], inverse: np.ndarray
    ) -> np.ndarray:
        """Bergman sum of a level-k form through the angular modes of the grid.

        B(r, theta) = Re sum_(d >= 0) w_d c_d(r) e^(i d theta), with
        c_d(r) = sum_(m-n=d) (H^-1)_mn sigma_(m+n)(r): the same sum as the
        section contraction, regrouped, in O(N^2 M + N M A) operations
        instead of O(N^2 M A).  Forms stacked on leading axes give stacked
        sums, each contracted on its own.
        """
        t = self._mode_tables(k)
        n = 2 * k + 1
        batch = inverse.shape[:-1]
        if frame is None:
            inv_h = np.zeros(batch + (n, n), dtype=complex)
            inv_h[..., np.arange(n), np.arange(n)] = inverse
        else:
            inv_h = (frame * inverse[..., None, :]) @ frame.conj().swapaxes(-1, -2)
        flat = inv_h.view(float).reshape(batch + (-1,))
        coefficients = t.bergman_scale * flat.take(t.bergman_src, axis=-1)
        modes = coefficients.reshape(batch + (4 * k + 1, 2 * n)) @ t.phases
        return (t.products.T @ modes).reshape(batch + (-1,))

    def gram(self, k: int, weights: np.ndarray) -> np.ndarray:
        """Gram matrix through the angular modes of the grid, Hermitian by construction.

        G_mn = sum_r sigma_(m+n)(r) w_(n-m)(r), with the angular transforms
        w_d(r) = sum_theta w(r, theta) e^(i d theta) of the weights; only
        the d >= 0 entries are summed, the others are their conjugates.
        Weights stacked on leading axes give stacked Grams.
        """
        t = self._mode_tables(k)
        n = 2 * k + 1
        batch = weights.shape[:-1]
        grid = weights.reshape(batch + (self.radial_count, self.angular_count))
        table = t.products @ (grid @ t.phases.T)
        entries = t.gram_sign * table.reshape(batch + (-1,)).take(t.gram_src, axis=-1)
        return entries.view(complex).reshape(batch + (n, n))

    def tile_radial(self, profile: np.ndarray) -> np.ndarray:
        profile = np.asarray(profile, dtype=float)
        if profile.shape != (self.radial_count,):
            raise ModelError("profile length does not match the radial grid")
        return np.repeat(profile, self.angular_count)

    def radial_laplacian(self, profile: np.ndarray) -> np.ndarray:
        """The degenerate radial operator (u(1-u) psi')' on the spectral grid."""
        dpsi = self.diff @ profile
        return self.diff @ (self.u * (1.0 - self.u) * dpsi)

    def admissible_laplacian(
        self, profile: np.ndarray, lap: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The radial Laplacian of a Kahler potential's profile (``lap`` when given).

        The one Kahler-cone test: KahlerConeError unless 2 + lap, 2 pi
        times the Monge-Ampere density, is positive at every radial node.
        """
        if lap is None:
            lap = self.radial_laplacian(profile)
        margin = 2.0 + lap
        if np.any(margin <= 0.0):
            bad = int(np.argmin(margin))
            raise KahlerConeError(
                f"not a Kahler potential: density margin {margin[bad]:.3e} "
                f"at u={self.u[bad]:.6f}"
            )
        return lap

    def interpolate_radial(self, profile: np.ndarray, uq: np.ndarray) -> np.ndarray:
        return barycentric_interpolate(self.u, profile, uq, self._bary)


class DiscreteModel(PolarizedModel):
    """Finite atomic backend with prescribed section values.

    The base measure is a probability measure on ``points`` atoms and the
    nominal volume is 1, so the reference functionals normalize the same
    way as on the geometric backend.  Section values are given per level
    as complex arrays of shape (N_k, points) and must have full row rank.
    Both inputs are copied, so later writes to them do not reach the model.
    """

    supports_radial = False

    def __init__(self, section_values: dict[int, np.ndarray], base_weights: np.ndarray):
        base = np.array(base_weights, dtype=float)
        if base.ndim != 1 or base.size < 1:
            raise ModelError("base weights must be a nonempty vector")
        if np.any(base <= 0.0):
            raise ModelError("base weights must be strictly positive")
        total = float(base.sum())
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
            raise ModelError("base weights must sum to 1")
        if not section_values:
            raise ModelError("need section values for at least one level")
        levels = sorted(int(k) for k in section_values)
        if levels[0] < 1:
            raise ModelError("levels must be positive integers")
        self._values: dict[int, np.ndarray] = {}
        for k in levels:
            arr = np.array(section_values[k], dtype=complex)
            if arr.ndim != 2 or arr.shape[1] != base.size:
                raise ModelError(f"level {k}: section values must be (N_k, points)")
            if arr.shape[0] > arr.shape[1]:
                raise ModelError(f"level {k}: more sections than atoms, rank deficient")
            sv = np.linalg.svd(arr, compute_uv=False)
            if sv[-1] <= 1e-13 * sv[0]:
                raise ModelError(f"level {k}: section values are rank deficient")
            self._values[k] = arr
        self._levels = levels
        self.k_max = levels[-1]
        self.volume = 1.0
        self.node_weights = base
        self.mu0_density = np.ones(base.size)

    @property
    def levels(self) -> list[int]:
        return list(self._levels)

    def require_level(self, k: int) -> None:
        if int(k) not in self._values:
            raise ModelError(f"level {k} not among the supported levels {self._levels}")

    def nk(self, k: int) -> int:
        self.require_level(k)
        return self._values[int(k)].shape[0]

    def sections(self, k: int) -> np.ndarray:
        self.require_level(k)
        return self._values[int(k)]


def build_p1_model(
    k_max: int, radial_nodes: Optional[int] = None, angular_nodes: Optional[int] = None
) -> ProjectiveLineModel:
    """Projective-line backend with grid sizes adequate up to level k_max.

    Defaults keep Gram integrals of every level exact (radial) and keep the
    angular grid above the largest monomial cross frequency (angular).
    """
    if radial_nodes is None:
        radial_nodes = max(64, 2 * k_max + 16)
    if angular_nodes is None:
        angular_nodes = 4 * k_max + 8
    return ProjectiveLineModel(k_max, radial_nodes, angular_nodes)


# ---------------------------------------------------------------------------
# measures


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all entries when None), by max shift.

    The arithmetic is that of ``scipy.special.logsumexp``: the entries equal
    to the maximum are taken out of the shifted sum and added back as
    log1p(rest / ties) + log(ties), so results agree with it to the last
    bit, without its per-call array-API overhead on short vectors.  An
    all -inf input gives -inf, a +inf entry gives +inf, a NaN gives NaN.
    With ``axis=None`` the result is a Python float.  An input that is
    one vector along ``axis`` takes the scalar reduction, the same bits
    as its row of a stacked reduction at about a third of the cost.
    """
    a = np.asarray(a, dtype=float)
    if axis is not None and a.size != a.shape[axis]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            top = np.max(a, axis=axis, keepdims=True)
            ties = a == top
            shifted = np.exp(a - top)
            shifted[ties] = 0.0
            n = np.count_nonzero(ties, axis=axis, keepdims=True)
            rest = np.sum(shifted, axis=axis, keepdims=True) / n
            out = np.log1p(rest) + np.log(n) + top
            bad = ~np.isfinite(out)
            if bad.any():
                out[bad] = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))[bad]
        return np.squeeze(out, axis=axis)
    top = a.max()
    if math.isfinite(top):
        shifted = np.exp(a - top)
        ties = a == top
        shifted[ties] = 0.0
        n = np.count_nonzero(ties)
        value = np.log1p(shifted.sum() / n) + np.log(n) + top
    else:
        with np.errstate(divide="ignore", over="ignore"):
            value = np.log(np.sum(np.exp(a)))
    return float(value) if axis is None else value.reshape((1,) * (a.ndim - 1))


def twisted_weights(log_mu0: np.ndarray, values: np.ndarray, power: int = 1) -> np.ndarray:
    """Weights of e^(-power phi) mu0 / Z, Z = int e^(-phi) mu0, from log mu0 and phi's values.

    Normalized in log space, so large potential swings (geodesic rays at
    large time) do not overflow.  At power 1 they sum to 1 up to rounding.
    Potentials stacked on leading axes of ``values`` are normalized each
    on its own.
    """
    log_z = logsumexp(log_mu0 - values, axis=-1)[..., None]
    return np.exp(log_mu0 - power * values - log_z)


def canonical_measure(phi: PotentialField) -> np.ndarray:
    """Quadrature weights of the probability measure e^(-phi) mu0 / Z."""
    return twisted_weights(phi.model.log_mu0_weights, phi.values)


def radial_canonical_measure(model: ProjectiveLineModel, profile: np.ndarray) -> np.ndarray:
    """Radial reduction of ``canonical_measure`` for rotation-invariant data."""
    return twisted_weights(model.log_radial_mu0_weights, profile)


def ma_density(phi: PotentialField) -> np.ndarray:
    """Monge-Ampere density of an admissible radial potential at the 2-D nodes.

    The density is taken with respect to the coordinate quadrature, so its
    integral against the node weights is the model volume.  A nonpositive
    value anywhere means phi left the Kahler cone.
    """
    psi, model = phi.require_profile(), phi.model
    return model.tile_radial((2.0 + model.admissible_laplacian(psi)) / TWO_PI)
