"""Time evolution engines and their convergence reports.

Three evolutions share the FlowTrace record: the quantized flow, the
matrix ODE dQ/dt = k (log b_k(H) - Q) on Q = log H taken in the fixed
reference basis and integrated with RK4; the Bergman iteration
H -> b_k(H), which is that ODE's Euler step of size 1/k; and the
classical radial flow d psi/dt = -rho(psi) on the projective line, where
rho is the log density of the canonical measure against the normalized
volume form.

The report functions at the bottom measure how the discrete evolutions
track their continuum limits: Bergman iterates against the integrated
ODE, the quantized potentials f_k(H_t) against the classical flow, the
entropy-as-slope identity, and the asymptotic entropy monotonicity
bound.  Rates are fitted as log error against log k.

Forms produced along radial runs stay exactly diagonal, so every
spectral operation rides the elementwise paths and the iteration is
immune to the severe ill-scaling of the monomial Gram matrices at
large k.

``quantized_flow_runs`` integrates several starts of one level as one
stack: each RK4 stage forms e^Q of all of them, balances them with one
Bergman step and takes the logarithm of all the Grams at once.  On the
radial path the stage runs on the (R, N) array of the diagonals of Q:
e^Q elementwise, ``maps._bergman_step`` on its inverse (the Bergman sum,
the node pass ``maps._gram_weights`` and the Gram), k (log g - Q) and
one finiteness test, and builds no form.  On a dense path e^Q is a
stack of forms from ``matrix_exp``, balanced by one ``maps.balancing``,
whose Grams come back as arrays in their eigenframes.  Forms are built
only for the sampled states; each sample reads its norms with one
``gen_eig`` and its energies L, E_k, D_k, S_k and the relative entropy
as arrays over the stack, L from the log normalisers of its Bergman
step.  Every start keeps its own contractions and reductions, so a
stacked run equals its start's run alone, bit for bit;
``quantized_flow_run`` is the stack of one start.  A stage computes
without checks, apart from those of ``matrix_exp``, and then takes one
test of all of them; only a stage that fails it runs the checks one by
one, so the first failure is raised, with its start, as when each check
ran in turn.

Every run starts at t = 0 from its initial state.  ``FlowTrace.save``
writes a run's series as CSV, as a run artifact; its states stay in
memory, for the reports that read them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .energies import (
    _l_from_log_z,
    e_k,
    entropy_classical,
    entropy_of_norms,
    l_functional,
    log_ricci_profile,
    ma_energy,
)
from .geometry import (
    KahlerConeError,
    ModelError,
    PolarizedModel,
    PotentialField,
    ProjectiveLineModel,
    radial_canonical_measure,
)
from .hermforms import (
    EIG_FLOOR,
    HermForm,
    HermitianError,
    PositivityError,
    _floor_check,
    _frame_matrix,
    _held_form,
    _require_spectra,
    _slice,
    _stack,
    gen_eig,
    log_gap,
    matrix_exp,
    matrix_log,
)
from .maps import (
    QuantizationError,
    _bergman_step,
    _check_step,
    _held_gram,
    _radial_path,
    balancing,
    fubini_study,
    project,
)

TIME_TOL = 1e-9
# classical solver: local tolerance, first trial step, extrapolation substeps
CLASSICAL_TOL = 1e-12
CLASSICAL_FIRST_STEP = 1e-3
EXTRAPOLATION_STEPS = (1, 2, 3, 4, 5, 6)
# and how many later steps of the same size may reuse one step's LU factors:
# against the solver refactoring every step at tolerance 1e-14, the worst
# profile deviation over thmA-gap's default, sine 0.3 and sine -0.5 configs
# is 5.5e-11 when every step refactors, 1.8e-10 with unbounded reuse and
# 7.1e-11 with this cap
CLASSICAL_REUSE = 5
SERIES_FIELDS = ("E", "L", "S", "E_k", "D_k", "S_k")
TRACE_KINDS = ("quantized", "bergman", "classical")


class FlowError(RuntimeError):
    """Time stepping failed or a state left the admissible cone."""


def format_float(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(eq=False)
class FlowTrace:
    """Immutable record of one run: sampled times, states and functionals.

    ``states`` holds HermForms for the quantized kinds and radial
    PotentialFields for the classical kind.  ``series`` maps functional
    names to per-time arrays; extra diagnostic series besides the CSV
    columns are allowed.
    """

    kind: str
    level: Optional[int]
    times: np.ndarray
    states: list
    series: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise FlowError(f"unknown trace kind {self.kind!r}")
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise FlowError("times must be a nonempty 1-D array")
        if times.size > 1 and np.min(np.diff(times)) <= 0.0:
            raise FlowError("times must be strictly increasing")
        if len(self.states) != times.size:
            raise FlowError("states and times differ in length")
        for name, values in self.series.items():
            if len(values) != times.size:
                raise FlowError(f"series {name!r} does not match the time grid")
        self.times = times
        self.series = {k: np.asarray(v, dtype=float) for k, v in self.series.items()}

    @property
    def size(self) -> int:
        return self.times.size

    def index_at(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > TIME_TOL:
            raise FlowError(f"time {t} not sampled (closest is {self.times[idx]})")
        return idx

    def state_at(self, t: float):
        return self.states[self.index_at(t)]

    # -- persistence ------------------------------------------------------

    def save(self, prefix: str) -> tuple[str]:
        """Write the series to prefix.csv; return the written paths."""
        csv_path = f"{prefix}.csv"
        write_series_csv(csv_path, self.times, self.level, self.series)
        return (csv_path,)


def write_series_csv(path: str, times: np.ndarray, level: Optional[int], series: dict) -> None:
    """Fixed-order CSV: t,k,E,L,S,E_k,D_k,S_k with 17 significant digits."""
    k_col = int(level) if level else 0
    with open(path, "w") as fh:
        fh.write("t,k,E,L,S,E_k,D_k,S_k\n")
        for i, t in enumerate(np.asarray(times, dtype=float)):
            row = [format_float(t), str(k_col)]
            for name in SERIES_FIELDS:
                values = series.get(name)
                row.append(format_float(values[i]) if values is not None else "nan")
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# quantized flow


def whole_steps(span: float, dt: float) -> int:
    """How many steps dt > 0 make up span; 0 when span is off that step grid."""
    n = int(round(span / dt)) if dt > 0.0 else 0
    return n if n >= 1 and abs(n * dt - span) <= TIME_TOL * max(1.0, abs(span)) else 0


def level_steps(t_max: float, k: int) -> int:
    """How many whole steps 1/k fit in t_max; FlowError when not one does."""
    steps = int(math.floor(t_max * k + TIME_TOL))
    if steps < 1:
        raise FlowError(f"{t_max} is shorter than one step 1/{k} at level {k}")
    return steps


def common_grid(t_max: float, k_values: Sequence[int]) -> int:
    """lcm(k_values), whose inverse steps every level; FlowError when t_max is off that grid."""
    common = math.lcm(*k_values)
    if abs(round(t_max * common) - t_max * common) > TIME_TOL:
        raise FlowError(f"{t_max} is not a multiple of 1/lcm(k_list) = 1/{common}")
    return common


# a state that raises one of these has left the positive cone
CONE_ERRORS = (HermitianError, PositivityError, QuantizationError, KahlerConeError)
# byte budget of one stack of starts: its RK4 work arrays and sampled states
FLOW_CHUNK_BYTES = 1 << 24


def quantized_flow_run(
    model: PolarizedModel,
    h0: HermForm,
    t_max: float,
    dt: float,
    sample_every: int = 1,
    with_energies: bool = True,
) -> FlowTrace:
    """Integrate the quantized flow from h0 over [0, t_max] with RK4 at step dt.

    The run of one start of ``quantized_flow_runs``, which says what is
    sampled and how a state that leaves the positive cone ends the run.
    """
    return next(quantized_flow_runs(model, [h0], t_max, dt, sample_every, with_energies))


def quantized_flow_runs(
    model: PolarizedModel,
    starts: Sequence[HermForm],
    t_max: float,
    dt: float,
    sample_every: int = 1,
    with_energies: bool = True,
) -> Iterator[FlowTrace]:
    """Integrate the quantized flow from each start over [0, t_max] with RK4 at step dt.

    The state is Q = log H in the reference basis.  The starts share one
    level and one path (all diagonal on a radial model, or all dense),
    which is checked here; the runs are then integrated as stacks: Q is
    an (R, N, N) stack of matrices, or an (R, N) stack of diagonals, and
    each RK4 stage takes one Bergman step of all R states (with one eigh
    of Q on a dense path).  Every start's contractions run on its own
    slice, so its trace equals that of a run from it alone, bit for bit.
    A stack holds as many starts as fit FLOW_CHUNK_BYTES of work arrays
    and sampled states; the traces come in start order as each stack
    finishes, so a caller that saves each trace as it arrives holds one
    stack at a time.

    Each state reached at the end of a step (the start itself at t = 0)
    is formed and balanced once: its b_k(H) is the next step's first RK4
    stage and the sample's b_k(H), so the first stage reads b_k(h0).
    States are sampled every ``sample_every`` steps (the initial state
    included); with ``with_energies`` each sample also records L, E_k
    (against the start as the reference form), D_k, S_k and the relative
    entropy against b_k(H).  A state or stage that leaves the positive
    cone, the initial state included, ends the iteration with a
    ``FlowError`` naming the time of the last state reached, within one
    step dt of the failure, and, among several starts, the index of the
    failing start; the traces of earlier stacks have come already.
    """
    if sample_every < 1:
        raise FlowError("sample_every must be at least 1")
    if not starts:
        raise FlowError("quantized flow needs at least one start")
    k = starts[0].level
    if any(h.level != k for h in starts):
        raise FlowError("quantized flow starts must share one level")
    diagonal = _radial_path(model, starts[0])
    if any(_radial_path(model, h) != diagonal for h in starts[1:]):
        raise FlowError("quantized flow starts must share one path: all diagonal or all dense")
    n_steps = whole_steps(t_max, dt)
    if not n_steps:
        raise FlowError(f"quantized flow: span {t_max} is not a whole number of steps {dt}")
    if n_steps % sample_every != 0:
        raise FlowError("step count is not a multiple of sample_every")

    meta = {
        "method": "rk4",
        "dt": float(dt),
        "sample_dt": float(dt * sample_every),
        "diagonal_path": bool(diagonal),
        "with_energies": bool(with_energies),
    }
    samples = n_steps // sample_every + 1
    chunk = max(1, FLOW_CHUNK_BYTES // _start_bytes(model, k, diagonal, samples))
    return (
        trace
        for lo in range(0, len(starts), chunk)
        for trace in _integrate_stack(
            model, list(starts[lo : lo + chunk]), n_steps, dt, sample_every, meta,
            first=lo if len(starts) > 1 else None,
        )
    )


def _start_bytes(model: PolarizedModel, k: int, diagonal: bool, samples: int) -> int:
    """Bytes one start of a stack holds: its RK4 work arrays and sampled states.

    Measured with tracemalloc as the growth of a run's peak per start
    added to a stack (16 to 256 radial nodes, 24 to 864 atoms, N = 3 to
    7, 2 and 11 samples).  The work arrays of a stage take 40 bytes per
    node on the radial path, its Bergman sum, potential and node pass,
    and about 44 on the projective line's mode contraction; the generic
    section contraction adds the start's N complex amplitudes at each
    node, their squares and a contiguous copy for the matrix product, up
    to 48 + 48 N bytes per node.  The state Q and the RK4 rates take 76
    bytes per diagonal entry, and about 150 per dense matrix entry with
    its frames, Gram and exponentials.  A sampled state holds its
    eigenvalues and their logs, 16 N bytes, and a dense one its frame,
    16 N^2 bytes, too; with their Python objects and energies, rows of
    the stack's series tables, a sample measures 16 N plus about 330
    bytes on the radial path and 16 N (N + 1) plus about 600 on a dense
    one.  The constants below round these up, so that each measured
    start is charged 1.1 to 1.9 times what it allocated.
    """
    n = model.nk(k)
    if diagonal:
        return 40 * model.radial_count + 80 * n + samples * (16 * n + 480)
    per_node = 44 if isinstance(model, ProjectiveLineModel) else 48 + 48 * n
    return per_node * model.node_count + 200 * n * n + samples * (16 * n * (n + 1) + 640)


def _integrate_stack(
    model: PolarizedModel,
    starts: list,
    n_steps: int,
    dt: float,
    sample_every: int,
    meta: dict,
    first: Optional[int],
) -> list[FlowTrace]:
    """The trace of each start's run, integrated as one stack.

    ``meta`` is the runs' meta record, whose ``diagonal_path`` and
    ``with_energies`` entries select the path and the samples' series.
    ``first`` is the index of the stack's first start among all starts,
    named with a failing start's index; None names no index.
    """
    k = starts[0].level
    diagonal, with_energies = meta["diagonal_path"], meta["with_energies"]

    def evaluate(q: np.ndarray, held: Optional[HermForm] = None) -> tuple:
        """The states e^Q at q unless ``held``, their Bergman step and k (log b_k(H) - q).

        On the radial path the states are the (R, N) array of their
        diagonals and the step is taken on it directly; on a dense one
        they are a stack of forms, which ``balancing`` takes.  Computed
        unchecked, under the caller's np.errstate, apart from the checks
        of ``matrix_exp``; when the one test of the stage fails,
        ``require`` runs its checks one by one.
        """
        formed = held is None
        if diagonal:
            held = np.exp(q) if formed else held.data
            step = _bergman_step(model, k, 1.0 / held)
            rate = k * (np.log(step.gram.spectrum) - q)
            # One sum over the stack is finite only if every term is: e^Q, the
            # potentials (a zero in e^Q makes every Bergman sum infinite) and
            # log b_k, finite only for positive finite Grams.
            add = np.add.reduce
            ok = math.isfinite(add(held, None) + add(step.potential, None) + add(rate, None))
        else:
            if formed:
                held = matrix_exp(k, q)
            step = balancing(model, held)
            spectrum = step.gram.spectrum
            low, top = spectrum[..., 0], spectrum[..., -1]
            ok = np.isfinite(step.potential.sum(axis=-1)) & (low > EIG_FLOOR * top) & (top > 0.0)
            ok = ok.all()
        if not ok:
            require(held, formed, step)
        if not diagonal:
            rate = k * (_frame_matrix(step.gram.frame, np.log(spectrum)) - q)
        return held, step, rate

    def require(held, formed: bool, step) -> None:
        """The stage's checks in order: a diagonal e^Q formed here, the balancing, the log."""
        if formed and diagonal:
            _require_spectra(held)
        _check_step(k, step)
        if not diagonal:
            _floor_check(step.gram.spectrum, "matrix log")

    r = len(starts)
    initial = _stack(starts, dense=not diagonal)
    record = {name: [] for name in ("L", "E_k", "D_k", "S_k", "relent_ref")}
    times, states = [], [[] for _ in range(r)]
    t = 0.0
    try:
        q = initial.logs if diagonal else matrix_log(initial)
        for step in range(n_steps + 1):
            # a state that leaves the cone raises from its checks, not as a warning
            with np.errstate(all="ignore"):
                if step:
                    f2 = evaluate(q + 0.5 * dt * f1)[2]
                    f3 = evaluate(q + 0.5 * dt * f2)[2]
                    f4 = evaluate(q + dt * f3)[2]
                    q = q + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
                    t = step * dt
                held, balanced, f1 = evaluate(q, None if step else initial)
            if step % sample_every:
                continue
            # the sampled states as forms, built here on the radial path
            if diagonal:
                held = _held_form(k, held) if step else initial
            times.append(t)
            forms = [_slice(held, i) for i in range(r)] if step else starts
            for run, form in zip(states, forms):
                run.append(form)
            if not with_energies:
                continue
            # each sample's energies for the whole stack, each start's as for it alone
            norms = gen_eig(_held_gram(k, balanced.gram), held)
            l_values = _l_from_log_z(model, balanced.log_z)
            ek_values = e_k(held, initial)
            record["L"].append(l_values)
            record["E_k"].append(ek_values)
            record["D_k"].append(l_values - ek_values)
            record["S_k"].append(entropy_of_norms(norms))
            record["relent_ref"].append(-np.sum(np.log(norms), axis=-1))
    except CONE_ERRORS as exc:
        start = getattr(exc, "start", None)
        where = "" if first is None or start is None else f" (start {first + start})"
        raise FlowError(
            f"quantized flow left the positive cone near t = {t:.6f}: {exc}{where}"
        ) from exc

    # one (starts, samples) table per series, each start's row contiguous
    series = {name: np.array(values).T.copy() for name, values in record.items() if values}
    return [
        FlowTrace(
            "quantized", k, np.asarray(times), states[i],
            {name: values[i] for name, values in series.items()}, dict(meta),
        )
        for i in range(r)
    ]


def bergman_iterate(model: PolarizedModel, h0: HermForm, steps: int) -> FlowTrace:
    """Iterate the balancing map H -> b_k(H), the Euler step 1/k of the quantized flow.

    Step j sits at time j/k.  The trace holds the iterates only, no series.
    """
    if steps < 1:
        raise FlowError("need at least one iteration step")
    k = h0.level
    states = [h0]
    for _ in range(steps):
        states.append(balancing(model, states[-1]))
    times = np.arange(steps + 1) / k
    return FlowTrace("bergman", k, times, states, {}, {"steps": int(steps)})


# ---------------------------------------------------------------------------
# classical radial flow


def radial_laplacian_matrix(model: ProjectiveLineModel) -> np.ndarray:
    """The matrix D diag(u(1-u)) D of ``model.radial_laplacian``.

    It comes in Fortran order, the layout LAPACK factors in place.
    """
    scaled = (model.u * (1.0 - model.u))[:, None] * model.diff
    return (scaled.T @ model.diff.T).T


def krf_jacobian_terms(
    model: ProjectiveLineModel, psi: np.ndarray, lap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Terms (a, mu) of the Jacobian of psi -> -rho(psi), given lap = L psi.

    The Jacobian is J = diag(a) L + I - 1 mu^T, with L the radial
    Laplacian matrix, a = 1/(2 + L psi) and mu the canonical measure.
    """
    return 1.0 / (2.0 + lap), radial_canonical_measure(model, psi)


def fill_shifted_jacobian(
    out: np.ndarray,
    lap_matrix: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray],
    h: float,
) -> np.ndarray:
    """Overwrite ``out`` with I - h J for the Jacobian J given by its terms."""
    a, mu = terms
    np.multiply(lap_matrix, (-h * a)[:, None], out=out)
    out += h * mu
    out.flat[:: out.shape[0] + 1] += 1.0 - h
    return out


def _lu_routines(a: np.ndarray) -> tuple:
    """In-place LU ``factor`` and ``solve`` for matrices like ``a``, bitwise as scipy's wrappers.

    LAPACK's getrf and getrs are looked up once and called directly,
    which spares ``lu_factor`` and ``lu_solve`` their per-call lookup and
    batch dispatch (a solve at M = 128 takes a third of the time).
    ``factor(m)`` overwrites a Fortran-order m with its factors and
    returns them as (lu, piv); ``solve(factors, b)`` may overwrite b.  An
    illegal argument raises ValueError and an exactly singular m warns
    ``LinAlgWarning``, as in ``lu_factor``.
    """
    import scipy.linalg  # imported on first use, to keep scipy out of qkrf's start-up

    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (a,))

    def factor(m: np.ndarray) -> tuple:
        lu, piv, info = getrf(m, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
        if info > 0:
            warnings.warn(
                f"Diagonal number {info} is exactly zero. Singular matrix.",
                scipy.linalg.LinAlgWarning,
                stacklevel=2,
            )
        return lu, piv

    def solve(factors: tuple, b: np.ndarray) -> np.ndarray:
        x, info = getrs(*factors, b, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal gesv|posv")
        return x

    return factor, solve


def classical_krf_run(
    model: ProjectiveLineModel,
    phi0: PotentialField,
    t_max: float,
    sample_dt: float,
) -> FlowTrace:
    """Integrate d psi/dt = -rho(psi) on the radial grid, sampled every sample_dt.

    The weighted Legendre operator behind the density term has modes
    near -M^2 for M radial nodes, so the flow is stiff.  Each macro step
    H runs the linearly implicit Euler method with n = 1, ..., 6 substeps,
    each solving against I - (H/n) W, and extrapolates the six results to
    order 6 (Hairer & Wanner, Solving ODEs II, IV.9).  W is the exact
    Jacobian at the start of the step that factored the six matrices; the
    next steps of the same size H, at most CLASSICAL_REUSE of them, reuse
    those factors.  The h-expansion holds for any fixed W, so the
    extrapolation stays valid (a W-method, IV.7).  A change of H or a
    rejected step refreshes the Jacobian and the factors.  A step is
    accepted when the last two diagonal entries of the extrapolation table
    agree to CLASSICAL_TOL relative to 1 + |psi|_inf; a substep or result
    that leaves the Kahler cone rejects the step and halves it.  Steps are
    shortened to land on every sample time.  ``meta`` counts accepted
    ``steps``, ``rejected`` steps (also as ``restarts``), field
    evaluations ``nfev``, Jacobian refreshes ``jacobians`` and
    ``factorizations`` (six per refresh, fewer when a cone exit cuts the
    refresh short); ``dt`` is the mean accepted step.
    """
    if phi0.model is not model:
        raise ModelError("initial potential belongs to a different model")
    psi0 = phi0.require_profile()
    if t_max <= 0.0:
        raise FlowError("t_max must be positive")
    sample_dt = float(sample_dt)
    n_samples = whole_steps(t_max, sample_dt)
    if not n_samples:
        raise FlowError(f"classical flow: span {t_max} is not a whole number of steps {sample_dt}")
    lap_matrix = radial_laplacian_matrix(model)
    factor, solve = _lu_routines(lap_matrix)
    # one Fortran-order slot per substep count, factored in place
    slots = [np.empty_like(lap_matrix) for _ in EXTRAPOLATION_STEPS]
    factors: list = [None] * len(slots)
    stats = {"steps": 0, "rejected": 0, "nfev": 0, "jacobians": 0, "factorizations": 0}

    def field_at(psi: np.ndarray, lap: np.ndarray) -> np.ndarray:
        stats["nfev"] += 1
        return -log_ricci_profile(model, psi, lap)

    def macro_step(psi: np.ndarray, lap: np.ndarray, f0: np.ndarray, h: float, reuse: bool) -> tuple:
        """State at t + h with its error estimate, Laplacian and field.

        Unless ``reuse``, the Jacobian is taken at psi and the slots are
        refactored for h; otherwise they hold the factors of an earlier
        step of the same size.
        """
        if not reuse:
            terms = krf_jacobian_terms(model, psi, lap)
            stats["jacobians"] += 1
        row: list = []
        for j, (slot, n) in enumerate(zip(slots, EXTRAPOLATION_STEPS)):
            sub = h / n
            if not reuse:
                fill_shifted_jacobian(slot, lap_matrix, terms, sub)
                factors[j] = factor(slot)
                stats["factorizations"] += 1
            lu = factors[j]
            # Substeps carry the increment d = y - psi and its Laplacian
            # separately: the rounding of psi + d, seen through the stiff
            # Laplacian, would otherwise be amplified by the extrapolation.
            d = solve(lu, sub * f0)
            for _ in range(n - 1):
                f = field_at(psi + d, lap + model.radial_laplacian(d))
                d += solve(lu, sub * f)
            new_row = [d]
            for i in range(j):
                ratio = n / EXTRAPOLATION_STEPS[j - i - 1] - 1.0
                new_row.append(new_row[i] + (new_row[i] - row[i]) / ratio)
            row = new_row
        error = float(np.max(np.abs(row[-1] - row[-2]))) / (1.0 + float(np.max(np.abs(psi))))
        new_psi = psi + row[-1]
        new_lap = model.radial_laplacian(new_psi)
        return new_psi, error, new_lap, field_at(new_psi, new_lap)

    psi = psi0
    lap = model.radial_laplacian(psi)
    f = field_at(psi, lap)
    h = min(sample_dt, CLASSICAL_FIRST_STEP)
    held, age = math.nan, 0  # the step size the slots are factored for, steps reusing them
    times = [0.0]
    profiles = [psi0.copy()]
    for i in range(n_samples):
        left = sample_dt
        while left > 0.0:
            pieces = max(1, math.ceil(left / h - TIME_TOL))
            step = left / pieces
            cone_error = None
            reuse = step == held and age < CLASSICAL_REUSE
            age = age + 1 if reuse else 0
            try:
                new_psi, error, new_lap, new_f = macro_step(psi, lap, f, step, reuse)
            except KahlerConeError as exc:
                error, cone_error = math.inf, exc
            # the estimate is the local error of the order K - 1 column, O(H^K)
            ratio = 0.9 * (CLASSICAL_TOL / max(error, 1e-300)) ** (1 / len(EXTRAPOLATION_STEPS))
            if error <= CLASSICAL_TOL:
                stats["steps"] += 1
                psi, lap, f, held = new_psi, new_lap, new_f, step
                left = 0.0 if pieces == 1 else left - step
                h = step * min(4.0, ratio)
                continue
            stats["rejected"] += 1
            held = math.nan
            h = step * (max(0.2, ratio) if math.isfinite(error) else 0.5)
            if h < TIME_TOL * sample_dt:
                raise FlowError(
                    f"classical flow step underflow near t = {i * sample_dt:.6f}"
                    + (f": {cone_error}" if cone_error is not None else "")
                )
        times.append((i + 1) * sample_dt)
        profiles.append(psi)

    states = [PotentialField(model, None, p) for p in profiles]
    series = {
        "E": [ma_energy(s) for s in states],
        "L": [l_functional(s) for s in states],
        "S": [entropy_classical(s) for s in states],
    }
    s_values = np.asarray(series["S"])
    meta = {
        "dt": float(n_samples * sample_dt / stats["steps"]),
        "sample_dt": float(sample_dt),
        "restarts": stats["rejected"],
        "max_s_increase": float(np.max(np.diff(s_values))) if s_values.size > 1 else 0.0,
        **stats,
    }
    return FlowTrace("classical", None, np.asarray(times), states, series, meta)


# ---------------------------------------------------------------------------
# convergence reports


def fit_decay(k_values: Sequence[int], errors: Sequence[float]) -> tuple:
    """Least-squares slope of log error against log k, with a half-width.

    The half-width is the standard error of the slope estimated from the
    fit residuals; an exact power law returns a slope at round-off level.
    """
    k = np.asarray(k_values, dtype=float)
    err = np.asarray(errors, dtype=float)
    if k.size < 3:
        raise FlowError("rate fitting needs at least three points")
    if np.any(err <= 0.0) or not np.all(np.isfinite(err)):
        raise FlowError("rate fitting needs positive finite errors")
    x = np.log(k)
    y = np.log(err)
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(1, k.size - 2)
    sigma2 = float(resid @ resid) / dof
    spread = float(np.sum((x - x.mean()) ** 2))
    half_width = math.sqrt(sigma2 / spread) if spread > 0 else float("inf")
    return float(coef[0]), half_width


def euler_gap_at_level(
    model: PolarizedModel,
    phi0: PotentialField,
    t_max: float,
    k: int,
    refine: int = 4,
) -> float:
    """Largest log_gap between the Bergman iterates and the flow at level k.

    The flow from project(phi0, k) is integrated with RK4 at step
    1/(refine k) and compared with the iterates at every time j/k <= t_max.
    """
    if refine < 2:
        raise FlowError("refine must be at least 2 to separate the two evolutions")
    j_max = level_steps(t_max, k)
    h0 = project(phi0, k)
    truth = quantized_flow_run(
        model, h0, t_max=j_max / k, dt=1.0 / (refine * k),
        sample_every=refine, with_energies=False,
    )
    iterates = bergman_iterate(model, h0, steps=j_max)
    return max(log_gap(truth.states[j], iterates.states[j]) for j in range(j_max + 1))


def flow_vs_krf_gap(
    model: ProjectiveLineModel,
    phi0: PotentialField,
    t_max: float,
    k_list: Sequence[int],
    refine: int = 2,
    resolution_factor: int = 2,
) -> dict:
    """Sup-grid gap between f_k along the quantized flow and the classical flow.

    The classical potential one step ahead, psi at (j+1)/k, is compared
    with f_k(H_(j/k)); the first Bergman coefficient supplies that 1/k
    shift.  A run on a grid ``resolution_factor`` times finer reports the
    quadrature self-consistency of the classical trajectory.
    """
    k_values = sorted(set(int(k) for k in k_list))
    if not k_values or k_values[0] < 1:
        raise FlowError("k_list must contain positive levels")
    sample_dt = 1.0 / common_grid(t_max, k_values)
    # the last compared step j_max sits one step 1/k before the horizon
    j_maxes = [level_steps(t_max, k) - 1 for k in k_values]

    classical = classical_krf_run(model, phi0, t_max, sample_dt=sample_dt)

    fine_phi0 = phi0.refined(resolution_factor)
    fine = classical_krf_run(fine_phi0.model, fine_phi0, t_max, sample_dt=sample_dt)
    resolution_gap = 0.0
    for state, fine_state in zip(classical.states, fine.states):
        back = fine_phi0.model.interpolate_radial(fine_state.require_profile(), model.u)
        resolution_gap = max(
            resolution_gap, float(np.max(np.abs(back - state.require_profile())))
        )

    errors = []
    for k, j_max in zip(k_values, j_maxes):
        h0 = project(phi0, k)
        run = quantized_flow_run(
            model, h0, t_max=max(j_max, 1) / k, dt=1.0 / (refine * k),
            sample_every=refine, with_energies=False,
        )
        gaps = []
        for j in range(j_max + 1):
            target = classical.state_at((j + 1) / k).require_profile()
            quantized = fubini_study(model, run.states[j]).require_profile()
            gaps.append(float(np.max(np.abs(target - quantized))))
        errors.append(max(gaps))
    slope, half_width = fit_decay(k_values, errors)
    return {
        "k_values": k_values,
        "errors": errors,
        "slope": slope,
        "slope_half_width": half_width,
        "resolution_gap": resolution_gap,
    }


def _probe_series(trace: FlowTrace, probe: str, names: Sequence[str]) -> list:
    """The named series of a quantized trace of three samples or more, for ``probe``.

    Any other trace raises a FlowError that names the probe.
    """
    if trace.kind != "quantized":
        raise FlowError(f"{probe} needs a quantized trace")
    if any(name not in trace.series for name in names):
        raise FlowError(f"{probe}: trace was recorded without energies")
    if trace.size < 3:
        raise FlowError(f"{probe}: need at least three samples")
    return [trace.series[name] for name in names]


def slope_identity_check(trace: FlowTrace) -> dict:
    """Residuals of S_k = -d/dt L(f_k(H_t)) by forward differences.

    The residual at a sample is first order in the sampling step, so a
    halved step should roughly halve the maximum residual.
    """
    l_values, s_values = _probe_series(trace, "slope identity", ("L", "S_k"))
    t = trace.times
    dt = np.diff(t)
    residuals = np.abs(s_values[:-1] + np.diff(l_values) / dt)
    return {
        "times": t[:-1],
        "residuals": residuals,
        "max_residual": float(np.max(residuals)),
        "sample_dt": float(np.max(dt)),
    }


def monotonicity_probe(trace: FlowTrace) -> dict:
    """Worst margin of the asymptotic entropy monotonicity bound.

    Checks dS_k/dt <= ((k+1)/N_k) R^2 along the trace, with R the
    trace-convention relative entropy -sum log B_i of H against b_k(H).
    The finite-difference slack is estimated from the recorded series'
    second differences.
    """
    s_values, relent = _probe_series(trace, "monotonicity probe", ("S_k", "relent_ref"))
    k = trace.level
    n = trace.states[0].dim
    t = trace.times
    dt = np.diff(t)
    lhs = np.diff(s_values) / dt
    rhs = ((k + 1.0) / n) * relent[:-1] ** 2
    margins = lhs - rhs
    second = np.abs(np.diff(s_values, 2))
    slack = 1e-6 + 0.5 * float(np.max(second)) / float(np.min(dt))
    worst = float(np.max(margins))
    return {
        "times": t[:-1],
        "margins": margins,
        "worst": worst,
        "slack": slack,
        "passed": bool(worst <= slack),
    }
