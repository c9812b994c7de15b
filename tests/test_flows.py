import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qkrf import flows, maps
from qkrf.energies import e_k, entropy_classical, entropy_of_norms, l_functional, log_ricci_profile
from qkrf.experiments import family_potential
from qkrf.flows import (
    FlowError,
    bergman_iterate,
    common_grid,
    classical_krf_run,
    fill_shifted_jacobian,
    format_float,
    krf_jacobian_terms,
    level_steps,
    monotonicity_probe,
    quantized_flow_run,
    quantized_flow_runs,
    radial_laplacian_matrix,
    slope_identity_check,
    whole_steps,
    write_series_csv,
)
from qkrf.geometry import KahlerConeError, ProjectiveLineModel, build_p1_model
from qkrf.hermforms import (
    HermForm,
    HermitianError,
    PositivityError,
    gen_eig,
    matrix_exp,
    matrix_log,
    random_herm_pd,
)
from qkrf.maps import QuantizationError, balancing, fubini_study, project


def test_bergman_iterate_is_repeated_balancing(p1):
    """Step j of the iteration is b_k applied j times, sampled at time j/k."""
    rng = np.random.default_rng(3)
    h0 = HermForm(2, random_herm_pd(rng, 5, spread=0.5))
    trace = bergman_iterate(p1, h0, steps=3)
    assert np.array_equal(trace.times, [0.0, 0.5, 1.0, 1.5])
    assert trace.series == {}
    form = h0
    for state in trace.states[1:]:
        form = balancing(p1, form)
        assert np.array_equal(state.entries, form.entries)


def test_resume_equals_single_run(p1, bump):
    """The flow is autonomous: a run restarted from its midpoint continues it."""
    h0 = project(bump, 2)
    full = quantized_flow_run(p1, h0, t_max=1.0, dt=0.05)
    first = quantized_flow_run(p1, h0, t_max=0.5, dt=0.05)
    second = quantized_flow_run(p1, first.states[-1], t_max=0.5, dt=0.05)
    assert np.allclose(second.times + 0.5, full.times[10:], atol=1e-12)
    for a, b in zip(first.states + second.states[1:], full.states):
        assert np.allclose(a.entries, b.entries, atol=1e-11)
    joined = np.concatenate([first.series["S_k"], second.series["S_k"][1:]])
    assert np.allclose(joined, full.series["S_k"], atol=1e-10)


def _saved_payload(trace, prefix) -> tuple[dict, str]:
    json_path, csv_path = trace.save(str(prefix))
    with open(json_path) as fh:
        return json.load(fh), csv_path


def test_trace_save_load_round_trip(p1, bump, tmp_path):
    h0 = project(bump, 2)
    trace = quantized_flow_run(p1, h0, t_max=0.5, dt=0.125)
    payload, csv_path = _saved_payload(trace, tmp_path / "run")
    assert payload["kind"] == trace.kind and payload["level"] == trace.level
    assert np.array_equal(payload["times"], trace.times)
    for blob, state in zip(payload["states"], trace.states):
        assert np.array_equal(blob["diag"], state.data)
    for name in trace.series:
        assert np.array_equal(payload["series"][name], trace.series[name])
    with open(csv_path) as fh:
        header = fh.readline().strip()
    assert header == "t,k,E,L,S,E_k,D_k,S_k"


def test_dense_trace_save_is_exact(p1, tmp_path):
    rng = np.random.default_rng(89)
    h0 = HermForm(2, random_herm_pd(rng, 5, spread=0.5))
    trace = quantized_flow_run(p1, h0, t_max=0.1, dt=0.05, with_energies=False)
    payload, _ = _saved_payload(trace, tmp_path / "dense")
    for blob, state in zip(payload["states"], trace.states):
        entries = np.asarray(blob["re"]) + 1j * np.asarray(blob["im"])
        assert np.array_equal(entries, state.entries)


def test_classical_save_load_round_trip(p1, bump, tmp_path):
    trace = classical_krf_run(p1, bump, t_max=0.1, sample_dt=0.05)
    payload, _ = _saved_payload(trace, tmp_path / "classical")
    for blob, state in zip(payload["states"], trace.states):
        assert np.array_equal(blob["profile"], state.require_profile())


def test_classical_flow_fixes_round_metric(p1):
    trace = classical_krf_run(p1, p1.zero_potential(), t_max=0.2, sample_dt=0.1)
    drift = max(np.max(np.abs(s.require_profile())) for s in trace.states)
    assert drift <= 1e-12
    assert np.max(np.abs(trace.series["S"])) <= 1e-12


def test_classical_entropy_decreases(p1, bump):
    trace = classical_krf_run(p1, bump, t_max=0.5, sample_dt=0.05)
    assert trace.meta["max_s_increase"] <= 1e-12
    assert trace.series["S"][-1] < trace.series["S"][0]
    assert trace.meta["steps"] >= 1
    assert trace.meta["rejected"] == trace.meta["restarts"]
    assert trace.meta["factorizations"] == 6 * (trace.meta["steps"] + trace.meta["rejected"])


@pytest.mark.parametrize("family", ["bump", "sine"])
def test_classical_entropy_series_is_entropy_classical(p1, family):
    trace = classical_krf_run(p1, family_potential(p1, family, 0.3), t_max=0.2, sample_dt=0.1)
    assert np.array_equal(trace.series["S"], [entropy_classical(s) for s in trace.states])


@pytest.mark.parametrize(
    "span, dt, steps",
    [(1.0, 0.25, 4), (1.0 + 1e-12, 0.25, 4), (1.0, 0.3, 0), (0.1, 0.25, 0),
     (1.0, 0.0, 0), (1.0, -0.25, 0)],
)
def test_whole_steps(span, dt, steps):
    assert whole_steps(span, dt) == steps


def test_level_steps_and_common_grid():
    assert level_steps(1.0, 4) == 4
    assert level_steps(0.7, 2) == 1
    assert level_steps(1.0 - 1e-12, 2) == 2
    with pytest.raises(FlowError, match="0.1 is shorter than one step 1/2 at level 2"):
        level_steps(0.1, 2)
    assert common_grid(0.4375, [4, 8, 16]) == 16
    with pytest.raises(FlowError, match=r"0.1 is not a multiple of 1/lcm\(k_list\) = 1/8"):
        common_grid(0.1, [2, 4, 8])


@pytest.mark.parametrize("family", ["bump", "sine"])
def test_classical_jacobian_matches_finite_differences(family):
    model = build_p1_model(1, radial_nodes=64, angular_nodes=8)
    psi = family_potential(model, family, 0.3).require_profile()
    n = psi.size
    terms = krf_jacobian_terms(model, psi, model.radial_laplacian(psi))
    shifted = fill_shifted_jacobian(
        np.empty((n, n), order="F"), radial_laplacian_matrix(model), terms, 1.0
    )
    jac = np.eye(n) - shifted
    eps = 1e-7
    fd = np.empty_like(jac)
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        fd[:, j] = (log_ricci_profile(model, psi - e) - log_ricci_profile(model, psi + e)) / (2 * eps)
    assert np.max(np.abs(fd - jac)) <= 1e-6 * np.max(np.abs(jac))


def test_classical_flow_matches_tight_reference(p1, bump):
    """Agreement with DOP853 at rtol 1e-12, its step capped below the stiff limit."""
    from scipy.integrate import solve_ivp

    trace = classical_krf_run(p1, bump, t_max=0.05, sample_dt=0.01)
    ref = solve_ivp(
        lambda t, y: -log_ricci_profile(p1, y),
        (0.0, 0.05),
        bump.require_profile(),
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        t_eval=trace.times,
        first_step=1e-6,
        max_step=2e-4,
    )
    assert ref.success
    deviation = max(
        np.max(np.abs(s.require_profile() - y)) for s, y in zip(trace.states, ref.y.T)
    )
    assert deviation <= 1e-11


def test_classical_cone_exit_rejects_only_that_step(p1, bump, monkeypatch):
    clean = classical_krf_run(p1, bump, t_max=0.05, sample_dt=0.01)
    calls = []

    def leaves_cone_once(model, psi, lap=None):
        calls.append(None)
        if len(calls) == 3:
            raise KahlerConeError("injected")
        return log_ricci_profile(model, psi, lap)

    monkeypatch.setattr(flows, "log_ricci_profile", leaves_cone_once)
    trace = classical_krf_run(p1, bump, t_max=0.05, sample_dt=0.01)
    assert trace.meta["rejected"] == clean.meta["rejected"] + 1
    for a, b in zip(trace.states, clean.states):
        assert np.max(np.abs(a.require_profile() - b.require_profile())) <= 1e-12


@pytest.mark.parametrize("amplitude", [-0.5, -0.6])
def test_classical_flow_near_cone_edge(p1, amplitude):
    """Sine starts near the cone's edge (-0.6 made the old RK4 run restart)."""
    phi0 = family_potential(p1, "sine", amplitude)
    trace = classical_krf_run(p1, phi0, t_max=0.1, sample_dt=0.01)
    assert trace.size == 11
    assert trace.meta["steps"] >= 1
    assert trace.meta["rejected"] >= 0
    assert trace.meta["rejected"] == trace.meta["restarts"]
    assert trace.meta["max_s_increase"] <= 1e-12


def test_quantized_flow_converges_to_balanced(p1, bump):
    """S_k decays toward zero along the flow."""
    h0 = project(bump, 2)
    trace = quantized_flow_run(p1, h0, t_max=8.0, dt=0.125)
    s = trace.series["S_k"]
    assert s[-1] < 1e-6
    assert s[-1] < s[0]


def test_flow_step_validation(p1, bump):
    h0 = project(bump, 1)
    with pytest.raises(FlowError):
        quantized_flow_run(p1, h0, t_max=1.0, dt=0.3, with_energies=False)
    with pytest.raises(FlowError):
        quantized_flow_run(p1, h0, t_max=1.0, dt=0.25, sample_every=3)


def test_state_at_requires_sampled_time(p1, bump):
    h0 = project(bump, 1)
    trace = quantized_flow_run(p1, h0, t_max=1.0, dt=0.5, with_energies=False)
    assert trace.state_at(0.5) is trace.states[1]
    with pytest.raises(FlowError):
        trace.state_at(0.3)


def test_slope_identity_smoke(p1, bump):
    h0 = project(bump, 2)
    trace = quantized_flow_run(p1, h0, t_max=1.0, dt=0.05)
    report = slope_identity_check(trace)
    assert report["max_residual"] < 0.05
    assert report["residuals"].shape == (trace.size - 1,)


def test_monotonicity_probe_on_seeded_run(p1):
    rng = np.random.default_rng(97)
    h0 = HermForm(2, random_herm_pd(rng, 5, spread=0.5))
    trace = quantized_flow_run(p1, h0, t_max=2.0, dt=0.01)
    report = monotonicity_probe(trace)
    assert report["passed"]
    assert report["worst"] <= report["slack"]


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 2.0**-40, 123456.789):
        assert float(format_float(x)) == x


def test_write_series_csv_values(tmp_path):
    times = np.array([0.0, 0.5])
    series = {"L": np.array([1.0 / 3.0, 0.25]), "S_k": np.array([0.5, 0.125])}
    path = str(tmp_path / "series.csv")
    write_series_csv(path, times, 2, series)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,k,E,L,S,E_k,D_k,S_k"
    row = lines[1].split(",")
    assert float(row[3]) == 1.0 / 3.0
    assert row[2] == "nan"
    assert row[1] == "2"


def test_diagonal_flow_keeps_states_vector_held(p1, bump):
    h0 = project(bump, 3)
    trace = quantized_flow_run(p1, h0, t_max=0.5, dt=0.125, sample_every=2)
    assert trace.meta["diagonal_path"]
    for state in trace.states:
        assert state.is_diagonal and state.data.ndim == 1
        assert "entries" not in vars(state)


def test_diagonal_trace_save_load_is_exact(p1, bump, tmp_path):
    trace = quantized_flow_run(p1, project(bump, 3), t_max=0.5, dt=0.125)
    payload, _ = _saved_payload(trace, tmp_path / "diag")
    assert len(payload["states"]) == len(trace.states)
    for blob, state in zip(payload["states"], trace.states):
        assert state.is_diagonal and set(blob) == {"diag"}
        assert np.array_equal(blob["diag"], state.data)
    for name in trace.series:
        assert np.array_equal(payload["series"][name], trace.series[name])


@pytest.mark.parametrize("with_energies", [True, False])
def test_unstable_dense_run_ends_in_flow_error_naming_the_time(p1, with_energies):
    """RK4 at k dt = 4 is unstable, and Q grows until the run must stop.

    A form held in its eigenframe stays positive however wide its spectrum,
    so the run no longer fails in the form's own positivity check: the
    generalized-eigenvalue floor of the sampled S_k, or the floating range
    of e^Q, stops it.
    """
    rng = np.random.default_rng(0)
    h0 = HermForm(2, random_herm_pd(rng, 5, spread=0.5))
    with pytest.raises(FlowError, match=r"left the positive cone near t = \d+\.\d{6}: ") as err:
        quantized_flow_run(p1, h0, t_max=40.0, dt=2.0, with_energies=with_energies)
    assert "not positive definite" not in str(err.value)


@pytest.mark.parametrize(
    "runs, t_max, sample_every, with_energies, grams, exponentials",
    [(1, 0.1, 1, True, 9, 8), (1, 0.2, 2, False, 17, 16), (4, 0.1, 1, True, 9, 8)],
)
def test_quantized_flow_forms_and_balances_each_state_once(
    p1, monkeypatch, runs, t_max, sample_every, with_energies, grams, exponentials
):
    """h0 and each end-of-step state are balanced once, every RK4 stage once more.

    Every dense ``project`` takes one Gram, and every state other than h0
    is formed with one exponential (one stacked eigh of Q); a stack of
    starts takes them all in the same calls.
    """
    calls = {"gram": 0, "exp": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(p1, "gram", counted("gram", p1.gram))
    monkeypatch.setattr(flows, "matrix_exp", counted("exp", flows.matrix_exp))
    starts = [
        HermForm(2, random_herm_pd(np.random.default_rng(3 + i), 5, spread=0.5))
        for i in range(runs)
    ]
    list(quantized_flow_runs(
        p1, starts, t_max=t_max, dt=0.05, sample_every=sample_every, with_energies=with_energies
    ))
    assert calls == {"gram": grams, "exp": exponentials}


def test_non_finite_dense_state_raises_flow_error(p1):
    """An RK4 step of 1e308 overflows Q to inf; the run ends in FlowError at that time."""
    rng = np.random.default_rng(0)
    h0 = HermForm(2, random_herm_pd(rng, 5, spread=2.0))
    failure = r"near t = \d+\.\d{6}: matrix exponent has non-finite entries"
    with np.errstate(over="ignore"), pytest.raises(FlowError, match=failure):
        quantized_flow_run(p1, h0, t_max=1e308, dt=1e308, with_energies=False)


# ---------------------------------------------------------------------------
# stacked runs


def _reference_run(model, h0, t_max, dt):
    """The quantized flow from one start, integrated with the single-form maps.

    This is the flow one start at a time, as the stacked integrator must
    reproduce it bit for bit: every state formed by ``matrix_exp`` and
    balanced once, L read from ``fubini_study`` and the norms from ``gen_eig``.
    """
    k = h0.level

    def evaluate(q, form=None):
        form = matrix_exp(k, q) if form is None else form
        b = balancing(model, form)
        return form, b, k * (matrix_log(b) - q)

    series = {name: [] for name in ("L", "E_k", "D_k", "S_k", "relent_ref")}
    states = []
    q = matrix_log(h0)
    n_steps = whole_steps(t_max, dt)
    for step in range(n_steps + 1):
        if step:
            f2 = evaluate(q + 0.5 * dt * f1)[2]
            f3 = evaluate(q + 0.5 * dt * f2)[2]
            f4 = evaluate(q + dt * f3)[2]
            q = q + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        form, b, f1 = evaluate(q, None if step else h0)
        states.append(form)
        norms = gen_eig(b, form)
        l_value = l_functional(fubini_study(model, form))
        series["L"].append(l_value)
        series["E_k"].append(e_k(form, h0))
        series["D_k"].append(l_value - e_k(form, h0))
        series["S_k"].append(entropy_of_norms(norms))
        series["relent_ref"].append(float(-np.sum(np.log(norms))))
    return np.arange(n_steps + 1) * dt, states, series


def _dense_starts(k, runs, seed):
    n = 2 * k + 1
    return [
        HermForm(k, random_herm_pd(np.random.default_rng([seed, i]), n, spread=0.5))
        for i in range(runs)
    ]


def _assert_same_trace(got, want):
    assert (got.kind, got.level, got.meta) == (want.kind, want.level, want.meta)
    assert np.array_equal(got.times, want.times)
    assert got.series.keys() == want.series.keys()
    for name in want.series:
        assert np.array_equal(got.series[name], want.series[name])
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert np.array_equal(a.data, b.data)
        assert (a.frame is None) == (b.frame is None)
        assert a.frame is None or np.array_equal(a.frame, b.frame)


@pytest.mark.parametrize("runs", [1, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_runs_equal_the_runs_one_at_a_time(p1, k, runs):
    """Each trace of a stack equals its start's own run and the one-start reference, bitwise."""
    starts = _dense_starts(k, runs, seed=10 + k)
    stacked = list(quantized_flow_runs(p1, starts, t_max=0.12, dt=0.02))
    assert len(stacked) == runs
    for trace, h0 in zip(stacked, starts):
        single = quantized_flow_run(p1, h0, t_max=0.12, dt=0.02)
        _assert_same_trace(trace, single)
        _assert_matches_reference(p1, trace, h0, t_max=0.12, dt=0.02)


def test_stacked_diagonal_runs_equal_the_runs_one_at_a_time(p1):
    starts = [project(family_potential(p1, "bump", a), 3) for a in (0.2, -0.3, 0.4)]
    stacked = list(quantized_flow_runs(p1, starts, t_max=0.5, dt=0.125, sample_every=2))
    for trace, h0 in zip(stacked, starts):
        assert trace.meta["diagonal_path"]
        _assert_same_trace(trace, quantized_flow_run(p1, h0, t_max=0.5, dt=0.125, sample_every=2))


def test_stacked_runs_cross_chunks_unchanged(p1, monkeypatch):
    """Under a budget of two starts per stack, five starts run as stacks of 2, 2 and 1.

    Each stack's traces come before the next stack runs.
    """
    starts = _dense_starts(2, 5, seed=7)
    whole = list(quantized_flow_runs(p1, starts, t_max=0.1, dt=0.02, with_energies=False))
    stacks = []

    def recorded(model, chunk, *args, **kwargs):
        stacks.append(len(chunk))
        return integrate(model, chunk, *args, **kwargs)

    integrate = flows._integrate_stack
    monkeypatch.setattr(flows, "_integrate_stack", recorded)
    monkeypatch.setattr(flows, "FLOW_CHUNK_BYTES", 2 * flows._start_bytes(p1, 2, False, 6))
    chunked = quantized_flow_runs(p1, starts, t_max=0.1, dt=0.02, with_energies=False)
    assert stacks == []
    first = next(chunked)
    assert stacks == [2]
    chunked = [first, *chunked]
    assert stacks == [2, 2, 1]
    for a, b in zip(chunked, whole):
        _assert_same_trace(a, b)


def _peak_bytes(model, starts, steps, with_energies):
    """tracemalloc's peak over a run of ``steps`` steps from the starts, traces kept."""
    tracemalloc.start()
    try:
        traces = list(quantized_flow_runs(
            model, starts, t_max=0.02 * steps, dt=0.02, with_energies=with_energies
        ))
        assert len(traces) == len(starts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("steps, with_energies", [(1, False), (10, True)])
@pytest.mark.parametrize("path", ["radial", "modes", "sections"])
def test_the_stack_budget_charges_what_a_start_allocates(p1, discrete, path, steps, with_energies):
    """Each start added to a stack raises a run's peak by at most what the budget charges it.

    And by more than half of that, so that FLOW_CHUNK_BYTES describes
    memory that is allocated: the radial path, the projective line's mode
    contraction and the generic section contraction.
    """
    rng = np.random.default_rng(17)
    if path == "radial":
        model, base = p1, project(p1.zero_potential(), 3)
        def start():
            return HermForm(3, base.data * np.exp(0.01 * rng.standard_normal(base.dim)))
    else:
        model = p1 if path == "modes" else discrete
        def start():
            return HermForm(2, random_herm_pd(rng, 5, spread=0.3))
    few, many = [start() for _ in range(2)], [start() for _ in range(6)]
    _peak_bytes(model, many, steps, with_energies)  # the level's tables are built once, here
    grown = (_peak_bytes(model, many, steps, with_energies)
             - _peak_bytes(model, few, steps, with_energies)) / (len(many) - len(few))
    charged = flows._start_bytes(model, few[0].level, path == "radial", steps + 1)
    assert len(many) * charged < flows.FLOW_CHUNK_BYTES
    assert grown <= charged <= 2 * grown


def _assert_matches_reference(model, trace, h0, t_max, dt):
    times, states, series = _reference_run(model, h0, t_max, dt)
    assert np.array_equal(trace.times, times)
    assert trace.states[0] is h0
    for got, want in zip(trace.states, states):
        assert np.array_equal(got.data, want.data)
        assert (got.frame is None) == (want.frame is None)
        assert got.frame is None or np.array_equal(got.frame, want.frame)
    for name, values in series.items():
        assert np.array_equal(trace.series[name], values), name


def test_diagonal_starts_off_the_radial_path_run_dense(discrete):
    """A diagonal start on a model without radial structure takes the dense path.

    Alone or stacked with dense starts, it runs as the one-start reference
    does from that form, bitwise.
    """
    rng = np.random.default_rng(23)
    diagonal = [HermForm(2, np.ones(5)), HermForm(2, np.exp(0.5 * rng.standard_normal(5)))]
    dense = HermForm(2, random_herm_pd(rng, 5, spread=0.5))
    for starts in ([diagonal[0]], [diagonal[1]], [diagonal[1], dense, diagonal[0]]):
        traces = list(quantized_flow_runs(discrete, starts, t_max=0.1, dt=0.02))
        for trace, h0 in zip(traces, starts):
            assert not trace.meta["diagonal_path"]
            _assert_matches_reference(discrete, trace, h0, t_max=0.1, dt=0.02)


def _below_the_log_floor(k):
    """A dense form whose eigenvalues span e^40, past the relative floor of matrix_log."""
    rng = np.random.default_rng(41)
    frame = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    q = (frame * np.array([-40.0, 0.0, 0.1, 0.2, 0.3])) @ frame.conj().T
    return matrix_exp(k, 0.5 * (q + q.conj().T))


def test_a_start_that_leaves_the_cone_is_named_by_its_index(p1):
    starts = _dense_starts(2, 3, seed=5)
    starts[1] = _below_the_log_floor(2)
    failure = (
        r"^quantized flow left the positive cone near t = 0\.000000: "
        r"matrix log: eigenvalue .* below the relative floor .* \(start 1\)$"
    )
    with pytest.raises(FlowError, match=failure):
        list(quantized_flow_runs(p1, starts, t_max=0.1, dt=0.05))
    with pytest.raises(FlowError, match=r"near t = 0\.000000: matrix log: .*floor") as err:
        quantized_flow_run(p1, starts[1], t_max=0.1, dt=0.05)
    assert "(start" not in str(err.value)


def test_stacked_runs_refuse_mixed_starts(p1, bump):
    dense = _dense_starts(2, 1, seed=1)[0]
    with pytest.raises(FlowError, match="share one level"):
        quantized_flow_runs(p1, [dense, _dense_starts(1, 1, seed=1)[0]], t_max=0.1, dt=0.05)
    with pytest.raises(FlowError, match="share one path"):
        quantized_flow_runs(p1, [dense, project(bump, 2)], t_max=0.1, dt=0.05)
    with pytest.raises(FlowError, match="at least one start"):
        quantized_flow_runs(p1, [], t_max=0.1, dt=0.05)


# ---------------------------------------------------------------------------
# a failing stage raises the first failure of its checks, run in turn


def _spread_diagonal(k, shift=0.0):
    """A diagonal form far from balanced, so that a long step overshoots."""
    return HermForm(k, np.exp(shift + 3.0 * np.linspace(-1.0, 1.0, 2 * k + 1)))


def _nearly_balanced_dense(p1):
    """The balanced level-2 form with a 1e-300 off-diagonal entry: on the dense path, at rest."""
    entries = project(p1.zero_potential(), 2).entries.copy()
    entries[0, 1] = entries[1, 0] = 1e-300
    return HermForm(2, entries)


def _spread_dense():
    return HermForm(2, random_herm_pd(np.random.default_rng(5), 5, spread=2.0))


def _spoil_weights(spoil):
    """``maps.twisted_weights`` with the weights of the middle start of a stack spoiled."""
    weights = maps.twisted_weights

    def spoiled(log_mu0, values, power=1):
        w = weights(log_mu0, values, power)
        if w.ndim == 2:
            spoil(w, w.shape[0] // 2)
        return w

    return spoiled


def _infinite(w, i):
    w[i, 0] = np.inf


def _zero(w, i):
    w[i] = 0.0


def _rank_one_plus_1e18(w, i):
    """A Gram that is positive but below the matrix log's relative floor."""
    keep = w[i, 127]
    w[i] *= 1e-18
    w[i, 127] = keep


_SINGULAR = (
    "Gram matrix numerically singular at level {} (condition estimate inf); "
    "the quadrature grid likely cannot resolve N_k = {} sections"
)
# case -> (level, good start, failing start, step, spoiled weights, error, message),
# where the message is that of the first check that fails when each runs in turn
_FAILING_STAGES = {
    "diagonal e^Q overflows": (
        3, None, lambda p1: _spread_diagonal(3), 1e3, None,
        HermitianError, "form has non-finite entries",
    ),
    "diagonal e^Q underflows": (
        3, None, lambda p1: _spread_diagonal(3, -690.0), 200.0, None,
        PositivityError, "form is not positive definite: smallest eigenvalue 0.000000e+00",
    ),
    "diagonal e^Q subnormal": (
        3, None, lambda p1: _spread_diagonal(3, -690.0), 20.0, None,
        QuantizationError, "Bergman sum is not strictly positive",
    ),
    "diagonal Gram not finite": (
        3, None, lambda p1: _spread_diagonal(3), 0.05, _infinite,
        HermitianError, "form has non-finite entries",
    ),
    "diagonal Gram singular": (
        3, None, lambda p1: _spread_diagonal(3), 0.05, _zero,
        QuantizationError, _SINGULAR.format(3, 7),
    ),
    "dense Q not finite": (
        2, _nearly_balanced_dense, lambda p1: _spread_dense(), 1e308, None,
        HermitianError, "matrix exponent has non-finite entries",
    ),
    "dense Q out of range": (
        2, _nearly_balanced_dense, lambda p1: _spread_dense(), 1e3, None,
        PositivityError,
        "matrix exponent has eigenvalues from -3.548188e+03 to 8.271500e+02, "
        "beyond the floating range +-7.097827e+02 of their exponentials",
    ),
    "dense Gram not finite": (
        2, _nearly_balanced_dense, lambda p1: _spread_dense(), 0.05, _infinite,
        HermitianError, "form has non-finite entries",
    ),
    "dense Gram singular": (
        2, _nearly_balanced_dense, lambda p1: _spread_dense(), 0.05, _zero,
        QuantizationError, _SINGULAR.format(2, 5),
    ),
    "dense Gram below the log floor": (
        2, _nearly_balanced_dense, lambda p1: _spread_dense(), 0.05, _rank_one_plus_1e18,
        PositivityError,
        "matrix log: eigenvalue 1.009440e-19 below the relative floor 1e-14 * 4.959530e-05",
    ),
}


def _assert_fails_as(model, starts, dt, error, message):
    """One step from the starts ends in ``error(message)`` at the middle start, warning nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowError) as err:
            list(quantized_flow_runs(model, starts, t_max=dt, dt=dt))
    cause = err.value.__cause__
    assert (type(cause), str(cause), cause.start) == (error, message, len(starts) // 2)
    where = " (start 1)" if len(starts) > 1 else ""
    assert str(err.value) == (
        f"quantized flow left the positive cone near t = 0.000000: {message}{where}"
    )


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("case", sorted(_FAILING_STAGES))
def test_a_failing_stage_raises_its_first_check(p1, monkeypatch, case, runs):
    """Alone, or as start 1 of three, a start fails the stage's first check that it fails.

    The other starts pass every check.  The stage tests all its checks at
    once and runs them one by one only when that test fails, which must
    raise what running each in turn raises: the same error, message and
    start.
    """
    k, good, bad, dt, spoil, error, message = _FAILING_STAGES[case]
    if spoil is not None:
        monkeypatch.setattr(maps, "twisted_weights", _spoil_weights(spoil))
    good = project(p1.zero_potential(), k) if good is None else good(p1)
    starts = [bad(p1)] if runs == 1 else [good, bad(p1), good]
    _assert_fails_as(p1, starts, dt, error, message)


@pytest.mark.parametrize("runs", [1, 3])
def test_a_bergman_sum_that_is_not_positive_fails_the_stage(p1, monkeypatch, runs):
    """A form of 1e308 underflows its radial Bergman sum; a zeroed node fails a dense one."""
    model = ProjectiveLineModel(32, radial_nodes=16, angular_nodes=8)
    good, bad = HermForm(32, np.ones(65)), HermForm(32, np.full(65, 1e308))
    message = "Bergman sum is not strictly positive"
    starts = [bad] if runs == 1 else [good, bad, good]
    _assert_fails_as(model, starts, 1 / 32, QuantizationError, message)

    bergman_sum = p1.bergman_sum

    def zeroed(k, frame, inverse):
        total = bergman_sum(k, frame, inverse)
        total[total.shape[0] // 2, 3] = 0.0
        return total

    monkeypatch.setattr(p1, "bergman_sum", zeroed)
    good, bad = _nearly_balanced_dense(p1), _spread_dense()
    starts = [bad] if runs == 1 else [good, bad, good]
    _assert_fails_as(p1, starts, 0.05, QuantizationError, message)
