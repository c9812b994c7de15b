import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from qkrf import flows, hermforms, maps
from qkrf.energies import (
    _l_from_log_z,
    e_k,
    entropy_classical,
    entropy_of_norms,
    log_ricci_profile,
    ma_energy,
)
from qkrf.experiments import entropy_convergence_report, family_potential, run_experiment
from qkrf.flows import (
    FlowError,
    bergman_iterate,
    common_grid,
    classical_krf_run,
    euler_gap_at_level,
    fill_shifted_jacobian,
    flow_vs_krf_gap,
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
from qkrf.geometry import (
    KahlerConeError,
    ModelError,
    ProjectiveLineModel,
    build_p1_model,
    ma_density,
)
from qkrf.hermforms import (
    EIG_FLOOR,
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


@pytest.mark.parametrize("k", [2, 4, 8])
def test_the_euler_gap_is_the_linear_gap_at_the_round_metric(k):
    """Criterion 3's gap is the linear gap of the start's offset from the round Gram.

    With J the Jacobian of q -> log b_k(e^q) at the round Gram (central
    differences, eps = 1e-5), the Bergman iterates move the offset
    delta = log p_k(phi0) - log p_k(0) by J^m and the flow by
    e^(m (J - I)) at time m / k.  At the acceptance test's settings (bump
    0.3, t <= 1, refine 4, 96 radial nodes), max_m |(J^m - e^(m (J - I))) delta|
    meets euler_gap_at_level within 1.6% at k = 2, 4 and 8 (0.01110 against
    0.01095 at k = 2).  Its growth in k is then the linear regime's: the
    j = 2 mode's amplitude grows faster than its Euler defect falls.
    """
    model = build_p1_model(16, radial_nodes=96, angular_nodes=72)
    phi0 = family_potential(model, "bump", 0.3)
    q0 = np.log(project(model.zero_potential(), k).data)
    delta = np.log(project(phi0, k).data) - q0
    n, eps = q0.size, 1e-5

    def log_b(q):
        return balancing(model, HermForm(k, np.exp(q))).logs

    columns = [(log_b(q0 + eps * e) - log_b(q0 - eps * e)) / (2.0 * eps) for e in np.eye(n)]
    jac = np.column_stack(columns)
    predicted = max(
        np.linalg.norm(
            (np.linalg.matrix_power(jac, m) - scipy.linalg.expm(m * (jac - np.eye(n)))) @ delta
        )
        for m in range(k + 1)
    )
    measured = euler_gap_at_level(model, phi0, t_max=1.0, k=k, refine=4)
    assert abs(predicted - measured) <= 0.03 * measured


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


@pytest.mark.parametrize("kind", ["quantized", "classical"])
def test_trace_save_writes_its_series_as_csv_exactly(p1, bump, tmp_path, kind):
    """``save`` writes one file, the series CSV, whose 17 significant digits read back bit for bit."""
    if kind == "quantized":
        trace = quantized_flow_run(p1, project(bump, 2), t_max=0.5, dt=0.125)
    else:
        trace = classical_krf_run(p1, bump, t_max=0.1, sample_dt=0.05)
    assert trace.save(str(tmp_path / "run")) == (str(tmp_path / "run.csv"),)
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
    header, *rows = (tmp_path / "run.csv").read_text().splitlines()
    assert header == "t,k,E,L,S,E_k,D_k,S_k"
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert np.array_equal(table[:, 0], trace.times)
    assert np.all(table[:, 1] == (trace.level or 0))
    for column, name in zip(table[:, 2:].T, flows.SERIES_FIELDS):
        expected = trace.series.get(name, np.full(trace.size, np.nan))
        assert np.array_equal(column, expected, equal_nan=True), name


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
    assert trace.meta["factorizations"] == 6 * trace.meta["jacobians"]
    assert trace.meta["jacobians"] <= trace.meta["steps"] + trace.meta["rejected"]


def test_classical_factors_reused_on_benchmark_config(tmp_path, monkeypatch):
    """The krf-classical benchmark's seed-0 config runs one classical solve, reusing its factors.

    Its 10 steps take 24 LUs, against 60 when every step refactors.
    """
    metas = []

    def recording(*args, **kwargs):
        trace = classical_krf_run(*args, **kwargs)
        metas.append(trace.meta)
        return trace

    monkeypatch.setattr(flows, "classical_krf_run", recording)
    config = {"experiment": "thmA-gap", "k_list": [16, 32, 64], "t_max": 0.0625,
              "radial_nodes": 128, "fine_factor": 2, "family": "bump", "amplitude": -0.264341}
    run_experiment(config, str(tmp_path))
    [meta] = metas
    assert meta["steps"] == 10
    assert meta["factorizations"] <= 36


def _legendre_tail_of(trace):
    profiles = np.array([s.require_profile() for s in trace.states])
    return flows._legendre_tail(trace.states[0].model, profiles, 2)


@pytest.mark.parametrize("m, amplitude", [(16, 0.6), (20, 0.7), (24, 0.8)])
def test_the_legendre_tail_bounds_the_change_on_a_finer_grid(m, amplitude):
    """On an under-resolved grid the tail is at least what a 2M-node solve changes.

    The change is the sup gap, over the samples, between the M-node profiles
    and the 2M-node solve's profiles interpolated back to the M nodes; on
    these configs the tail exceeds it by 10^2 to 10^3.
    """
    model = ProjectiveLineModel(1, radial_nodes=m, angular_nodes=8)
    phi0 = family_potential(model, "sine", amplitude)
    fine_phi0 = phi0.refined(2)
    coarse = classical_krf_run(model, phi0, t_max=0.25, sample_dt=1 / 16)
    fine = classical_krf_run(fine_phi0.model, fine_phi0, t_max=0.25, sample_dt=1 / 16)
    change = max(
        float(np.max(np.abs(
            fine_phi0.model.interpolate_radial(f.require_profile(), model.u) - c.require_profile()
        )))
        for c, f in zip(coarse.states, fine.states)
    )
    assert change > 1e-10
    assert _legendre_tail_of(coarse) >= change


def test_the_legendre_tail_is_at_round_off_on_the_default_thma_config():
    """The default thmA-gap solve (bump 0.3 on 128 nodes, samples 1/32) is resolved to round-off."""
    model = ProjectiveLineModel(1, radial_nodes=128, angular_nodes=8)
    trace = classical_krf_run(model, family_potential(model, "bump", 0.3), 1.0, sample_dt=1 / 32)
    assert _legendre_tail_of(trace) < 1e-12


def test_the_legendre_tail_needs_a_degree_to_read():
    model = ProjectiveLineModel(1, radial_nodes=16, angular_nodes=8)
    profiles = np.zeros((1, 16))
    assert flows._legendre_tail(model, profiles, 4) == 0.0
    for factor in (0, 9):
        with pytest.raises(FlowError, match=f"^resolution_factor {factor} leaves no Legendre tail"):
            flows._legendre_tail(model, profiles, factor)


@pytest.mark.parametrize("m", [128, 256])
def test_the_lapack_lu_routines_equal_scipys_wrappers_bitwise(m):
    """The classical solver's getrf and getrs give lu_factor's and lu_solve's bits, and warning."""
    import scipy.linalg

    model = ProjectiveLineModel(1, radial_nodes=m, angular_nodes=8)
    psi = family_potential(model, "sine", 0.3).require_profile()
    lap_matrix = radial_laplacian_matrix(model)
    terms = krf_jacobian_terms(model, psi, model.radial_laplacian(psi))
    factor, solve = flows._lu_routines(lap_matrix)
    rhs = np.random.default_rng(m).standard_normal(m)
    for h in (1e-3, 0.05, 1.0):
        shifted = fill_shifted_jacobian(np.empty_like(lap_matrix), lap_matrix, terms, h)
        want = scipy.linalg.lu_factor(shifted, check_finite=False)
        got = factor(shifted.copy(order="F"))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        x = scipy.linalg.lu_solve(want, rhs, check_finite=False)
        assert np.array_equal(solve(got, rhs.copy()), x)

    def warned(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(np.zeros((m, m), order="F"))
        return [(w.category, str(w.message)) for w in caught]

    assert warned(factor) == warned(scipy.linalg.lu_factor) == [
        (scipy.linalg.LinAlgWarning, "Diagonal number 1 is exactly zero. Singular matrix.")
    ]


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


@pytest.mark.parametrize("family, amplitude", [("bump", 0.3), ("sine", 0.3), ("sine", -0.5)])
def test_classical_flow_matches_tight_reference(p1, family, amplitude):
    """Agreement with DOP853 at rtol 1e-12, its step capped below the stiff limit.

    The span holds several steps that reuse one step's factors.
    """
    from scipy.integrate import solve_ivp

    phi0 = family_potential(p1, family, amplitude)
    trace = classical_krf_run(p1, phi0, t_max=0.2, sample_dt=0.02)
    assert trace.meta["jacobians"] < trace.meta["steps"]
    ref = solve_ivp(
        lambda t, y: -log_ricci_profile(p1, y),
        (0.0, 0.2),
        phi0.require_profile(),
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
    events = []

    def jacobian(model, psi, lap):
        events.append("J")
        return krf_jacobian_terms(model, psi, lap)

    def field(model, psi, lap=None):
        events.append("f")
        return log_ricci_profile(model, psi, lap)

    monkeypatch.setattr(flows, "krf_jacobian_terms", jacobian)
    monkeypatch.setattr(flows, "log_ricci_profile", field)
    clean = classical_krf_run(p1, bump, t_max=0.05, sample_dt=0.01)
    assert clean.meta["rejected"] == 0
    # after the first field, each step is an optional refresh J, its substeps'
    # fields and the field of its result; the cone exit goes into the second
    # field of the first step without a refresh
    per_step = sum(n - 1 for n in flows.EXTRAPOLATION_STEPS) + 1
    log = "".join(events)
    reused = next(m for m in re.finditer(f"J?f{{{per_step}}}", log[1:]) if m.group()[0] == "f")
    inject = log[: reused.start() + 1].count("f") + 2
    events.clear()

    def leaves_cone_once(model, psi, lap=None):
        events.append("f")
        if events.count("f") == inject:
            events.append("exit")
            raise KahlerConeError("injected")
        return log_ricci_profile(model, psi, lap)

    monkeypatch.setattr(flows, "log_ricci_profile", leaves_cone_once)
    trace = classical_krf_run(p1, bump, t_max=0.05, sample_dt=0.01)
    assert trace.meta["rejected"] == clean.meta["rejected"] + 1
    # the retried step refreshes the Jacobian before its first substep
    assert events[events.index("exit") + 1] == "J"
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


@pytest.mark.parametrize("with_energies", [True, False])
def test_a_radial_run_forms_only_its_samples_and_binds_its_kernel_once(
    p1, monkeypatch, with_energies
):
    """The same five samples from 4 or 16 steps build the same forms, and one kernel per run.

    A radial stage runs on arrays: forms are built only where a sample
    needs them (its state, the state's slice and, with energies, its
    Gram), so four times the stages build no more of them, and the
    level's Bergman kernel is bound once for the whole run.
    """
    counts = {"forms": 0, "kernels": 0}
    held_form, bind = hermforms._held_form, maps._BergmanKernel.__init__

    def counted_form(*args, **kwargs):
        counts["forms"] += 1
        return held_form(*args, **kwargs)

    def counted_bind(kernel, *args, **kwargs):
        counts["kernels"] += 1
        bind(kernel, *args, **kwargs)

    for module in (hermforms, maps, flows):
        monkeypatch.setattr(module, "_held_form", counted_form)
    monkeypatch.setattr(maps._BergmanKernel, "__init__", counted_bind)
    h0 = project(family_potential(p1, "bump", 0.3), 3)
    seen = []
    for sample_every in (1, 4):
        counts.update(forms=0, kernels=0)
        trace = quantized_flow_run(
            p1, h0, t_max=0.5, dt=0.125 / sample_every, sample_every=sample_every,
            with_energies=with_energies,
        )
        assert trace.size == 5
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["kernels"] == 1
    assert seen[0]["forms"] == 1 + 4 * 2 + (5 if with_energies else 0)


def test_non_finite_dense_state_raises_flow_error(p1):
    """An RK4 step of 1e308 overflows Q to inf; the run ends in FlowError at that time."""
    rng = np.random.default_rng(0)
    h0 = HermForm(2, random_herm_pd(rng, 5, spread=2.0))
    failure = r"near t = \d+\.\d{6}: matrix exponent has non-finite entries"
    with np.errstate(over="ignore"), pytest.raises(FlowError, match=failure):
        quantized_flow_run(p1, h0, t_max=1e308, dt=1e308, with_energies=False)


# ---------------------------------------------------------------------------
# stacked runs


def _balanced_alone(model, form):
    """b_k at a form and L there, read as the flow reads them: from the form's Bergman step alone.

    A radial state is balanced from e^(-Q) of its logs Q, a dense one
    from its inverse spectrum; L comes from the step's node pass.
    """
    radial = maps._radial_path(model, form)
    inverse = np.exp(-form.logs) if radial else 1.0 / form.data
    _, gram, shift = maps._BergmanKernel(model, form.level, radial)(inverse, form.frame)
    l_value = _l_from_log_z(model, maps._log_z(shift, form.dim, form.level))
    return maps._gram_form(form.level, gram), float(l_value)


def _l_alone(model, form):
    return _balanced_alone(model, form)[1]


def _reference_run(model, h0, t_max, dt):
    """The quantized flow from one start, integrated with the single-form maps.

    This is the flow one start at a time, as the stacked integrator must
    reproduce it bit for bit: every state formed by ``matrix_exp`` and
    balanced once, L read from its balancing's log normaliser and the
    norms from ``gen_eig``.
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
        l_value = _l_alone(model, form)
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


def _replayed_energies(model, trace, h0):
    """A trace's sampled energies from each sampled state alone, with the single-form functions."""
    series = {name: [] for name in ("L", "E_k", "D_k", "S_k", "relent_ref")}
    for form in trace.states:
        balanced, l_value = _balanced_alone(model, form)
        norms = gen_eig(balanced, form)
        series["L"].append(l_value)
        series["E_k"].append(e_k(form, h0))
        series["D_k"].append(l_value - e_k(form, h0))
        series["S_k"].append(entropy_of_norms(norms))
        series["relent_ref"].append(float(-np.sum(np.log(norms))))
    return series


@pytest.mark.parametrize(
    "path, runs", [("dense", 3), ("diagonal", 3), ("dense", 1), ("diagonal", 1)]
)
def test_stacked_samples_equal_a_per_start_replay(p1, path, runs):
    """Each sample's energies, taken for the whole stack at once, are each start's own, bitwise."""
    if path == "dense":
        starts = _dense_starts(2, runs, seed=31)
    else:
        starts = [project(family_potential(p1, "sine", a), 3) for a in (0.2, -0.3, 0.4)[:runs]]
    traces = list(quantized_flow_runs(p1, starts, t_max=0.25, dt=0.05))
    for trace, h0 in zip(traces, starts):
        assert trace.meta["diagonal_path"] == (path == "diagonal")
        want = _replayed_energies(p1, trace, h0)
        assert trace.series.keys() == want.keys()
        for name, values in want.items():
            assert np.array_equal(trace.series[name], values), name
            assert np.signbit(trace.series[name][0]) == np.signbit(values[0])


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


def test_a_start_off_the_section_space_is_refused(p1):
    with pytest.raises(ModelError, match="^form dimension 3 does not match N_k = 5$"):
        quantized_flow_run(p1, HermForm(2, np.ones(3)), t_max=0.1, dt=0.05)
    with pytest.raises(ModelError, match="^form dimension 3 does not match N_k = 5$"):
        quantized_flow_runs(p1, [HermForm(2, np.ones(5)), HermForm(2, np.ones(3))], t_max=0.1, dt=0.05)


@pytest.mark.parametrize(
    "operation",
    [
        ma_energy,
        entropy_classical,
        ma_density,
        lambda phi: phi.refined(2),
        lambda phi: classical_krf_run(phi.model, phi, 1.0, 0.5),
        lambda phi: flow_vs_krf_gap(phi.model, phi, 1.0, [1, 2, 3]),
        lambda phi: entropy_convergence_report(phi.model, phi, [1, 2]),
    ],
    ids=["ma_energy", "entropy_classical", "ma_density", "refined", "classical_krf_run",
         "flow_vs_krf_gap", "entropy_convergence_report"],
)
def test_classical_operations_need_a_radial_profile(discrete, operation):
    """On a backend without radial structure a potential has no profile, and these refuse it."""
    with pytest.raises(ModelError, match="^operation needs a rotation-invariant potential$"):
        operation(discrete.zero_potential())


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
    """``maps._node_pass`` with the Gram weights of the middle start of a stack spoiled."""
    node_pass = maps._node_pass

    def spoiled(mu0, total, n, k):
        w, shift = node_pass(mu0, total, n, k)
        if w.ndim == 2:
            spoil(w, w.shape[0] // 2)
        return w, shift

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
# where the message is that of the first check that fails when each runs in turn.
# A pattern stands for a floor message whose eigenvalue eigh resolves only to
# about eps |G| (1e-20 here), so that eigenvalue is read and checked against
# the floor, not pinned.
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
        re.compile(r"matrix log: eigenvalue (\S+) below the relative floor 1e-14 \* (4\.959530e-05)"),
    ),
}


def _assert_fails_as(model, starts, dt, error, message):
    """One step from the starts ends in ``error(message)`` at the middle start, warning nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowError) as err:
            list(quantized_flow_runs(model, starts, t_max=dt, dt=dt))
    cause = err.value.__cause__
    assert (type(cause), cause.start) == (error, len(starts) // 2)
    if isinstance(message, re.Pattern):
        match = message.fullmatch(str(cause))
        assert match, str(cause)
        low, top = map(float, match.groups())
        assert 0.0 < low < EIG_FLOOR * top
    else:
        assert str(cause) == message
    where = " (start 1)" if len(starts) > 1 else ""
    assert str(err.value) == (
        f"quantized flow left the positive cone near t = 0.000000: {cause}{where}"
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
        monkeypatch.setattr(maps, "_node_pass", _spoil_weights(spoil))
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
