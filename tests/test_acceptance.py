"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line
per criterion.  Each test prints the measured quantities next to its
threshold so a failure message carries the numbers that produced it.
"""

import numpy as np
import pytest

from qkrf.energies import (
    canonical_conjugate_weights,
    conjugate_value,
    entropy_classical,
    ma_energy,
    s_k,
)
from qkrf.experiments import entropy_convergence_report, euler_gap_report, family_potential
from qkrf.flows import (
    classical_krf_run,
    flow_vs_krf_gap,
    monotonicity_probe,
    quantized_flow_run,
    slope_identity_check,
)
from qkrf.geometry import PotentialField, build_p1_model
from qkrf.hermforms import HermForm, gen_eig, random_herm_pd
from qkrf.maps import balancing, project
from qkrf.nanorms import duality_gap


@pytest.fixture(scope="module")
def p1_midres():
    """Backend for the Euler comparison, levels up to 16."""
    return build_p1_model(16, radial_nodes=96, angular_nodes=72)


@pytest.fixture(scope="module")
def p1_highres():
    """Backend for the classical comparison, levels up to 32."""
    return build_p1_model(32, radial_nodes=128, angular_nodes=136)


@pytest.fixture(scope="module")
def p1_entropy():
    """Backend for the entropy table, levels up to 12."""
    return build_p1_model(12, radial_nodes=128, angular_nodes=56)


def test_criterion_01_balanced_fixed_point(p1_six):
    """The round Gram is balanced at every level, with the k=1 Beta oracle."""
    worst_residual = 0.0
    worst_entropy = 0.0
    for k in range(1, 7):
        h = project(p1_six.zero_potential(), k)
        b = balancing(p1_six, h)
        rel = np.linalg.norm(b.entries - h.entries) / np.linalg.norm(h.entries)
        worst_residual = max(worst_residual, rel)
        worst_entropy = max(worst_entropy, s_k(p1_six, h, balanced=b))
    gram1 = project(p1_six.zero_potential(), 1).diagonal()
    gram_gap = float(np.max(np.abs(gram1 - np.array([1 / 3, 1 / 6, 1 / 3]))))
    print(
        f"criterion 1: residual={worst_residual:.3e} entropy={worst_entropy:.3e} "
        f"gram_gap={gram_gap:.3e}"
    )
    assert worst_residual <= 1e-9
    assert worst_entropy <= 1e-9
    assert gram_gap <= 1e-10


def test_criterion_02_normalization_identity(p1, discrete):
    """Generalized eigenvalues of (b_k(H), H) always sum to N_k."""
    worst = 0.0
    for model in (p1, discrete):
        for k in (1, 2, 3):
            n = model.nk(k)
            rng = np.random.default_rng([2026, k, model.node_count])
            for _ in range(50):
                h = HermForm(k, random_herm_pd(rng, n, spread=0.8))
                mu = gen_eig(balancing(model, h).entries, h.entries)
                worst = max(worst, abs(float(np.sum(mu)) - n))
    print(f"criterion 2: worst |sum(gen_eig) - N_k| = {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_03_euler_method_gap(p1_midres):
    """Largest log-gap between the flow and its Euler iterates, fitted in k."""
    phi0 = family_potential(p1_midres, "bump", 0.3)
    report = euler_gap_report(p1_midres, phi0, t_max=1.0, k_list=[2, 4, 8, 16])
    pairs = ", ".join(
        f"k={k}: {e:.4f}" for k, e in zip(report["k_values"], report["errors"])
    )
    print(f"criterion 3: slope={report['slope']:.4f} gaps: {pairs}")
    assert report["slope"] <= -0.8, (
        f"fitted slope {report['slope']:.4f} (gaps {pairs}); the Frobenius "
        f"norm sums the log-gaps of all N_k = 2k+1 modes, and on k = 2..16 "
        f"even the largest single mode's gap grows, like k^0.46; only the "
        f"normalized distance (1/k) * RMS of the mode gaps decays, like k^-0.79"
    )


def test_criterion_04_flow_vs_classical(p1_highres):
    """Potentials along the quantized flow track the classical flow in k."""
    phi0 = family_potential(p1_highres, "bump", 0.3)
    report = flow_vs_krf_gap(p1_highres, phi0, t_max=1.0, k_list=[4, 8, 16, 32])
    print(
        f"criterion 4: slope={report['slope']:.4f} "
        f"resolution_gap={report['resolution_gap']:.3e}"
    )
    assert report["resolution_gap"] <= 1e-5
    assert report["slope"] <= -0.8


def test_criterion_05_entropy_convergence(p1_entropy):
    """Quantized entropies approach the classical entropy from below."""
    phi0 = family_potential(p1_entropy, "bump", 0.5)
    report = entropy_convergence_report(p1_entropy, phi0, list(range(2, 13)))
    ratio = report["final_ratio"]
    print(
        f"criterion 5: worst_tail_increase={report['worst_tail_increase']:.3e} "
        f"final_ratio={ratio:.4f} resolution={report['resolution_control']:.3e} "
        f"S={report['s_classical']:.6f} S_12={report['s_k'][-1]:.6f}"
    )
    zero_worst = max(
        s_k(p1_entropy, project(p1_entropy.zero_potential(), k))
        for k in range(2, 13)
    )
    assert zero_worst <= 1e-8
    assert report["resolution_control"] <= 1e-8
    assert report["worst_tail_increase"] <= 0.0
    assert ratio <= 0.02, (
        f"|S_12 - S|/S = {ratio:.4f}; the gap decreases like c/k with "
        f"c/S near 3, so reaching 2 percent needs levels around k = 192, "
        f"far beyond k = 12 (values are resolution-stable to 1e-15)"
    )


def test_criterion_06_convex_conjugate(p1):
    """No trial weight vector beats the entropy; canonical weights attain it."""
    rng = np.random.default_rng(1806)
    worst_excess = -np.inf
    worst_attain = 0.0
    for _ in range(10):
        h = HermForm(2, random_herm_pd(rng, 5, spread=0.8))
        value = s_k(p1, h)
        b = gen_eig(balancing(p1, h), h)
        for _ in range(100):
            lam = 2.0 * rng.standard_normal(5)
            worst_excess = max(worst_excess, conjugate_value(b, 2, lam) - value)
        canonical = conjugate_value(b, 2, canonical_conjugate_weights(b, 2))
        worst_attain = max(worst_attain, abs(canonical - value))
    print(
        f"criterion 6: worst_excess={worst_excess:.3e} "
        f"attainment_gap={worst_attain:.3e}"
    )
    assert worst_excess <= 1e-9
    assert worst_attain <= 1e-9


def test_criterion_07_slope_identity(p1, bump):
    """The residual of S_k = -dL/dt halves when the step halves."""
    h0 = project(bump, 2)
    coarse = slope_identity_check(
        quantized_flow_run(p1, h0, t_max=1.0, dt=0.05)
    )["max_residual"]
    fine = slope_identity_check(
        quantized_flow_run(p1, h0, t_max=1.0, dt=0.025)
    )["max_residual"]
    ratio = coarse / fine
    print(f"criterion 7: residuals {coarse:.3e} / {fine:.3e}, ratio={ratio:.3f}")
    assert 1.5 <= ratio <= 2.5


def test_criterion_08_entropy_monotonicity(p1):
    """The differential inequality for S_k holds along seeded runs."""
    worst = -np.inf
    for i in range(5):
        rng = np.random.default_rng([1808, i])
        h0 = HermForm(2, random_herm_pd(rng, 5, spread=0.5))
        trace = quantized_flow_run(p1, h0, t_max=2.0, dt=0.01)
        report = monotonicity_probe(trace)
        worst = max(worst, report["worst"] - report["slack"])
    print(f"criterion 8: worst margin beyond slack = {worst:.3e}")
    assert worst <= 0.0


def test_criterion_09_duality(p1, bump):
    """Fixed-level duality: extracted norms and panels obey the inequality."""
    for k in (1, 2):
        report = duality_gap(p1, k, bump, seed=k)
        identity = max(r["identity_residual"] for r in report["extracted"])
        print(
            f"criterion 9 (k={k}): min_s_k={report['min_s_k']:.3e} "
            f"panel_max={report['panel_max_minus_s_na']:.4f} "
            f"one_sided={report['one_sided_all']} identity={identity:.3e}"
        )
        assert report["min_s_k"] <= 0.01
        assert -0.05 <= report["panel_max_minus_s_na"] <= 0.05
        assert report["one_sided_all"]
        assert identity <= 1e-9


def test_criterion_10_classical_identities(p1):
    """Entropy positivity, the L-slope identity, and the E-derivative."""
    zero_entropy = abs(entropy_classical(p1.zero_potential()))
    probes = [
        family_potential(p1, "bump", a) for a in (0.2, 0.5, -0.4)
    ] + [family_potential(p1, "sine", 0.3)]
    min_entropy = min(entropy_classical(phi) for phi in probes)

    phi0 = family_potential(p1, "bump", 0.5)
    trace = classical_krf_run(p1, phi0, t_max=0.3, sample_dt=0.01)
    l_series = trace.series["L"]
    s_series = trace.series["S"]
    h = 0.01
    rel_worst = 0.0
    for i in range(1, trace.size - 1):
        slope = (l_series[i + 1] - l_series[i - 1]) / (2.0 * h)
        rel_worst = max(rel_worst, abs(slope + s_series[i]) / abs(s_series[i]))

    direction = np.sin(np.pi * p1.u)
    eps = 1e-4
    psi = phi0.require_profile()
    plus = ma_energy(PotentialField(p1, None, psi + eps * direction))
    minus = ma_energy(PotentialField(p1, None, psi - eps * direction))
    fd = (plus - minus) / (2.0 * eps)
    lap = p1.radial_laplacian(psi)
    pairing = float(np.dot(p1.radial_weights, direction * (2.0 + lap) / 2.0))
    e_rel = abs(fd - pairing) / abs(pairing)

    print(
        f"criterion 10: S(0)={zero_entropy:.3e} min_S={min_entropy:.3e} "
        f"dL/dt rel={rel_worst:.3e} dE rel={e_rel:.3e}"
    )
    assert zero_entropy <= 1e-10
    assert min_entropy >= 0.0
    assert rel_worst <= 1e-3
    assert e_rel <= 1e-5
