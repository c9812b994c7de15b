"""Per-call timings of single layer functions (the ``probe.*`` metrics).

Each probe calls one public qkrf function on a fixed input, repeatedly
for at least ``PROBE_SECONDS`` and ``MIN_REPEATS`` calls, and reports the
median call time in microseconds.  Probes are reported as per-layer
metrics only and never gated.
"""

from __future__ import annotations

import statistics
import time

PROBE_SECONDS = 0.1
MIN_REPEATS = 5


def _median_us(fn) -> tuple[float, int]:
    samples = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(samples) < MIN_REPEATS or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e6 * statistics.median(samples), len(samples)


def cases(qkrf) -> dict:
    """Probe name -> zero-argument call, built from fixed inputs."""
    import numpy as np  # not at module level: numpy must load after the BLAS cap

    out = {}
    # Diagonal path.  k = 64 is the highest level the configuration schema admits.
    diag = qkrf.build_p1_model(64, angular_nodes=8)
    phi = qkrf.family_potential(diag, "bump", 0.3)
    for k in (8, 32, 64):
        h = qkrf.project(phi, k)
        out[f"probe.project.diag_k{k}_us"] = lambda k=k: qkrf.project(phi, k)
        out[f"probe.balancing.diag_k{k}_us"] = lambda h=h: qkrf.balancing(diag, h)
        out[f"probe.s_k.diag_k{k}_us"] = lambda h=h: qkrf.s_k(diag, h)

    dense = qkrf.ProjectiveLineModel(k_max=3, radial_nodes=96, angular_nodes=24)
    starts = {}
    for k in (2, 3):
        rng = np.random.default_rng(k)
        starts[k] = qkrf.HermForm(k, qkrf.random_herm_pd(rng, dense.nk(k), spread=0.5))
        out[f"probe.balancing.dense_k{k}_us"] = lambda k=k: qkrf.balancing(dense, starts[k])
    out["probe.quantized_rk4_step.dense_k2_us"] = lambda: qkrf.quantized_flow_run(
        dense, starts[2], t_max=0.01, dt=0.01, with_energies=False
    )
    nu = qkrf.random_na(np.random.default_rng(0), dense, 2, spread=0.8)
    base = qkrf.project(dense.zero_potential(), 2)
    out["probe.l_na_slope.k2_us"] = lambda: qkrf.l_na_slope(dense, nu, base, 40.0)

    for m in (128, 256):
        model = qkrf.ProjectiveLineModel(k_max=1, radial_nodes=m, angular_nodes=8)
        psi = qkrf.family_potential(model, "bump", 0.3).radial_profile
        out[f"probe.log_ricci_profile.m{m}_us"] = (
            lambda model=model, psi=psi: qkrf.energies.log_ricci_profile(model, psi)
        )
    return out


def run(qkrf) -> tuple[dict, dict]:
    """Median microseconds per probe, and the sample count behind each."""
    values, samples = {}, {}
    for name, fn in cases(qkrf).items():
        values[name], samples[name] = _median_us(fn)
    return values, samples
