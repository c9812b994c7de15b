import numpy as np
import pytest

from qkrf.energies import (
    FunctionalError,
    canonical_conjugate_weights,
    conjugate_value,
    d_k,
    e_k,
    entropy_classical,
    f_k_na,
    l_functional,
    log_ricci_profile,
    ma_energy,
    s_k,
)
from qkrf.experiments import family_potential
from qkrf.geometry import PotentialField, canonical_measure
from qkrf.hermforms import HermForm, gen_eig, random_herm_pd
from qkrf.maps import balancing, project
from qkrf.nanorms import NAForm


def test_ma_energy_zero_and_shift(p1, bump):
    assert ma_energy(p1.zero_potential()) == pytest.approx(0.0, abs=1e-14)
    base = ma_energy(bump)
    assert ma_energy(bump.shifted(1.7)) == pytest.approx(base + 1.7, abs=1e-12)


def test_l_functional_zero_and_shift(p1, bump):
    assert l_functional(p1.zero_potential()) == pytest.approx(0.0, abs=1e-13)
    base = l_functional(bump)
    assert l_functional(bump.shifted(-0.4)) == pytest.approx(base - 0.4, abs=1e-12)


@pytest.mark.parametrize("family, amplitude", [("bump", 0.3), ("sine", -0.5), ("sine", 0.4)])
@pytest.mark.parametrize("shift", [0.0, -30.0, 700.0])
def test_l_functional_radial_matches_dense(p1, family, amplitude, shift):
    """A radial profile and its tiled node values give L within 8 eps (1 + max |psi|).

    The radial and the 2-D reference weights round differently, which
    moves log Z by a few ulps of the largest exponent; measured: at most
    3.7 ulps per unit on 64 to 257 radial and 8 to 40 angular nodes.
    """
    phi = family_potential(p1, family, amplitude).shifted(shift)
    psi = phi.require_profile()
    dense = PotentialField(p1, p1.tile_radial(psi))
    bound = 8.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(psi)))
    assert abs(l_functional(dense) - l_functional(phi)) <= bound


def test_ricci_density_round_metric(p1):
    rho = log_ricci_profile(p1, p1.zero_potential().require_profile())
    assert np.allclose(rho, 0.0, atol=1e-12)


def test_ricci_defect_integrates_to_zero(p1, bump):
    """e^rho - 1 has zero mean against the normalized volume form."""
    from qkrf.geometry import ma_density

    psi = bump.require_profile()
    defect = p1.tile_radial(np.exp(log_ricci_profile(p1, psi))) - 1.0
    mass = np.dot(defect * ma_density(bump), p1.node_weights) / p1.volume
    assert mass == pytest.approx(0.0, abs=1e-12)


def test_entropy_classical_zero_and_positive(p1, bump):
    assert entropy_classical(p1.zero_potential()) == pytest.approx(0.0, abs=1e-12)
    assert entropy_classical(bump) > 0.0
    assert entropy_classical(bump.shifted(2.0)) == pytest.approx(
        entropy_classical(bump), abs=1e-12
    )


def test_entropy_is_canonical_vs_ma_relative_entropy(p1, bump):
    """S agrees with the direct relative entropy of the two measures."""
    from qkrf.geometry import ma_density

    cm = canonical_measure(bump)
    ma_w = ma_density(bump) * p1.node_weights / p1.volume
    direct = float(np.dot(cm, np.log(cm) - np.log(ma_w)))
    assert entropy_classical(bump) == pytest.approx(direct, abs=1e-10)


def test_e_k_scaling_and_d_k_invariance(p1):
    rng = np.random.default_rng(61)
    h = HermForm(2, random_herm_pd(rng, 5))
    ref = HermForm(2, np.eye(5))
    assert e_k(h, h) == pytest.approx(0.0, abs=1e-14)
    c = 2.5
    assert e_k(h.scaled(c), ref) == pytest.approx(
        e_k(h, ref) - np.log(c) / 2, abs=1e-12
    )
    assert d_k(p1, h.scaled(c), ref) == pytest.approx(d_k(p1, h, ref), abs=1e-11)


def test_s_k_zero_at_balanced(p1):
    for k in p1.levels:
        h = project(p1.zero_potential(), k)
        assert s_k(p1, h) <= 1e-10


def test_s_k_positive_off_balance(p1):
    rng = np.random.default_rng(67)
    h = HermForm(2, random_herm_pd(rng, 5, spread=0.5))
    assert s_k(p1, h) > 0.0


def test_s_k_scale_invariance(p1):
    rng = np.random.default_rng(71)
    h = HermForm(1, random_herm_pd(rng, 3, spread=0.5))
    assert s_k(p1, h.scaled(4.0)) == pytest.approx(s_k(p1, h), abs=1e-11)


def test_conjugate_canonical_weights_attain(p1):
    rng = np.random.default_rng(73)
    h = HermForm(2, random_herm_pd(rng, 5, spread=0.6))
    b = gen_eig(balancing(p1, h), h)
    lam = canonical_conjugate_weights(b, 2)
    assert conjugate_value(b, 2, lam) == pytest.approx(s_k(p1, h), abs=1e-12)


def test_conjugate_trials_never_exceed(p1):
    rng = np.random.default_rng(79)
    h = HermForm(2, random_herm_pd(rng, 5, spread=0.6))
    value = s_k(p1, h)
    b = gen_eig(balancing(p1, h), h)
    trials = [rng.standard_normal(5) for _ in range(40)]
    best = max(conjugate_value(b, 2, lam) for lam in trials)
    assert best <= value + 1e-12
    with pytest.raises(FunctionalError):
        conjugate_value(b, 2, np.zeros(4))


def test_f_k_na_translation_and_trivial(p1):
    nu = NAForm(2, np.array([1.0, 0.5, 0.2, 0.0, -0.3]), np.eye(5, dtype=complex))
    base = f_k_na(nu)
    assert f_k_na(nu.shifted(0.8)) == pytest.approx(base + 0.4, abs=1e-13)
    flat = NAForm(2, np.zeros(5), np.eye(5, dtype=complex))
    assert f_k_na(flat) == pytest.approx(0.0, abs=1e-14)


def test_balanced_entropy_matches_rel_entropy(p1):
    """s_k is the normalized relative entropy of b_k(H) against H."""
    from qkrf.hermforms import gen_eig

    rng = np.random.default_rng(83)
    h = HermForm(1, random_herm_pd(rng, 3, spread=0.5))
    mu = gen_eig(balancing(p1, h).entries, h.entries)
    assert s_k(p1, h) == pytest.approx(float(np.sum(mu * np.log(mu)) / 3.0), abs=1e-12)
