import numpy as np
import pytest

from qkrf.experiments import family_potential
from qkrf.geometry import DiscreteModel, build_p1_model


@pytest.fixture(scope="session")
def p1():
    """Projective-line backend used by most tests, levels 1 to 3."""
    return build_p1_model(3, radial_nodes=96, angular_nodes=24)


@pytest.fixture(scope="session")
def p1_six():
    """Larger backend covering levels up to 6."""
    return build_p1_model(6, radial_nodes=96, angular_nodes=40)


@pytest.fixture(scope="session")
def discrete():
    """Atomic backend with seeded full-rank sections at levels 1 to 3."""
    rng = np.random.default_rng(20260811)
    m = 48
    weights = rng.uniform(0.5, 1.5, size=m)
    weights = weights / weights.sum()
    values = {}
    for k in (1, 2, 3):
        n = 2 * k + 1
        values[k] = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return DiscreteModel(values, weights)


@pytest.fixture(scope="session")
def bump(p1):
    """Mild radial test potential, well inside the admissible range."""
    return family_potential(p1, "bump", 0.3)
