"""Seeded qkrf experiment configs, one list per benchmark workload.

A workload is the list of configs handed to ``qkrf.run_experiment``; one
pass over it is the timed unit.  The seed picks only the inputs (potential
family and amplitude, random starts, norm panels); sizes are fixed, so
every seed asks for the same amount of solver work.
"""

from __future__ import annotations

import random

FAMILIES = ("bump", "sine")


def _amplitude(rng: random.Random) -> float:
    """A nonzero amplitude well inside the Kahler cone of both families.

    Below about -0.5 the sine family comes close enough to the cone's edge
    that the classical RK4 run restarts with a halved step, doubling the work.
    """
    return rng.choice((-1.0, 1.0)) * round(rng.uniform(0.15, 0.4), 6)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31 - 1)


def krf_classical(rng: random.Random) -> list:
    # One horizon of 1/16 at M = 128 and 256 radial nodes: 1024 and 4096 RK4
    # steps of the classical flow against three cheap diagonal quantized runs.
    return [
        {
            "experiment": "thmA-gap",
            "k_list": [16, 32, 64],
            "t_max": 0.0625,
            "radial_nodes": 128,
            "fine_factor": 2,
            "family": rng.choice(FAMILIES),
            "amplitude": _amplitude(rng),
        }
    ]


def quantized_diagonal(rng: random.Random) -> list:
    return [
        {
            "experiment": "euler-gap",
            "k_list": [8, 16, 32, 64],
            "t_max": 0.5,
            "family": rng.choice(FAMILIES),
            "amplitude": _amplitude(rng),
        },
        {
            "experiment": "thmB-entropy",
            "k_list": [8, 16, 24, 32, 40, 48, 56, 64],
            "family": rng.choice(FAMILIES),
            "amplitude": _amplitude(rng),
        },
        # at least 2k + 16 radial nodes keep the level-64 Gram integrals exact
        {"experiment": "balanced-fixed-point", "k_max": 64, "radial_nodes": 160},
    ]


def quantized_dense(rng: random.Random) -> list:
    return [
        {"experiment": "monotonicity", "k": 2, "runs": 3, "t_max": 1.0, "seed": _seed(rng)},
        {
            "experiment": "duality",
            "k_list": [1, 2],
            "panel": 9,
            "family": rng.choice(FAMILIES),
            "amplitude": _amplitude(rng),
            "seed": _seed(rng),
        },
        {"experiment": "na-panel", "k_list": [1, 2], "pairs": 2000, "seed": _seed(rng)},
    ]


WORKLOADS = {
    "krf-classical": krf_classical,
    "quantized-diagonal": quantized_diagonal,
    "quantized-dense": quantized_dense,
}


def configs(workload: str, seed: int) -> list:
    """The workload's configs for a seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
