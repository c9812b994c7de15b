"""Correctness gate for one ``run_experiment`` result.

Two checks make an operation fail:

* Seed-independent checks.  The metrics named in ``GATED`` hold for any
  input the workloads draw, so each must be present and pass.  Three
  metrics fail their thresholds and are compared with the reference
  below, but their pass flags are not gated: ``euler_gap_slope`` and
  ``thmb_final_ratio`` by design (acceptance criteria 3 and 5), and
  ``thma_slope`` at the horizon of 1/16 that ``krf-classical`` uses
  (-0.46 to +0.12 against its -0.8 on seeds 0-63; the default horizon
  would make a pass about 78 s long).
* Reference values.  For a seed recorded in ``reference.json`` every
  manifest metric value must match the stored one within
  ``|a - b| <= RTOL * max(|a|, |b|) + ATOL``.  The tolerance admits a
  solver change at round-off level (1e-11) and rejects a changed result.
"""

from __future__ import annotations

import fnmatch
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RTOL = 1e-6
ATOL = 1e-10

GATED = {
    "thmA-gap": ("thma_resolution_gap",),
    "balanced-fixed-point": ("fixed_point_residual", "fixed_point_entropy", "gram_k1_oracle"),
    "thmB-entropy": ("thmb_zero_case",),
    "euler-gap": (),
    "monotonicity": ("monotonicity_excess",),
    "duality": ("duality_identity_k*",),
    "na-panel": (
        "na_ultrametric_violations",
        "na_dh_moment_deviation",
        "na_free_energy_oracle",
        "na_trivial_slope",
        "na_constant_slope_deviation",
    ),
}


def outputs(manifest) -> dict:
    """The checked output of one operation: metric name -> value."""
    return {m["name"]: float(m["value"]) for m in manifest.metrics}


def same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def load_reference() -> dict:
    """Recorded outputs: workload -> seed -> one metric dict per operation."""
    if not REFERENCE_PATH.is_file():
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(manifest, expected: dict | None) -> list:
    """Problems with one operation's manifest; empty when it is correct."""
    problems = []
    by_name = {m["name"]: m for m in manifest.metrics}
    for pattern in GATED[manifest.experiment]:
        matched = [m for name, m in by_name.items() if fnmatch.fnmatchcase(name, pattern)]
        if not matched:
            problems.append(f"{manifest.experiment}: no metric {pattern}")
        problems += [
            f"{m['name']} = {m['value']:.6g} fails {m['op']} {m['threshold']:.6g}"
            for m in matched
            if not m["passed"]
        ]
    if expected is not None:
        got = outputs(manifest)
        if sorted(got) != sorted(expected):
            problems.append(f"metric names {sorted(got)} differ from the reference")
        problems += [
            f"{name} = {got[name]!r} differs from the reference {value!r}"
            for name, value in expected.items()
            if name in got and not same(got[name], float(value))
        ]
    return problems
