"""Property test of the CLI: a config drawn over the schema never ends in a traceback.

Configs are drawn field by field from ``FIELD_SPECS`` for every
experiment, at small sizes: levels up to 3, at most 32 radial and 16
angular nodes, and horizons of at most 50 time steps.  Horizons are drawn
on the experiment's time grid, just off it, and below one step.  Whatever
is drawn, ``qkrf run`` must exit 0 (metrics passed), 1 (a metric failed),
2 (the config was rejected) or 3 (the run failed numerically), and no run
fails on its time grid: parsing rejects every horizon off it.  A run
directory that cannot be written exits 2 as well.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkrf import experiments
from qkrf.cli import main as cli_main
from qkrf.experiments import EXPERIMENTS, FIELD_SPECS

MAX_STEPS = 50
# Upper bounds that keep one run small, below the schema's own bounds.
SMALL = {
    "k": 3,
    "k_max": 3,
    "k_list": 3,
    "radial_nodes": 32,
    "angular_nodes": 16,
    "runs": 2,
    "panel": 3,
    "pairs": 40,
    "fine_factor": 3,
}
# Time steps per unit of t_max at the largest level k, for the runs whose
# step is fixed by the config: RK4 at 1/(refine k), and duality at 1/(4k).
STEPS_PER_UNIT = {
    "euler-gap": lambda p: max(p["k_list"]) * p["refine"],
    "thmA-gap": lambda p: max(p["k_list"]) * p["refine"],
    "duality": lambda p: 4 * max(p["k_list"]),
}
# The grid their horizons lie on: the levels' steps 1/k (and 1/(4k)) all
# divide it.
GRID = {
    "euler-gap": lambda p: 1 / math.lcm(*p["k_list"]),
    "thmA-gap": lambda p: 1 / math.lcm(*p["k_list"]),
    "duality": lambda p: 0.25 / math.lcm(*p["k_list"]),
}
# Run failures of a horizon off its time grid, which parsing rejects (exit 2).
GRID_ERRORS = re.compile(
    r"whole number of steps|multiple of 1/lcm|shorter than one step|not sampled"
)
# On the grid, off it by a hair or by half a step, or a short fraction of it.
STRETCHES = [1.0, 1.0, 1.0, 1.0 + 1e-6, 0.5 + 1e-3]


def _field(key: str) -> st.SearchStrategy:
    kind, *bounds = FIELD_SPECS[key]
    if kind == "choice":
        return st.sampled_from(bounds[0])
    lo, hi = bounds
    hi = min(hi, SMALL.get(key, hi))
    if kind == "int":
        return st.integers(lo, hi)
    if kind == "int_list":
        return st.lists(st.integers(lo, hi), min_size=1, max_size=6)
    return st.floats(lo, hi, allow_nan=False)


def _t_max(draw, name: str, params: dict) -> float:
    lo, hi = FIELD_SPECS["t_max"][1:]
    if "dt" in params:
        # whole step counts (slope-identity also runs at dt / 2), or off the grid
        steps = draw(st.integers(0, MAX_STEPS // 2))
        stretch = draw(st.sampled_from(STRETCHES))
        return min(max(steps * params["dt"] * stretch, lo), hi)
    per_unit = STEPS_PER_UNIT[name](params)
    grid = GRID[name](params)
    steps = draw(st.integers(1, max(1, int(MAX_STEPS / (per_unit * grid)))))
    stretch = draw(st.sampled_from(STRETCHES))
    on_grid = st.just(min(max(steps * grid * stretch, lo), hi))
    return draw(st.one_of(on_grid, st.floats(lo, MAX_STEPS / per_unit)))


@st.composite
def configs(draw, name: str) -> dict:
    defaults = EXPERIMENTS[name].defaults
    # a seed is drawn only for the experiments whose defaults have one
    params = {key: draw(_field(key)) for key in defaults if key != "t_max"}
    if "t_max" in defaults:
        params["t_max"] = _t_max(draw, name, params)
    return {"experiment": name, **params}


def run_cli(config: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli_main(["run", str(path), "--output-dir", str(Path(tmp) / "out")])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cli_run_never_ends_in_a_traceback(name):
    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(configs(name))
    def check(config):
        code, output = run_cli(config)
        assert code in (0, 1, 2, 3), output
        assert "Traceback" not in output
        if code == 3:
            assert not GRID_ERRORS.search(output), output

    check()


@pytest.mark.parametrize("where", ["config", "option"])
def test_cli_run_that_cannot_write_its_directory_exits_2(tmp_path, where):
    """A run directory below a file (config) or naming a file (option) is one stderr line."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    config, option = {"experiment": "balanced-fixed-point", "k_max": 2}, []
    if where == "config":
        config["output_dir"] = str(blocker / "x")
    else:
        option = ["--output-dir", str(blocker)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["run", str(path), *option])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: cannot write run directory: ")
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def test_cli_run_of_an_unstable_dense_flow_exits_3(monkeypatch):
    """A dense run that leaves the positive cone ends in exit 3 and names the time.

    The schema rejects RK4 steps beyond the stability limit, so the test
    lifts that limit and dt's bound to reach such a run from a config.
    """
    monkeypatch.setattr(experiments, "RK4_STABILITY_LIMIT", math.inf)
    monkeypatch.setitem(FIELD_SPECS, "dt", ("float", 1e-9, 2.0))
    code, output = run_cli({
        "experiment": "monotonicity", "k": 2, "dt": 2.0, "t_max": 40.0, "runs": 1,
        "radial_nodes": 32, "angular_nodes": 16,
    })
    assert code == 3, output
    assert "run failed: FlowError: quantized flow left the positive cone near t = " in output
    assert "Traceback" not in output
