"""qkrf benchmark: time checked experiment runs, end to end and per layer.

Run from the root of a source checkout:

    python3 qkrfbench/run.py --workload krf-classical --seed 1 --seconds 35 --trace 0

One operation is one ``qkrf.run_experiment`` call on a config generated
from the seed (see ``workloads.py``); one pass runs every operation of the
workload once.  Passes repeat until ``--seconds`` have gone by.  Every
operation's output is checked (``gate.py``) and must equal the first
pass's output exactly.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds of one pass, untraced;
* ``setup_s``: median, over fresh interpreter processes started between
  the passes, of the seconds from process start to the first operation it
  could time: interpreter start, ``import qkrf`` and a small warm-up run
  that finishes the lazy imports;

  both scaled to a reference host speed by a fixed calibration kernel
  timed between the operations (``calibrate.py``); the raw medians are
  in the provenance line;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: span counts and self times per qkrf module and
function (``spans.py``), solver counters, the tracing overhead, and the
``probe.*`` per-call timings (``probes.py``).

The last line of standard output is the result object; the line before it
holds the provenance (versions, BLAS, threads, commit, seed and the sample
count behind each median).  ``--record`` stores the seed's outputs as the
reference the gate compares against, and ``--write-benchmark-json``
writes ``BENCHMARK.json`` from the tables below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gate
import probes
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".qkrfbench"
SETUP_SAMPLES = 10
RUN_SECONDS = 35

WHY = {
    "krf-classical": "thmA-gap at M = 128 plus the 2x grid: almost pure classical RK4 "
    "(flows.classical_krf_run, energies.log_ricci_profile, geometry.radial_laplacian)",
    "quantized-diagonal": "euler-gap, thmB-entropy and balanced-fixed-point up to k = 64: "
    "diagonal paths of maps/flows/energies and O(N^3) HermForm validation, no classical solve",
    "quantized-dense": "monotonicity from random dense starts, duality and na-panel: dense "
    "eigh/gen_eig/solve on N x nodes sections, nanorms slopes and CSV writes, no classical solve",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in spans.LAYERS]
    + [
        ("process.cpu_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("flows.classical_krf_run.self_s", "s", "lower"),
        ("flows.classical_krf_run.total_s", "s", "lower"),
        ("flows.classical.steps", "count", "lower"),
        ("flows.classical.restarts", "count", "lower"),
        ("flows.quantized_flow_run.self_s", "s", "lower"),
        ("flows.quantized.steps", "count", "lower"),
        ("flows.bergman_iterate.self_s", "s", "lower"),
    ]
    + [
        (f"{fn}.{kind}", "count" if kind == "calls" else "s", "lower")
        for fn in (
            "energies.log_ricci_profile",
            "energies.logsumexp",
            "geometry.radial_laplacian",
            "hermforms.HermForm",
            *(f"maps.{f}.{p}" for f in ("project", "bergman_data", "balancing")
              for p in ("diag", "dense")),
            "hermforms.gen_eig",
            "hermforms.matrix_log",
            "hermforms.matrix_exp",
            "hermforms.log_gap",
            "nanorms.l_na_slope",
            "nanorms.ray_l_value",
            "nanorms.na_norm_value",
        )
        for kind in ("calls", "self_s")
    ]
    + [
        ("maps.logsumexp.self_s", "s", "lower"),
        ("maps.bergman.bytes_computed", "B", "lower"),
        ("nanorms.slope.doublings", "count", "lower"),
        ("nanorms.slope.converged_ratio", "ratio", "higher"),
        ("experiments.io.bytes", "B", "lower"),
        ("experiments.io.self_s", "s", "lower"),
        ("geometry.model_build_s", "s", "lower"),
        ("geometry.sections.bytes", "B", "lower"),
    ]
    + [
        (f"probe.{name}_us", "us", "lower")
        for name in (
            *(f"{fn}.diag_k{k}" for fn in ("project", "balancing", "s_k") for k in (8, 32, 64)),
            "balancing.dense_k2",
            "balancing.dense_k3",
            "log_ricci_profile.m128",
            "log_ricci_profile.m256",
            "quantized_rk4_step.dense_k2",
            "l_na_slope.k2",
        )
    ]
)

# Tiny configs run before timing; the second reaches the lazy import in the
# rate fit.
WARMUP = [
    {"experiment": "balanced-fixed-point", "k_max": 2, "radial_nodes": 16, "angular_nodes": 16},
    {"experiment": "euler-gap", "k_list": [1, 2, 3], "radial_nodes": 16, "angular_nodes": 16,
     "t_max": 1.0, "refine": 2},
]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _one_thread() -> None:
    """One BLAS thread and ``QKRF_THREADS`` at its default of 1.

    The package's matrices have at most 129 rows, where a second BLAS
    thread gains little and, when another process shares the cores,
    slows a pass several times over.  ``QKRF_THREADS`` above 1 would run
    the per-level loops in a thread pool, which changes the timed work
    and breaks the tracer's single span stack.  Must run before numpy and
    qkrf are imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QKRF_THREADS"):
        os.environ[var] = "1"


def _import_qkrf():
    sys.path.insert(0, str(SRC))
    import qkrf

    if Path(qkrf.__file__).resolve().parent != (SRC / "qkrf").resolve():
        raise ImportError(f"qkrf imported from {qkrf.__file__}, not from {SRC}")
    return qkrf


def _warm_up(qkrf, out: Path) -> None:
    for i, config in enumerate(WARMUP):
        qkrf.run_experiment(config, str(out / f"warmup{i}"))


def _setup_child() -> int:
    qkrf = _import_qkrf()
    out = OUT / f"setup-{os.getpid()}"
    try:
        _warm_up(qkrf, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("ready", flush=True)
    return 0


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until it is ready to time."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("setup process failed")
    return elapsed


# ---------------------------------------------------------------------------
# passes


def run_pass(qkrf, configs: list, out: Path, expected: list | None, between=None) -> dict:
    """Run every operation once; time each call and check its output.

    ``between(seconds)``, if given, runs untimed after each operation.
    """
    seconds, outputs, problems = [], [], []
    for i, config in enumerate(configs):
        start = time.perf_counter()
        try:
            manifest = qkrf.run_experiment(config, str(out / f"op{i}"))
        except Exception as exc:  # an operation that raises is a failed operation
            seconds.append(time.perf_counter() - start)
            outputs.append(None)
            problems.append([f"{type(exc).__name__}: {exc}"])
            continue
        seconds.append(time.perf_counter() - start)
        if between is not None:
            between(seconds[-1])
        outputs.append(gate.outputs(manifest))
        want = None if expected is None else (expected[i] if i < len(expected) else {})
        problems.append(gate.check(manifest, want))
    return {"seconds": seconds, "outputs": outputs, "problems": problems}


def _count_failures(passes: list) -> tuple:
    """Failed operations: a gate problem, or an output that differs from the first pass."""
    first = passes[0]["outputs"]
    failed, notes = 0, []
    for p in passes:
        for i, (out, problems) in enumerate(zip(p["outputs"], p["problems"])):
            if out is not None and first[i] is not None and (
                sorted(out) != sorted(first[i])
                or any(not _identical(out[n], first[i][n]) for n in out)
            ):
                problems = problems + ["output differs from the first pass"]
            if problems:
                failed += 1
                notes += [f"op{i}: {msg}" for msg in problems]
    return failed, sorted(set(notes))


def _identical(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


def layer_metrics(tracer) -> dict:
    calls, total_s, self_s = tracer.totals()
    counters = tracer.counters
    values = {}
    for name, *_ in PER_LAYER:
        if name.startswith(("probe.", "process.", "trace.")):
            continue
        if name.endswith(".self_s") and name[: -len(".self_s")] in spans.LAYERS:
            layer = name.split(".")[0]
            values[name] = sum(v for n, v in self_s.items() if n.split(".")[0] == layer)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".total_s"):
            values[name] = total_s.get(name[: -len(".total_s")], 0.0)
        elif name == "geometry.model_build_s":
            values[name] = total_s.get("geometry.model_build", 0.0)
        elif name == "nanorms.slope.converged_ratio":
            attempts = counters.get("nanorms.slope.attempts", 0.0)
            values[name] = counters["nanorms.slope.converged"] / attempts if attempts else 1.0
        else:
            values[name] = counters.get(name, 0.0)
    return values


def measure(qkrf, configs, seconds: float, trace: bool, expected, spans_path: Path,
            setup_samples: int):
    """Timed passes until ``seconds`` have gone by.

    With ``trace``, traced passes alternate with untraced ones so that both
    see the same machine.  The ``setup_samples`` set-up timings are taken
    between passes, one per ``seconds / setup_samples``, so that like the
    passes they span the whole run and average over the host's slow and
    fast phases.  Untraced runs also time the calibration kernel after
    each operation.
    """
    out = OUT / f"run-{os.getpid()}"
    tracer = spans.Tracer(qkrf)
    calibration = None if trace else calibrate.Calibration()
    untraced, traced, layers, cpu, setup = [], [], [], [], []
    try:
        passes = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline or not untraced or (trace and not traced):
            if trace and len(passes) % 2 == 1:
                tracer.reset()
                cpu_start = time.process_time()
                with tracer:
                    result = run_pass(qkrf, configs, out, expected)
                cpu.append(time.process_time() - cpu_start)
                layers.append(layer_metrics(tracer))
                traced.append(sum(result["seconds"]))
            else:
                result = run_pass(qkrf, configs, out, expected,
                                  calibration and calibration.after)
                untraced.append(sum(result["seconds"]))
            passes.append(result)
            while (len(setup) < setup_samples
                   and time.perf_counter() - start >= len(setup) * seconds / setup_samples):
                setup.append(measure_setup())
        if trace:
            tracer.write(str(spans_path))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return passes, untraced, traced, layers, cpu, setup, calibration


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int, samples: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "QKRF_THREADS": int(os.environ["QKRF_THREADS"]),
        "nproc": _nproc(),
        "commit": _git_commit(),
        "seed": seed,
        "samples": samples,
    }


def write_benchmark_json(path: Path) -> None:
    spec = {
        "command": ["python3", "qkrfbench/run.py"],
        "paths": ["qkrfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    path.write_text(json.dumps(spec, indent=2) + "\n")


def record_reference(workload: str, seed: int, configs: list) -> int:
    """Run one pass and store its outputs as the seed's reference."""
    qkrf = _import_qkrf()
    out = OUT / f"record-{os.getpid()}"
    try:
        result = run_pass(qkrf, configs, out, None)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    problems = [msg for ops in result["problems"] for msg in ops]
    if problems:
        print(f"error: not recording failed operations: {problems}", file=sys.stderr)
        return 1
    reference = gate.load_reference()
    reference.setdefault(workload, {})[str(seed)] = result["outputs"]
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as the gate's reference")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        write_benchmark_json(ROOT / "BENCHMARK.json")
        return 0
    if not (SRC / "qkrf" / "__init__.py").is_file():
        print(f"error: no qkrf source under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    _one_thread()
    if args.setup_child:
        return _setup_child()
    if args.workload is None:
        parser.error("--workload is required")

    configs = workloads.configs(args.workload, args.seed)
    if args.record:
        return record_reference(args.workload, args.seed, configs)

    qkrf = _import_qkrf()
    _warm_up(qkrf, OUT / f"run-{os.getpid()}-warmup")
    shutil.rmtree(OUT / f"run-{os.getpid()}-warmup", ignore_errors=True)

    expected = gate.load_reference().get(args.workload, {}).get(str(args.seed))
    if expected is None:
        print(f"warning: no reference recorded for {args.workload} seed {args.seed}; "
              "only the seed-independent checks apply", file=sys.stderr)
    spans_path = OUT / f"spans-{args.workload}.json.gz"
    passes, untraced, traced, layers, cpu, setup, calibration = measure(
        qkrf, configs, args.seconds, bool(args.trace), expected, spans_path,
        0 if args.trace else SETUP_SAMPLES,
    )
    failed, notes = _count_failures(passes)
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    if args.trace:
        values = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        values["process.cpu_s"] = statistics.median(cpu)
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        probe_values, probe_samples = probes.run(qkrf)
        values.update(probe_values)
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                   "probe_calls": probe_samples}
    else:
        scale = calibration.scale()
        values = {
            "wall_s": scale * statistics.median(untraced),
            "setup_s": scale * statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"wall_s": len(untraced), "setup_s": len(setup), "peak_rss_mb": 1,
                   "calibration_chunks": len(calibration.seconds),
                   "host_scale": scale,
                   "raw_wall_s": statistics.median(untraced),
                   "raw_setup_s": statistics.median(setup),
                   "pass_seconds": untraced, "setup_seconds": setup}

    print(json.dumps({"provenance": provenance(args.seed, samples),
                      "reference_checked": expected is not None}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(p["outputs"]) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
