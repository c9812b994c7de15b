"""Span tracing of the qkrf layers, installed from outside the package.

The tracer replaces the public functions of each qkrf module by thin
wrappers that record a span (name, start, end, parent) in memory.  Every
module attribute that holds an original function is rebound, so calls
made through names another module imported (``from .maps import
balancing``) are seen as well.  A layer is the module a span name starts
with; a span's self time is its duration minus the time its direct
children cover, so the self times of all spans add up to the duration of
the root spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import os
import time
import weakref
from collections import defaultdict

LAYERS = ("experiments", "flows", "maps", "hermforms", "energies", "geometry", "nanorms")

# File writes form one leaf span: the formatting they call stays inside it.
IO_SPAN = "experiments.io"


class Tracer:
    """Records spans and counters while installed; restores the package on exit."""

    def __init__(self, package):
        self.package = package
        self._patched: list = []  # (owner, attribute, original)
        self.reset()

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        self.spans: list = []  # [name, start, end, parent index]
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._in_leaf = 0
        self._section_levels = weakref.WeakKeyDictionary()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def _wrap(self, name: str, fn, split=None, after=None):
        tracer = self
        leaf = name == IO_SPAN

        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            span = name
            if split is not None:
                span = f"{name}.{'diag' if split(*args) else 'dense'}"
            record = [span, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer._in_leaf += leaf
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._in_leaf -= leaf
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    name, split, after = _SPECIAL.get((layer, attr), (f"{layer}.{attr}", None, None))
                    wrappers[id(value)] = (value, self._wrap(name, value, split, after))
            # scipy's logsumexp, bound once in each module that imports it
            if "logsumexp" in vars(mod):
                self._set(mod, "logsumexp", self._wrap(f"{layer}.logsumexp", mod.logsumexp))
        for mod in [self.package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._set(mod, attr, wrapper)

        methods = [
            (modules["geometry"].ProjectiveLineModel, "__init__", "geometry.model_build", None),
            (modules["geometry"].ProjectiveLineModel, "radial_laplacian",
             "geometry.radial_laplacian", None),
            (modules["geometry"].ProjectiveLineModel, "sections", "geometry.sections",
             _after_sections),
            (modules["hermforms"].HermForm, "__post_init__", "hermforms.HermForm", None),
            (modules["flows"].FlowTrace, "save", IO_SPAN, _after_trace_save),
            (modules["experiments"].RunManifest, "to_json", IO_SPAN, _after_manifest),
        ]
        for owner, attr, name, after in methods:
            self._set(owner, attr, self._wrap(name, getattr(owner, attr), after=after))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction -----------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict = defaultdict(int)
        total_s: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += (end - start) - child
        return calls, total_s, self_s

    def write(self, path: str) -> None:
        """Write the recorded spans and counters as gzipped JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


# ---------------------------------------------------------------------------
# path tests and counters read from arguments and results


def _diag_potential(phi, *rest, **kwargs) -> bool:
    return phi.model.supports_radial and phi.is_radial


def _diag_form(model, h, *rest, **kwargs) -> bool:
    return model.supports_radial and h.is_diagonal


def _after_classical(tracer, args, kwargs, trace):
    samples = len(trace.times) - 1
    tracer.count("flows.classical.steps",
                 samples * round(trace.meta["sample_dt"] / trace.meta["dt"]))
    tracer.count("flows.classical.restarts", trace.meta["restarts"])


def _after_quantized(tracer, args, kwargs, trace):
    span = float(trace.times[-1] - trace.times[0])
    tracer.count("flows.quantized.steps", round(span / trace.meta["dt"]))


def _after_slope(tracer, args, kwargs, estimate):
    call = inspect.signature(tracer.package.nanorms.l_na_slope).bind(*args, **kwargs)
    call.apply_defaults()
    t_max = call.arguments["t_max"]
    tracer.count("nanorms.slope.attempts")
    tracer.count("nanorms.slope.converged", float(estimate.converged))
    tracer.count("nanorms.slope.doublings",
                 round(math.log2(float(estimate.ladder_times[0]) / float(t_max))))


def _after_bergman(tracer, args, kwargs, data):
    """Bytes of section data the Bergman sum contracts."""
    model, h = args[0], args[1]
    n = model.nk(h.level)
    if _diag_form(model, h):
        read = n * model.radial_count * 8  # radial squared amplitudes, float64
    else:
        read = 2 * n * model.node_count * 16  # sections and their solve, complex128
    tracer.count("maps.bergman.bytes_computed", read)


def _after_sections(tracer, args, kwargs, array):
    model, k = args[0], args[1]
    seen = tracer._section_levels.setdefault(model, set())
    if k not in seen:
        seen.add(k)
        tracer.count("geometry.sections.bytes", array.nbytes)


def _after_table(tracer, args, kwargs, result):
    tracer.count("experiments.io.bytes", os.path.getsize(args[0]))


def _after_manifest(tracer, args, kwargs, result):
    tracer.count("experiments.io.bytes", os.path.getsize(args[1]))


def _after_trace_save(tracer, args, kwargs, paths):
    tracer.count("experiments.io.bytes", sum(os.path.getsize(p) for p in paths))


# (layer, function) -> (span name, path test, counter hook)
_SPECIAL = {
    ("maps", "project"): ("maps.project", _diag_potential, None),
    ("maps", "bergman_data"): ("maps.bergman_data", _diag_form, _after_bergman),
    ("maps", "balancing"): ("maps.balancing", _diag_form, None),
    ("flows", "classical_krf_run"): ("flows.classical_krf_run", None, _after_classical),
    ("flows", "quantized_flow_run"): ("flows.quantized_flow_run", None, _after_quantized),
    ("nanorms", "l_na_slope"): ("nanorms.l_na_slope", None, _after_slope),
    ("experiments", "write_table_csv"): (IO_SPAN, None, _after_table),
}
