"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public entry points of the perturbsde layers from the
outside, by module attribute, so the package itself carries no tracing code.
Every binding of a wrapped function is replaced, including the names that
other modules import with ``from .x import f`` and the entries of
``verify.ALL_SUITES``.  A span records its name, the span that was open when
it started, and its start and end times; spans stay in memory until the run
ends.  Counters record work done at the same boundaries (path steps, rows
written, fallbacks taken) without opening a span.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover, so the self times of all spans plus the
time outside every span add up to the traced wall time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import sys
import time
from typing import Callable

# (module, attribute) pairs that get a span; the span name is "module.attr".
SPAN_TARGETS = (
    ("cli", "main"),
    ("integrate", "simulate_terminal"),
    ("integrate", "simulate_batch"),
    ("integrate", "euler_path"),
    ("integrate", "explicit_additive_path"),
    ("integrate", "picard_solve"),
    ("model", "validate"),
    ("density", "kde"),
    ("density", "smoothness_diagnostic"),
    ("malliavin", "propagate_derivative_batch"),
    ("malliavin", "cameron_martin_fd"),
    ("lamperti", "build_transform"),
    ("lamperti", "inverse"),
    ("io", "write_csv"),
    ("io", "write_json"),
    ("bounds", "regime_report"),
)

# Calls that are only counted: they sit inside a wrapped span whose self
# time they should stay part of, or they are too small and frequent to time.
COUNT_TARGETS = (
    ("density", "_kernel_sums", "density.kde.rungs"),
    ("lamperti", "brentq", "lamperti.inverse.fallbacks"),
    ("bounds", "final_lower_bound", "bounds.final_lower_bound.calls"),
)


def self_times(spans) -> list[float]:
    """Self time of each span in ``spans``.

    ``spans`` is a sequence of ``(name, parent, start, end)`` where
    ``parent`` is the index of the enclosing span or -1.  A span's self
    time is its duration minus the durations of its direct children; the
    calls are on one thread, so children nest inside their parent and never
    overlap.
    """
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and self time."""
    summary: dict[str, dict[str, float]] = {}
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        entry = summary.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return summary


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, on_return=None) -> Callable:
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``on_return(counts, arguments, result)`` runs after the span has
        closed, with the call's arguments bound to parameter names.
        """
        signature = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, parent, self.clock(), None]
            self.spans.append(record)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[3] = self.clock()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self.counts, bound.arguments, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that each call increments ``counts[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# -- counters attached to span boundaries -------------------------------------


def _count_batch_steps(counts, a, result):
    counts["integrate.path_steps"] += a["n_paths"] * a["grid"].n_steps


def _count_simulate_batch(counts, a, result):
    _count_batch_steps(counts, a, result)
    new_max = result.new_max[1:]
    counts["integrate.new_max_steps"] += int(new_max.sum())
    counts["integrate.batch_steps"] += new_max.size


def _count_euler_path(counts, a, result):
    counts["integrate.path_steps"] += a["noise"].n_steps


def _count_picard(counts, a, result):
    counts["integrate.picard_solve.iterations"] += result.n_iterations


def _count_slot_bytes(counts, a, result):
    batch = a["batch"]
    # two (paths x steps) float64 slot matrices: values and max-derivatives
    counts["malliavin.slot_bytes"] += 2 * batch.n_paths * batch.n_steps * 8


def _count_csv(counts, a, result):
    first = next(iter(a["columns"].values()))
    counts["io.write_csv.rows"] += len(first)
    counts["io.bytes_written"] += os.path.getsize(a["path"])


def _count_json(counts, a, result):
    counts["io.bytes_written"] += os.path.getsize(a["path"])


ON_RETURN = {
    "integrate.simulate_terminal": _count_batch_steps,
    "integrate.simulate_batch": _count_simulate_batch,
    "integrate.euler_path": _count_euler_path,
    "integrate.picard_solve": _count_picard,
    "malliavin.propagate_derivative_batch": _count_slot_bytes,
    "io.write_csv": _count_csv,
    "io.write_json": _count_json,
}


def _rebind(modules, original, replacement) -> None:
    """Replace every module-level binding of ``original``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the perturbsde layer entry points in place.

    Imports every layer first so that all ``from .x import f`` bindings
    exist before they are replaced.
    """
    layers = {name: importlib.import_module(f"perturbsde.{name}")
              for name in ("cli", "integrate", "model", "density",
                           "malliavin", "lamperti", "io", "bounds",
                           "verify")}
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "perturbsde"
                                     or key.startswith("perturbsde."))]
    for mod_name, attr in SPAN_TARGETS:
        original = getattr(layers[mod_name], attr)
        name = f"{mod_name}.{attr}"
        _rebind(modules, original,
                tracer.span(name, original, ON_RETURN.get(name)))
    for mod_name, attr, name in COUNT_TARGETS:
        original = getattr(layers[mod_name], attr)
        _rebind(modules, original, tracer.counter(name, original))
    suites = layers["verify"].ALL_SUITES
    for suite, fn in list(suites.items()):
        suites[suite] = tracer.span(f"verify.{suite}", fn)
