"""Span tracing of fsim's layers from outside the package.

A :class:`Tracer` replaces each traced function at every ``fsim`` module
binding that holds it (``fsim.locfit.transform_inplace`` as well as
``fsim.kernel.transform_inplace``), because callers resolve the module global
at call time.  Each call records one span: layer name, start, end, parent
span and fit id, plus a few counts read from the call's arguments and result.
Spans stay in memory until :meth:`Tracer.write`; every binding is restored
when the ``with tracer.installed():`` block exits.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import numpy as np
from fsim.model import DegenerateObjectiveError


def _transform_counts(args, kwargs, result, error):
    return {"elements": int(np.size(args[0]))}


def _nw_counts(args, kwargs, result, error):
    n = int(np.size(args[0]))
    return {"pairs": n * (n - 1)}


def _select_counts(args, kwargs, result, error):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    counts = {"grid": int(grid.values.size), "usable": 0}
    if result is not None:
        counts["usable"] = int(np.count_nonzero(np.isfinite(result.scores)))
        counts["norm"] = float(np.linalg.norm(result.best_fit.spec.coefficient_vector()))
    return counts


def _objective_counts(args, kwargs, result, error):
    n = int(args[0].n)
    if result is not None:
        excluded = int(result.excluded_count)
    else:
        excluded = n if isinstance(error, DegenerateObjectiveError) else 0
    return {"n": n, "excluded": excluded}


def _minimize_counts(args, kwargs, result, error):
    if result is None:
        return {}
    return {"evals": int(result.evaluations), "converged": int(result.converged)}


def _rase_counts(args, kwargs, result, error):
    return {} if result is None else {"relocated": int(result.relocated)}


def _relocated_counts(args, kwargs, result, error):
    return {} if result is None else {"moved": int(result[1])}


def _curve_counts(args, kwargs, result, error):
    if result is None:
        return {"points": int(np.size(args[2]))}
    return {"points": int(result.size), "nan_points": int(np.count_nonzero(np.isnan(result)))}


# (layer name, module, attribute, counts read from args/result or None)
LAYERS = (
    ("kernel.transform_inplace", "fsim.kernel", "transform_inplace", _transform_counts),
    ("kernel.smooth_kernel", "fsim.kernel", "smooth_kernel", None),
    ("locfit.nw_loo_all", "fsim.locfit", "nw_loo_all", _nw_counts),
    ("locfit.smoother_matrix", "fsim.locfit", "smoother_matrix", None),
    ("locfit.relocated_fit", "fsim.locfit", "relocated_fit", _relocated_counts),
    ("locfit.curve_estimates", "fsim.locfit", "curve_estimates", _curve_counts),
    ("model.objective_loo_mse", "fsim.model", "objective_loo_mse", _objective_counts),
    ("optimize.minimize", "fsim.optimize", "minimize", _minimize_counts),
    ("optimize.init_random", "fsim.optimize", "init_random", None),
    ("bandwidth.gcv_score", "fsim.bandwidth", "gcv_score", None),
    ("bandwidth.kfold_score", "fsim.bandwidth", "kfold_score", None),
    ("bandwidth.select_bandwidth", "fsim.bandwidth", "select_bandwidth", _select_counts),
    ("simulate.generate", "fsim.simulate", "generate", None),
    ("simulate.rase", "fsim.simulate", "rase", _rase_counts),
    ("ingest.synth_ecology", "fsim.ingest", "synth_ecology", None),
    ("ingest.load_csv", "fsim.ingest", "load_csv", None),
    ("ingest.to_dataset", "fsim.ingest", "to_dataset", None),
    ("cli.fit", "fsim.cli", "cmd_fit", None),
    ("cli.plot", "fsim.cli", "cmd_plot", None),
    ("svg.line_chart", "fsim.svg", "line_chart", None),
)

# compulsory traffic of one in-place kernel transform: read and write one float64
BYTES_PER_ELEMENT = 16


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, fit, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.fit = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.fit, None]
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result, error) if counter else {}
                if error is not None:
                    counts["failed"] = 1
                span[5] = counts or None

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every fsim binding of every traced function; restore on exit."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fsim" or name.startswith("fsim."))]
        patched = []
        try:
            for name, module_name, attr, counter in LAYERS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so they neither overlap each
    other nor leave their parent's interval; abutting children both count.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def covered_seconds(spans, fits) -> float:
    """Time inside top-level spans recorded for the given fit ids."""
    return sum(s[2] - s[1] for s in spans if s[3] is None and s[4] in fits)


def layer_metrics(names, spans, traced_wall: float, untraced_wall: float,
                  covered: float) -> dict:
    """Each named per-layer metric, ``<layer>.<kind>``; zero for layers never called.

    ``calls``, ``self_s`` and every count a layer records sum over its spans;
    the ratios below are formed from those sums.
    """
    known = {layer for layer, *_ in LAYERS} | {"trace"}
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in (span[5] or {}).items():
            entry[key] = entry.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in names:
        layer, metric = name.rsplit(".", 1)
        if layer not in known:
            raise ValueError(f"{name}: no traced layer {layer!r}")
        entry = totals.get(layer, {})
        if metric == "bytes_computed":
            value = BYTES_PER_ELEMENT * entry.get("elements", 0)
        elif metric == "overhead_us_per_eval":
            value = 1e6 * ratio(entry.get("self_s", 0.0), entry.get("evals", 0))
        elif metric == "excluded_frac":
            value = ratio(entry.get("excluded", 0), entry.get("n", 0))
        elif metric == "grid_usable_frac":
            value = ratio(entry.get("usable", 0), entry.get("grid", 0))
        elif metric == "overhead_frac":
            value = traced_wall / untraced_wall - 1.0
        elif metric == "covered_frac":
            value = ratio(covered, traced_wall)
        else:
            value = entry.get(metric, 0)
        metrics[name] = value
    return metrics
