"""Spans around the public calls of each quatspectra layer, installed from outside.

A :class:`Tracer` replaces each traced function under every name it is looked
up by (its own module and the modules that import it by name), for the length
of one traced run, and then puts the originals back; the library source is
not edited.  Spans are kept in memory as ``[name, start, end, parent, size]``
lists, ``size`` being the complex matrix dimension N where a computed kernel
counter needs it, and are written out by the caller at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_MODULES = ("quatspectra", "quatspectra.quaternion", "quatspectra.structure",
            "quatspectra.ensemble", "quatspectra.spectra",
            "quatspectra.experiment", "quatspectra.cli")


def _dim(m) -> int:
    return int(getattr(m, "values", m).shape[0])


def _pairing(counters, sample):
    counters["pairing_residual_max"] = max(
        counters.get("pairing_residual_max", 0.0), sample.pairing_residual)


def _pipeline(counters, result):
    for stage in result[1].stages:
        counters["truncated_entries"] = counters.get("truncated_entries", 0) + stage.truncated_count
        counters["variance_floor_replacements"] = (
            counters.get("variance_floor_replacements", 0) + stage.variance_floor_replacements)


def _type2(counters, report):
    counters["type2_trials"] = counters.get("type2_trials", 0) + report.trials
    counters["type2_resamples"] = counters.get("type2_resamples", 0) + report.resamples


# (module, attribute, span name, problem size from the call's arguments,
#  hook reading health values from the result)
_TARGETS = (
    ("spectra", "embed", "spectra.embed", lambda a: 2 * a[0].n, None),
    ("spectra", "hermitian_eigenvalues", "spectra.hermitian_eigenvalues",
     lambda a: _dim(a[0]), None),
    ("spectra", "dedup_pairs", "spectra.dedup_pairs", None, None),
    ("spectra", "SpectralSample.from_matrix", "spectra.SpectralSample.from_matrix",
     None, _pairing),
    ("spectra", "empirical_stieltjes", "spectra.empirical_stieltjes", None, None),
    ("spectra", "kolmogorov_distance", "spectra.kolmogorov_distance", None, None),
    ("spectra", "levy_distance", "spectra.levy_distance", None, None),
    ("spectra", "resolvent", "spectra.resolvent", lambda a: _dim(a[0]), None),
    ("spectra", "resolvent_structure_check", "spectra.resolvent_structure_check",
     None, None),
    ("spectra", "trace_minor_check", "spectra.trace_minor_check", None, None),
    ("spectra", "histogram_csv", "spectra.histogram_csv", None, None),
    ("ensemble", "sample_general", "ensemble.sample_general", None, None),
    ("ensemble", "run_pipeline", "ensemble.run_pipeline", None, _pipeline),
    ("ensemble", "truncate", "ensemble.truncate", None, None),
    ("ensemble", "zero_diagonal", "ensemble.zero_diagonal", None, None),
    # The pipeline's centralize stage is centralize_stage wrapping centralize;
    # both count as ensemble.centralize.
    ("ensemble", "centralize_stage", "ensemble.centralize", None, None),
    ("ensemble", "centralize", "ensemble.centralize", None, None),
    ("ensemble", "rescale", "ensemble.rescale", None, None),
    ("structure", "make_type2", "structure.make_type2", None, None),
    ("structure", "classify", "structure.classify", None, None),
    ("structure", "verify_type2_inverse", "structure.verify_type2_inverse",
     None, _type2),
    ("experiment", "ExperimentConfig.from_json", "experiment.config_parse", None, None),
    ("experiment", "run", "experiment.run", None, None),
    ("experiment", "emit", "experiment.emit", None, None),
    ("experiment", "verify", "experiment.verify", None, None),
    ("experiment", "check_pipeline_bounds", "experiment.check_pipeline_bounds",
     None, None),
    ("quaternion", "multiply", "quaternion", None, None),
    ("quaternion", "conjugate", "quaternion", None, None),
    ("quaternion", "norm", "quaternion", None, None),
    ("quaternion", "to_complex", "quaternion", None, None),
    ("quaternion", "from_complex", "quaternion", None, None),
    ("quaternion", "Quaternion.__post_init__", "quaternion", None, None),
)


class Tracer:
    """Records nested spans of the wrapped calls of one process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn, size=None, hook=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    size(args) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook:
                hook(counters, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the ``with`` block."""
        modules = [importlib.import_module(m) for m in _MODULES]
        undo = []
        try:
            for mod_name, attr, name, size, hook in _TARGETS:
                mod = importlib.import_module(f"quatspectra.{mod_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = vars(cls)[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self.wrap(name, raw.__func__, size, hook))
                    else:
                        patched = self.wrap(name, raw, size, hook)
                    setattr(cls, meth, patched)
                    undo.append((cls, meth, raw))
                    continue
                original = getattr(mod, attr)
                patched = self.wrap(name, original, size, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, patched)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def span_totals(spans):
    """Calls and self time (span minus its child spans) per span name."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
    return calls, self_s


def layer_metrics(spans, counters) -> dict:
    """Per-layer values of one traced run, keyed by metric name.

    Kernel counters (``gflop``, ``bytes``, ``solve_n3``) are computed from
    the matrix dimensions, not measured: a complex Hermitian eigensolve of
    order N is counted as (16/3) N^3 flop, an embedding as 16 N^2 bytes
    written, and a dense resolvent solve as N^3.
    """
    calls, self_s = span_totals(spans)
    sizes = defaultdict(list)
    for name, _, _, _, size in spans:
        if size:
            sizes[name].append(size)
    out = {}
    for name in ("spectra.hermitian_eigenvalues", "spectra.embed", "spectra.resolvent",
                 "ensemble.sample_general", "structure.make_type2", "structure.classify",
                 "experiment.config_parse"):
        out[f"{name}.calls"] = calls[name]
    for name in ("spectra.hermitian_eigenvalues", "spectra.embed", "spectra.resolvent",
                 "spectra.trace_minor_check", "spectra.resolvent_structure_check",
                 "spectra.levy_distance", "spectra.kolmogorov_distance",
                 "spectra.empirical_stieltjes", "spectra.dedup_pairs",
                 "spectra.histogram_csv", "spectra.SpectralSample.from_matrix",
                 "ensemble.sample_general", "ensemble.run_pipeline", "ensemble.truncate",
                 "ensemble.zero_diagonal", "ensemble.centralize", "ensemble.rescale",
                 "structure.make_type2", "structure.classify",
                 "structure.verify_type2_inverse", "experiment.run",
                 "experiment.config_parse", "experiment.emit", "experiment.verify",
                 "experiment.check_pipeline_bounds"):
        out[f"{name}.self_s"] = self_s[name]
    eig = "spectra.hermitian_eigenvalues"
    gflop = sum(16.0 / 3.0 * n**3 for n in sizes[eig]) / 1e9
    out[f"{eig}.gflop"] = gflop
    out[f"{eig}.gflop_per_s"] = gflop / self_s[eig] if self_s[eig] > 0 else 0.0
    out["spectra.embed.bytes"] = sum(16 * n**2 for n in sizes["spectra.embed"])
    out["spectra.resolvent.solve_n3"] = sum(n**3 for n in sizes["spectra.resolvent"])
    out["spectra.pairing_residual_max"] = counters.get("pairing_residual_max", 0.0)
    out["ensemble.truncated_entries"] = counters.get("truncated_entries", 0)
    out["ensemble.variance_floor_replacements"] = counters.get(
        "variance_floor_replacements", 0)
    trials = counters.get("type2_trials", 0)
    resamples = counters.get("type2_resamples", 0)
    out["structure.type2.resamples"] = resamples
    out["structure.type2.accept_ratio"] = (
        trials / (trials + resamples) if trials + resamples else 0.0)
    out["quaternion.calls"] = calls["quaternion"]
    return out
