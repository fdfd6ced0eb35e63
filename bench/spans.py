"""Per-layer tracing of gaborlab from outside `src/`.

`install` wraps the public functions of every working module of `gaborlab`
(`calibration` and `errors` do no work) and rebinds each wrapper in its own
module, in every `gaborlab` module that imported it by name, and in
module-level tables such as `cli.SUITES`.  `BlockPlan.condition_holds` is
wrapped as a static method and `Report.write` as a method.  A wrapper records
a span (name, start, end, parent span) in a `Recorder`, which keeps spans and
counters in memory until the caller writes them out.  A layer's self time is
its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("frames", "grids", "haar", "gabor", "stochastic", "fourier",
          "basic_sequences", "suites", "rng", "reports")

CERTIFICATE = ("frames.difference_sets_disjoint", "frames.difference_sets_clear_of_base",
               "frames.certify_selection")
GROUPS = {"frames.certificate": CERTIFICATE}

SUITE_FUNCTIONS = ("khintchine_suite", "squarefunc_suite", "type_cotype_suite",
                   "lacunary_suite", "rdf_suite", "isometry_suite")

# Per-layer metrics from spans: "<span or group>.calls" and "<span or group>.self_s".
SPAN_METRICS = (
    "frames.plan_blocks.self_s", "frames.condition_holds.calls",
    "frames.select_translates.self_s", "frames.certificate.calls",
    "frames.certificate.self_s", "frames.window_supports_disjoint.self_s",
    "frames.build_window.self_s", "frames.build_frame.self_s",
    "frames.frame_from_json.calls", "frames.frame_from_json.self_s",
    "frames.span_corpus.self_s", "frames.frame_operator.calls",
    "frames.frame_operator.self_s", "frames.invert_neumann.calls",
    "frames.invert_neumann.self_s", "frames.reconstruct.self_s",
    "frames.operator_deviation.self_s",
    "haar.haar_function.calls", "haar.haar_function.self_s",
    "haar.haar_functional.calls", "haar.haar_functional.self_s",
    "grids.lp_norm.calls", "grids.lp_norm.self_s", "grids.lp_norm_pth.calls",
    "grids.lp_norm_pth.self_s", "grids.modulation_values.calls",
    "grids.modulation_values.self_s", "grids.time_freq_shift.calls",
    "grids.time_freq_shift.self_s", "grids.lp_ell2_norm.calls",
    "grids.lp_ell2_norm.self_s", "grids.embed.calls", "grids.embed.self_s",
    "grids.restrict.calls",
    "gabor.synthesize.calls", "gabor.synthesize.self_s",
    "stochastic.all_sign_patterns.calls", "stochastic.all_sign_patterns.self_s",
    "stochastic.rademacher_pnorm_exact.self_s",
    "stochastic.rademacher_mean_norm_exact.self_s",
    "stochastic.khintchine_ratio.calls", "stochastic.khintchine_ratio.self_s",
    "stochastic.lacunary_pnorm.calls", "stochastic.lacunary_pnorm.self_s",
    "fourier.partial_sum.calls", "fourier.partial_sum.self_s",
    "fourier.square_function_norm.self_s",
    "basic_sequences.verify_peaks.self_s", "basic_sequences.verify_cells.self_s",
    "basic_sequences.peaks_decomposition_check.self_s",
    "basic_sequences.cells_predicted_mass.self_s",
    "basic_sequences.separated_translates_norm.self_s",
    *(f"suites.{name}.self_s" for name in SUITE_FUNCTIONS),
    "suites.random_atoms.calls", "suites.random_atoms.self_s",
    "rng.rng_for.calls", "rng.rng_for.self_s",
    "reports.Report.write.self_s", "reports.write_csv.self_s",
)

# Per-layer counters recorded by probes on a call's arguments or result.
COUNTER_METRICS = {
    "frames.select_translates.retries": "count",
    "frames.certificate.points": "count",
    "frames.translate_bits_max": "bits",
    "frames.neumann_iterations": "count",
    "grids.lp_norm.cells": "count",
    "grids.modulation_values.cells": "count",
}


def metric_unit(name: str) -> str:
    if name in COUNTER_METRICS:
        return COUNTER_METRICS[name]
    return "s" if name.endswith(".self_s") else "count"


class Recorder:
    """Spans (name, start, end, parent span) and counters, kept in memory."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        self.counters: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def arrays(self):
        return (np.array(self.name_of, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end))

    def save(self, path) -> None:
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str), name_of=name_of,
                 parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time covered by its child spans.

    Spans come from one thread and nest, so children of one span never
    overlap and the covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def _selection_probe(rec: Recorder, args, kwargs, result) -> None:
    points = (args[0] if args else kwargs["selection"]).points
    rec.add("frames.certificate.points", len(points))
    rec.maximum("frames.translate_bits_max",
                max((abs(pt.t.numerator).bit_length() for pt in points), default=0))


PROBES = {
    **{name: _selection_probe for name in CERTIFICATE},
    "frames.invert_neumann": lambda rec, args, kwargs, result: rec.add(
        "frames.neumann_iterations", result.iterations),
    "grids.lp_norm": lambda rec, args, kwargs, result: rec.add(
        "grids.lp_norm.cells", (args[0] if args else kwargs["f"]).grid.count),
    "grids.modulation_values": lambda rec, args, kwargs, result: rec.add(
        "grids.modulation_values.cells", (args[0] if args else kwargs["grid"]).count),
}


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    nid = rec.name_id(name)
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if probe is not None:
            probe(rec, args, kwargs, result)
        return result

    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap gaborlab's public functions to record into rec; return the undo."""
    import gaborlab.cli  # noqa: F401  (imports every working module)

    modules = [m for name, m in sys.modules.items()
               if name == "gaborlab" or name.startswith("gaborlab.")]
    undo = []

    def rebind(namespace: dict, key, value) -> None:
        undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    def rebind_attr(owner, attr, value) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    for layer in LAYERS:
        mod = sys.modules[f"gaborlab.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                continue  # a generator's body runs after the call returns
            traced = _wrap(rec, f"{layer}.{attr}", fn)
            for m in modules:
                if vars(m).get(attr) is fn:
                    rebind(vars(m), attr, traced)
                for table in list(vars(m).values()):
                    if isinstance(table, dict):
                        for key, value in list(table.items()):
                            if value is fn:
                                rebind(table, key, traced)
    frames, reports = sys.modules["gaborlab.frames"], sys.modules["gaborlab.reports"]
    holds = vars(frames.BlockPlan)["condition_holds"].__func__
    rebind_attr(frames.BlockPlan, "condition_holds",
                staticmethod(_wrap(rec, "frames.condition_holds", holds)))
    rebind_attr(reports.Report, "write",
                _wrap(rec, "reports.Report.write", vars(reports.Report)["write"]))

    def uninstall() -> None:
        for owner, key, value in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    return uninstall


def summarize(rec: Recorder) -> Dict[str, Dict[str, float]]:
    """Calls and self time of every span name, and the exact counters."""
    name_of, parent, start, end = rec.arrays()
    selfs = self_times(parent, start, end)
    n = len(rec.names)
    calls = np.bincount(name_of, minlength=n)
    self_s = np.bincount(name_of, weights=selfs, minlength=n)
    counts = {f"{name}.calls": int(calls[i]) for i, name in enumerate(rec.names)}
    times = {f"{name}.self_s": float(self_s[i]) for i, name in enumerate(rec.names)}
    for group, members in GROUPS.items():
        counts[f"{group}.calls"] = sum(counts.get(f"{m}.calls", 0) for m in members)
        times[f"{group}.self_s"] = sum(times.get(f"{m}.self_s", 0.0) for m in members)
    counts.update(rec.counters)
    counts["frames.select_translates.retries"] = _retries(rec, name_of, parent)
    return {"counts": counts, "times": times}


def _retries(rec: Recorder, name_of: np.ndarray, parent: np.ndarray) -> int:
    """Certificate calls inside each translate selection, minus one, summed."""
    ids = rec._ids
    if "frames.select_translates" not in ids:
        return 0
    cert = np.isin(name_of, [ids[m] for m in CERTIFICATE if m in ids]) & (parent >= 0)
    per_parent = np.bincount(parent[cert], minlength=len(name_of))
    selections = np.flatnonzero(name_of == ids["frames.select_translates"])
    return int(np.maximum(per_parent[selections] - 1, 0).sum())


def layer_value(summary: Dict[str, Dict[str, float]], metric: str):
    """Value of one SPAN_METRICS or COUNTER_METRICS name; 0 if never recorded."""
    if metric.endswith(".self_s"):
        return summary["times"].get(metric, 0.0)
    return summary["counts"].get(metric, 0)


def selftest() -> List[str]:
    """Failures of the self-time arithmetic on nested spans with exact times.

    a [0, 10) holds b [1, 5) and d [6, 9); b holds c [2, 3).  Self times:
    a = 10 - 4 - 3 = 3, b = 4 - 1 = 3, c = 1, d = 3.
    """
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 9.0])
    got = self_times(parent, start, end).tolist()
    return [] if got == [3.0, 3.0, 1.0, 3.0] else [f"self times {got} != [3, 3, 1, 3]"]
