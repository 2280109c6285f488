"""Spans around the program's layer functions, installed from outside.

The tracer replaces each traced function with a wrapper in every
`hilbertlab` module namespace (and module-level dict) that binds it, so a
call is recorded whichever module makes it. A span records its name,
start, end, parent span, command id and one tag derived from the call
(matrix size, returned value, record count, ...). Spans stay in memory
until the run writes them out.

ThreadPoolExecutor does not copy the caller's context into its workers, so
the wrapper of `parallel_map` binds each work item to the parallel_map
span; spans opened in worker threads name it as their parent.
"""
from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

SMALL_SOLVE_N = 64

SUITE_FUNCTIONS = {
    "suite_selberg": "selberg", "suite_spacing": "spacing",
    "suite_pair_spacing": "pair-spacing", "suite_radius": "radius",
    "suite_chain": "chain", "suite_alpha": "alpha-properties", "suite_trig": "trig",
}


def _no_tag(args, result):
    return None


def _size_tag(args, result):
    return int(np.shape(args[0])[0])


def _skew_size_tag(args, result):
    return int(args[0].n)


def _value_tag(args, result):
    return float(result.value)


def _len_tag(args, result):
    return len(result)


def _file_size_tag(args, result):
    return os.path.getsize(args[1])


# (module, function, tag); spans are named "<module>.<function>", suites
# "suites.<suite name>"
TARGETS: tuple[tuple[str, str, Callable], ...] = (
    ("quadforms", "alpha_form_matrix", _no_tag),
    ("quadforms", "top_eigen_nonneg_sym", _size_tag),
    ("quadforms", "estimate_constant", _value_tag),
    ("quadforms", "q_alpha", _no_tag),
    ("spectra", "build_h", _no_tag),
    ("spectra", "spectral_radius", _skew_size_tag),
    ("spectra", "eigenpair_top", _skew_size_tag),
    ("spectra", "check_selberg_identity", _no_tag),
    ("spectra", "s_and_t", _no_tag),
    ("spectra", "numerical_radius_check", _no_tag),
    ("spacing", "spacing_bound_report", _no_tag),
    ("spacing", "spacing_sum", _no_tag),
    ("spacing", "pair_spacing_sum", _no_tag),
    ("lowerbound", "scan", _no_tag),
    ("lowerbound", "big_g", _no_tag),
    ("lowerbound", "kappas", _no_tag),
    ("lowerbound", "trig_form_value", _no_tag),
    ("lowerbound", "periodized_equivalence_check", _no_tag),
    ("lowerbound", "cot_limit_check", _no_tag),
    ("search", "hill_climb", _no_tag),
    ("cli", "dispatch", _no_tag),
    ("cli", "write_csv", _file_size_tag),
    *(("suites", fn, _len_tag) for fn in SUITE_FUNCTIONS),
)


def span_name(module: str, function: str) -> str:
    if module == "suites":
        return f"suites.{SUITE_FUNCTIONS[function]}"
    return f"{module}.{function}"


SPAN_NAMES = (*(span_name(m, f) for m, f, _ in TARGETS),
              "util.parallel_map", "gaps.GapSequence")
EIGEN_SPANS = ("quadforms.top_eigen_nonneg_sym", "spectra.spectral_radius",
               "spectra.eigenpair_top")


def _calls_and_seconds(name: str) -> list[tuple[str, str, str]]:
    return [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]


# Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER: list[tuple[str, str, str]] = [
    *_calls_and_seconds("gaps.GapSequence"),
    *_calls_and_seconds("quadforms.alpha_form_matrix"),
    *_calls_and_seconds("quadforms.top_eigen_nonneg_sym"),
    *_calls_and_seconds("quadforms.estimate_constant"),
    ("quadforms.estimate_constant.self_s", "s", "lower"),
    *_calls_and_seconds("quadforms.q_alpha"),
    ("eigen.solves.small", "count", "lower"),
    ("eigen.solves.large", "count", "lower"),
    ("eigen.large.s", "s", "lower"),
    *(m for fn in ("build_h", "spectral_radius", "eigenpair_top", "check_selberg_identity",
                   "s_and_t", "numerical_radius_check")
      for m in _calls_and_seconds(f"spectra.{fn}")),
    *(m for fn in ("spacing_bound_report", "spacing_sum", "pair_spacing_sum")
      for m in _calls_and_seconds(f"spacing.{fn}")),
    ("spacing.zeta.hit_ratio", "ratio", "higher"),
    *_calls_and_seconds("lowerbound.scan"),
    ("lowerbound.big_g.calls", "count", "lower"),
    *(m for fn in ("kappas", "trig_form_value", "periodized_equivalence_check", "cot_limit_check")
      for m in _calls_and_seconds(f"lowerbound.{fn}")),
    *_calls_and_seconds("search.hill_climb"),
    ("search.evals_per_climb", "count", "lower"),
    ("search.accept_ratio", "ratio", "higher"),
    ("best_value.n12", "value", "higher"),
    ("best_value.n24", "value", "higher"),
    *(m for suite in SUITE_FUNCTIONS.values()
      for m in ((f"suites.{suite}.s", "s", "lower"), (f"suites.{suite}.records", "count", "higher"))),
    *_calls_and_seconds("util.parallel_map"),
    ("util.parallel_map.items", "count", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    *_calls_and_seconds("cli.write_csv"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    command: int
    tag: object


class Tracer:
    """Installs span-recording wrappers into the loaded hilbertlab modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ---- recording ----------------------------------------------------

    def _current(self) -> int:
        return getattr(self._local, "current", 0)

    def _wrap(self, fn, name: str, tag: Callable):
        def traced(*args, **kwargs):
            parent = self._current()
            sid = next(self._ids)
            self._local.current = sid
            result, done = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                self._local.current = parent
                self.spans.append(Span(sid, name, start, end, parent, self.command,
                                       tag(args, result) if done else None))
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_parallel_map(self, fn):
        def traced(work, items):
            items = list(items)
            parent = self._current()
            sid = next(self._ids)

            def bound(item):
                outer = self._current()
                self._local.current = sid
                try:
                    return work(item)
                finally:
                    self._local.current = outer

            start = perf_counter()
            try:
                return fn(bound, items)
            finally:
                self.spans.append(Span(sid, "util.parallel_map", start, perf_counter(),
                                       parent, self.command, len(items)))
        traced.__wrapped__ = fn
        return traced

    # ---- installation ---------------------------------------------------

    def _patch(self, holder, key, new, is_dict: bool):
        old = holder[key] if is_dict else getattr(holder, key)
        self._patches.append((holder, key, old, is_dict))
        if is_dict:
            holder[key] = new
        else:
            setattr(holder, key, new)

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hilbertlab" or mod_name.startswith("hilbertlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper, False)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patch(value, key, wrapper, True)

    def install(self) -> None:
        """Wrap every target; call uninstall() to restore the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import hilbertlab._util
        import hilbertlab.cli  # noqa: F401  (loads every layer module)
        from hilbertlab.gaps import GapSequence

        for mod_name, fn_name, tag in TARGETS:
            original = getattr(sys.modules[f"hilbertlab.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name(mod_name, fn_name), tag)
            self._replace_everywhere(original, wrapper)
        pmap = hilbertlab._util.parallel_map
        self._replace_everywhere(pmap, self._wrap_parallel_map(pmap))
        self._patch(GapSequence, "__init__",
                    self._wrap(GapSequence.__init__, "gaps.GapSequence", _no_tag), False)

    def uninstall(self) -> None:
        for holder, key, old, is_dict in reversed(self._patches):
            if is_dict:
                holder[key] = old
            else:
                setattr(holder, key, old)
        self._patches.clear()


# ---- analysis -------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], names) -> dict[str, float]:
    """Summed self time per span name: duration minus the union of child spans."""
    children = defaultdict(list)
    for sp in spans:
        children[sp.parent].append((sp.start, sp.end))
    out = dict.fromkeys(names, 0.0)
    for sp in spans:
        if sp.name in out:
            out[sp.name] += (sp.end - sp.start) - covered_length(children[sp.sid], sp.start, sp.end)
    return out


def _climb_stats(spans: list[Span]) -> tuple[int, int, int]:
    """(climbs, evaluations inside climbs, evaluations that raised the climb's best).

    The first evaluation of a climb sets its best; a later one raises it
    when it exceeds the best by the climb's own 1e-13 margin.
    """
    climbs = {sp.sid for sp in spans if sp.name == "search.hill_climb"}
    values = defaultdict(list)
    for sp in spans:
        if sp.name == "quadforms.estimate_constant" and sp.parent in climbs:
            values[sp.parent].append((sp.start, sp.tag))
    evals = accepts = 0
    for seq in values.values():
        seq.sort()
        best = seq[0][1]
        evals += len(seq)
        for _, value in seq[1:]:
            if value > best + 1e-13:
                best, accepts = value, accepts + 1
    return len(climbs), evals, accepts


def layer_metrics(spans: list[Span], stdout_bytes: int) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, keyed by metric name:
    `<span>.calls` and `<span>.s` for every span name, plus the derived
    metrics. PER_LAYER selects the ones a run reports."""
    calls = defaultdict(int)
    seconds = defaultdict(float)
    tags = defaultdict(int)
    for sp in spans:
        calls[sp.name] += 1
        seconds[sp.name] += sp.end - sp.start
        if isinstance(sp.tag, int):
            tags[sp.name] += sp.tag

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    out["util.parallel_map.items"] = tags["util.parallel_map"]
    out["cli.output_bytes"] = stdout_bytes + tags["cli.write_csv"]
    selfs = self_times(spans, ("quadforms.estimate_constant", "cli.dispatch"))
    out["quadforms.estimate_constant.self_s"] = selfs["quadforms.estimate_constant"]
    out["cli.dispatch.self_s"] = selfs["cli.dispatch"]

    small = large = 0
    large_s = 0.0
    for sp in spans:
        if sp.name in EIGEN_SPANS and isinstance(sp.tag, int) and sp.tag >= 2:
            # a 1x1 window needs no solve
            if sp.tag <= SMALL_SOLVE_N:
                small += 1
            else:
                large += 1
                large_s += sp.end - sp.start
    out["eigen.solves.small"] = small
    out["eigen.solves.large"] = large
    out["eigen.large.s"] = large_s

    climbs, evals, accepts = _climb_stats(spans)
    out["search.evals_per_climb"] = evals / climbs if climbs else 0.0
    out["search.accept_ratio"] = accepts / evals if evals else 0.0

    for suite in SUITE_FUNCTIONS.values():
        out[f"suites.{suite}.records"] = tags[f"suites.{suite}"]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
