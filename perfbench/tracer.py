"""In-memory span tracer for the benchmark's traced run.

The tracer wraps dudasim functions at the binding their caller looks up.
dudasim's modules import each other's functions by name, so ``run_campaign``
calls ``dudasim.montecarlo.generate_deployment``; wrapping
``dudasim.deployment.generate_deployment`` instead would record nothing.
Every call becomes a span (name, start, end, parent span, run id) kept in
memory; ``write`` saves them when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

# (module, attribute as the caller looks it up, span name "<layer>.<function>")
BINDINGS: Tuple[Tuple[str, str, str], ...] = (
    ("dudasim", "parse_config", "config.parse_config"),
    ("dudasim", "run_sweep", "sweep.run_sweep"),
    ("dudasim.sweep", "run_campaign", "montecarlo.run_campaign"),
    ("dudasim.sweep", "run_synthetic_campaign", "montecarlo.run_synthetic_campaign"),
    ("dudasim.sweep", "ul_success_probability", "coverage.ul_success_probability"),
    ("dudasim.sweep", "dl_success_probability", "coverage.dl_success_probability"),
    ("dudasim.sweep", "latency_duda", "latency.latency_duda"),
    ("dudasim.sweep", "latency_duca", "latency.latency_duca"),
    ("dudasim.montecarlo", "generate_deployment", "deployment.generate_deployment"),
    ("dudasim.montecarlo", "protocol_delay_sample", "latency.protocol_delay_sample"),
    ("dudasim.deployment", "sample_ppp", "deployment.sample_ppp"),
    ("dudasim.deployment", "delaunay_adjacency", "deployment.delaunay_adjacency"),
    ("dudasim.deployment", "pair_bs", "deployment.pair_bs"),
    ("dudasim.deployment", "assign_directions_and_ues", "deployment.assign_directions_and_ues"),
    ("dudasim.coverage", "interference_tail_integral", "quadrature.interference_tail_integral"),
    ("dudasim.coverage", "integrate_finite", "quadrature.integrate_finite"),
    ("dudasim.quadrature", "integrate_semi_infinite", "quadrature.integrate_semi_infinite"),
)


class Tracer:
    """Records spans while installed.  ``observers`` maps a span name to a
    callable that receives each successful call's return value, for counters
    that must be read where the work happens."""

    def __init__(self, observers: Dict[str, Callable[[object], None]] | None = None):
        self.spans: List[list] = []  # [name, start, end, parent index, run id]
        self.errors: Counter = Counter()  # (span name, exception type) where first raised
        self.missing: List[str] = []  # bindings absent from this version of dudasim
        self.run_id = 0
        self._observers = observers or {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if getattr(exc, "_traced_at", None) is None:
                    exc._traced_at = name
                    errors[name, type(exc).__name__] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self time per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Dict[str, int] = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
        return dict(calls), dict(self_s)

    def write(self, path) -> None:
        """Save the spans as gzipped CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write("run,name,start_s,end_s,parent\n")
            for name, start, end, parent, run in self.spans:
                out.write(f"{run},{name},{start - t0:.7f},{end - t0:.7f},{parent}\n")


def span_cost(calls: int = 100_000) -> float:
    """Seconds one span adds to a call, measured on a no-op function.
    Spans times this estimates the tracing overhead without the run-to-run
    noise of differencing two pass times."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    return ((clock() - t1) - (t1 - t0)) / calls
