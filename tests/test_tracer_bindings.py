"""The benchmark's traced run still sees every layer it expects.

``perfbench/tracer.py`` wraps dudasim functions at the module bindings
their callers look up, so a refactor that moves a call behind another
binding silently drops its spans.  This runs each workload of
``perfbench/workloads.py`` once, with a few trials per campaign, under the
tracer, and checks the layers each workload declares dominant and
bypassed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import dudasim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRIALS = "3"
# dropped by the closed-form tail; the benchmark keeps the binding
STALE = ["dudasim.quadrature.integrate_semi_infinite"]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_layers(name):
    workload = workloads.WORKLOADS[name]
    over = {"iterations": TRIALS} if workload.simulate else {}
    t = tracer.Tracer()
    t.install()
    try:
        for doc in workload.configs(workloads.pass_seed(name, 0, 0)):
            bundle = dudasim.parse_config(doc, over)
            dudasim.run_sweep(bundle.sweep, bundle)
    finally:
        t.uninstall()
    calls, _ = t.totals()
    layers = {span.split(".")[0] for span in calls}
    assert t.missing == STALE
    for layer in workload.dominant:
        assert layer in layers, f"{name}: no traced call in {layer}"
    for layer in workload.bypassed:
        assert layer not in layers, f"{name}: traced calls in bypassed {layer}"
