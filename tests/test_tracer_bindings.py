"""The benchmark's traced run still sees every layer it expects.

``perfbench/tracer.py`` wraps dudasim functions at the module bindings
their callers look up, so a refactor that moves a call behind another
binding silently drops its spans.  This runs each workload of
``perfbench/workloads.py`` once, with a few trials per campaign, under the
tracer with the counting observers that ``perfbench/child.py`` installs, and
checks the layers each workload declares dominant and bypassed.  The
observers read what the traced functions return, so a return type they
cannot read fails here rather than in the benchmark's traced run.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
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
    counters = Counter()

    def count_ppp(points):
        counters["bs"] += len(points)
        counters["realizations"] += 1

    def count_campaign(stats):
        counters["trials"] += len(stats.samples)
        counters["attempts"] += int(stats.attempts.sum())
        counters["censored"] += stats.censored_count

    t = tracer.Tracer({
        "deployment.sample_ppp": count_ppp,
        "montecarlo.run_campaign": count_campaign,
        "montecarlo.run_synthetic_campaign": count_campaign,
    })
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
    campaigns = calls.get("montecarlo.run_campaign", 0) + calls.get(
        "montecarlo.run_synthetic_campaign", 0)
    assert counters["trials"] == campaigns * int(TRIALS) if workload.simulate else not counters
    assert counters["attempts"] >= counters["trials"] >= counters["censored"]
    assert counters["realizations"] == calls.get("deployment.sample_ppp", 0)
    if counters["realizations"]:
        assert counters["bs"] > 0
