"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/child.py ROOT WORKLOAD SEED SECONDS TRACE

Imports dudasim from ROOT/src, repeats passes of the workload until SECONDS
are spent (at least one pass; a traced run alternates untraced and traced
passes, at least one of each), checks every row, and prints one JSON object
with the raw results as its last line of standard output.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from metrics import LAYERS, TRACED  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402


def cpu_seconds() -> float:
    """CPU time of this process, all threads, plus that of any child
    processes it has waited for (a worker pool would count here)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def ci_needs(groups, n: int) -> list:
    """Per scheme and sweep point: passes needed to bring a row's 95%
    interval to 1% of its mean latency.  Their median is ``ci_passes``.

    A row's interval comes from the latency variance pooled over all the
    run's rows at the same scheme and sweep point, each an independent
    ``n``-trial campaign, so the figure carries far less sampling noise than
    one row's own interval."""
    need = []
    for rows in groups.values():
        k = len(rows)
        grand = statistics.fmean(m for m, _ in rows)
        within = sum((n - 1) * n * (ci / 1.96) ** 2 for _, ci in rows)
        between = sum(n * (m - grand) ** 2 for m, _ in rows)
        variance = (within + between) / (k * n - 1)
        need.append((1.96 * math.sqrt(variance / n) / grand / 0.01) ** 2)
    return need


def main(argv) -> int:
    root, name, seed, seconds = Path(argv[0]), argv[1], int(argv[2]), float(argv[3])
    trace = argv[4] == "1"
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import dudasim
    import numpy
    import scipy

    if Path(dudasim.__file__).resolve().parent != src / "dudasim":
        print(f"dudasim imported from {dudasim.__file__}, not {src}", file=sys.stderr)
        return 2

    from checks import RhoPool, check_names, check_row, rho_check_name
    from workloads import WORKLOADS, pass_seed

    workload = WORKLOADS[name]
    refs = json.loads((HERE / "refs.json").read_text())

    counters = Counter()

    def count_ppp(points):
        counters["bs"] += len(points)

    def count_campaign(stats):
        counters["trials"] += len(stats.samples)
        counters["attempts"] += int(stats.attempts.sum())
        counters["censored"] += stats.censored_count

    tracer = Tracer({
        "deployment.sample_ppp": count_ppp,
        "montecarlo.run_campaign": count_campaign,
        "montecarlo.run_synthetic_campaign": count_campaign,
    })

    passes, ci_rel = [], []
    latency_groups = defaultdict(list)  # (scheme, point) -> [(mean, ci95)] over passes
    row_missed = {}  # (pass, sweep, row) -> names of the checks it missed
    pool = RhoPool(refs)
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        pseed = pass_seed(name, seed, index)
        docs = workload.configs(pseed)
        probe = SpeedProbe()
        if traced:
            tracer.run_id = index
            tracer.install()
        else:
            probe.start()
        t0, c0 = time.perf_counter(), cpu_seconds()
        results = []
        for doc in docs:
            bundle = dudasim.parse_config(doc)
            results.append((bundle, dudasim.run_sweep(bundle.sweep, bundle)))
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if traced:
            tracer.uninstall()
        else:
            probe.stop()
            wall -= probe.wall_s
            cpu -= probe.kernel_s

        for j, (bundle, rows) in enumerate(results):
            for k, row in enumerate(rows):
                missed = check_row(bundle, row, refs)
                if missed:
                    row_missed[index, j, k] = missed
                if row.mode == "simulate" and "raised" not in missed:
                    pool.add(bundle, row, (index, j, k))
                    if row.latency_mean > 0:
                        ci_rel.append(row.latency_ci95 / row.latency_mean)
                        latency_groups[row.scheme, row.value].append(
                            (row.latency_mean, row.latency_ci95))
        passes.append({
            "seed": pseed, "traced": traced, "wall_s": wall, "cpu_s": cpu,
            "slowdown": None if traced else probe.slowdown,
            "ref_cpu_s": None if traced else cpu / probe.slowdown,
            "rows": sum(len(rows) for _, rows in results),
        })
        kinds_done = {p["traced"] for p in passes} >= ({False, True} if trace else {False})
        estimate = max(p["wall_s"] for p in passes[-2:])
        if kinds_done and time.perf_counter() + estimate > deadline:
            break

    group_failures = pool.failures()
    for _, row_ids in group_failures:
        for row_id in row_ids:
            row_missed.setdefault(row_id, []).append(rho_check_name(workload))
    for index, p in enumerate(passes):
        p["failed"] = sum(row_id[0] == index for row_id in row_missed)
    missed = Counter(n for names in row_missed.values() for n in set(names))

    untraced = [p for p in passes if not p["traced"]]
    needs = ci_needs(latency_groups, workload.trials)
    out = {
        "passes": passes,
        **{k: statistics.median(p[k] for p in untraced)
           for k in ("wall_s", "cpu_s", "slowdown", "ref_cpu_s")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ci95_rel": statistics.median(ci_rel) if ci_rel else None,
        "ci_needs": needs,
        "ci_passes": statistics.median(needs) if needs else 0.0,
        "checks": {n: missed[n] for n in check_names(workload) + ["raised"]},
        "group_failures": [desc for desc, _ in group_failures],
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "trials_per_row": workload.trials,
        },
    }
    if trace:
        out["trace"] = _trace_summary(workload, tracer, passes, counters)
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.csv.gz")
    print(json.dumps(out))
    return 0


def _trace_summary(workload, tracer, passes, counters) -> dict:
    """Per-layer metrics, per traced pass, and the tracer self-check."""
    n = sum(p["traced"] for p in passes)
    calls, self_s = tracer.totals()
    m = {}
    for fn in TRACED:
        m[f"{fn}.calls"] = calls.get(fn, 0) / n
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0) / n
    layer_calls, layer_self = Counter(), Counter()
    for span, c in calls.items():
        layer = span.split(".", 1)[0]
        layer_calls[layer] += c
        layer_self[layer] += self_s[span] / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    points = sum(int(s["sweep_steps"]) for s in workload.sweeps)
    deployments = calls.get("deployment.generate_deployment", 0)
    realizations = calls.get("deployment.sample_ppp", 0)
    m["deployment.generate_deployment.calls_per_point"] = deployments / n / points
    m["deployment.accept_ratio"] = deployments / realizations if realizations else 0.0
    m["deployment.bs_per_realization"] = counters["bs"] / realizations if realizations else 0.0
    m["montecarlo.attempts"] = counters["attempts"] / n
    m["montecarlo.censored"] = counters["censored"] / n
    m["montecarlo.success_ratio"] = (
        counters["trials"] / counters["attempts"] if counters["attempts"] else 0.0
    )
    m["quadrature.convergence_errors"] = sum(
        c for (span, exc), c in tracer.errors.items()
        if span.startswith("quadrature.") and exc == "QuadratureConvergenceError"
    ) / n
    m["latency.calls"] = layer_calls["latency"] / n
    m["sweep.run_sweep.self_s"] = self_s.get("sweep.run_sweep", 0.0) / n
    m["config.parse_config.self_s"] = self_s.get("config.parse_config", 0.0) / n
    traced_rows = [p for p in passes if p["traced"]]
    m["sweep.rows"] = sum(p["rows"] for p in traced_rows) / n
    m["sweep.rows_failed"] = sum(p["failed"] for p in traced_rows) / n
    m["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced_rows)
    m["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.spans"] = len(tracer.spans) / n
    m["trace.span_cost_us"] = span_cost() * 1e6

    problems = [f"dominant layer {layer} made no traced calls"
                for layer in workload.dominant if layer_calls[layer] == 0]
    problems += [f"bypassed layer {layer} made {layer_calls[layer]} traced calls"
                 for layer in workload.bypassed if layer_calls[layer] != 0]
    m["trace.selfcheck_failures"] = len(problems)
    return {"metrics": m, "selfcheck": problems, "missing": tracer.missing}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
