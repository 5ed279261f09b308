"""The dudasim benchmark.

    python3 perfbench/run.py --workload sweep_su --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a dudasim checkout; it imports dudasim from
``src/`` there and nowhere else.  For one workload it

1. times ``import dudasim`` plus ``parse_config`` in fresh interpreters
   (``setup_s``, the median of several; with ``--trace 1`` the children run
   under ``python -X importtime`` for the ``import.*`` breakdown),
2. runs the workload in one more fresh interpreter (``child.py``), which
   repeats passes for ``--seconds`` and checks every output row,
3. prints a report and, as its last line, one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Times are CPU seconds rescaled to a reference machine speed by the probe in
``speed.py``.  An operation is one sweep row; it fails if it raised,
produced NaN or missed a correctness check.  Everything a run records, environment included, is
also written to ``.perfbench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from metrics import END_TO_END, IMPORTS, LAYERS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, pass_seed  # noqa: E402

SETUP_RUNS = 5
TIME_LIMIT_S = 170.0  # every run must end within 180 s
# argv: config document, this directory, speed-probe interval (0: no probe)
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from speed import SpeedProbe\n"
    "probe = SpeedProbe(float(sys.argv[3]))\n"
    "if probe.interval_s: probe.start()\n"
    "t0 = time.process_time()\n"
    "import dudasim\n"
    "dudasim.parse_config(sys.argv[1])\n"
    "cpu = time.process_time() - t0\n"
    "probe.stop()\n"
    "print(cpu - probe.kernel_s, probe.slowdown, dudasim.__file__)\n"
)
SETUP_PROBE_S = 0.02  # a setup takes about 1.3 s: some 60 samples


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of each IMPORTS package, from ``-X importtime``.

    The log lists modules in post-order, nesting shown by indentation.  A
    package's time is the cumulative time of its topmost modules: its own
    line, or when it has none (``from scipy import stats`` logs only the
    submodules), the submodules that no other module of the package
    imported.  Packages nest (scipy.integrate pulls in parts of others), so
    the figures do not add up."""
    lines = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                depth = len(name) - len(name.lstrip(" "))
                lines.append((depth, name.strip(), int(cumulative) / 1e6))
    out = dict.fromkeys(IMPORTS, 0.0)
    stack = []  # ancestors of the current line, root first
    for depth, name, seconds in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for pkg in IMPORTS:
            inside = name == pkg or name.startswith(pkg + ".")
            if inside and not any(a == pkg or a.startswith(pkg + ".") for _, a in stack):
                out[pkg] += seconds
        stack.append((depth, name))
    return out


def measure_setup(root: Path, doc: str, importtime: bool, deadline: float):
    """CPU seconds of each fresh interpreter's set-up, at the reference speed,
    and with ``importtime`` the import breakdown instead (the probe is off
    then, so that its samples do not land in the import times)."""
    times, imports = [], []
    flags = ["-X", "importtime"] if importtime else []
    interval = "0" if importtime else repr(SETUP_PROBE_S)
    src = (root / "src" / "dudasim").resolve()
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", SETUP_CODE, doc, str(HERE), interval],
            env=_env(root), cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"setup child failed:\n{proc.stderr[-2000:]}")
        seconds, slowdown, path = proc.stdout.split()
        if Path(path).resolve().parent != src:
            raise BenchError(f"setup child imported dudasim from {path}, not {src}")
        times.append(float(seconds) / float(slowdown))
        if importtime:
            imports.append(parse_importtime(proc.stderr))
    return times, imports


def run_child(root: Path, name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(root), name, str(seed), str(seconds),
         "1" if trace else "0"],
        env=_env(root), cwd=root, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload child exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_one(root: Path, name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    doc = workload.configs(pass_seed(name, seed, 0))[0]
    setup_times, imports = measure_setup(root, doc, trace, deadline)
    res = run_child(root, name, seed, seconds, trace, deadline)

    passes = res["passes"]
    wall = res["wall_s"]
    points = sum(int(s["sweep_steps"]) for s in workload.sweeps)
    trials = workload.rows_per_pass * workload.trials
    ci = res["ci95_rel"]
    summary = {
        "wall_s": wall,
        "cpu_s": res["cpu_s"],
        "slowdown": res["slowdown"],
        "ref_cpu_s": res["ref_cpu_s"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": res["peak_rss_mb"],
        "trials_per_s": trials / wall if workload.simulate else None,
        "points_per_s": None if workload.simulate else points / wall,
        "ci95_rel": ci,
        "ci_passes": res["ci_passes"],
        # time to results whose 95% intervals are within 1% of the latency:
        # at least one pass, more when the rows' intervals are wider
        "time_to_ci1pct_s": res["ref_cpu_s"] * max(1.0, res["ci_passes"]),
    }
    attempted = sum(p["rows"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    missed = {k: v for k, v in res["checks"].items() if k != "raised"}
    correct = not any(missed.values())
    if trace:
        layer = dict(res["trace"]["metrics"])
        layer["montecarlo.ci95_rel"] = ci or 0.0
        for module in IMPORTS:
            layer[f"import.{module}_s"] = statistics.median(i[module] for i in imports)
        correct = correct and not res["trace"]["selfcheck"]
        metrics = {k: {"value": layer[k], "unit": u} for k, (u, _) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, (u, _) in END_TO_END.items()}
    traced = res.get("trace", {})
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "summary": summary, "ci_needs": res["ci_needs"], "setup_runs_s": setup_times,
        "checks": res["checks"], "group_failures": res["group_failures"], "passes": passes,
        "selfcheck": traced.get("selfcheck", []), "missing_bindings": traced.get("missing", []),
        "env": dict(res["env"], git_sha=git_sha(root), workload_seed=seed),
    }


def report(r: dict) -> None:
    """Human-readable lines; the last line of the run is the JSON result."""
    s = r["summary"]
    print(f"== {r['workload']}  seed {r['seed']}  trace {int(r['trace'])}")
    print("env " + json.dumps(r["env"], sort_keys=True))
    passes = " ".join(
        f"{p['wall_s']:.3f}/{p['cpu_s']:.3f}/" + ("T" if p["traced"] else f"{p['slowdown']:.3f}")
        for p in r["passes"])
    setups = " ".join(f"{t:.3f}" for t in r["setup_runs_s"])
    print(f"passes {len(r['passes'])} wall_s/cpu_s/slowdown [{passes}] (T traced)  "
          f"setup_s [{setups}]")
    units = dict(wall_s="s", cpu_s="s", slowdown="x", ref_cpu_s="s", setup_s="s",
                 peak_rss_mb="MB", trials_per_s="1/s", points_per_s="1/s", ci95_rel="ratio",
                 ci_passes="passes", time_to_ci1pct_s="s")
    for name, unit in units.items():
        if s[name] is not None:
            print(f"  {name:<18} {s[name]:12.6g} {unit}")
    frac = r["failed"] / r["attempted"]
    print(f"  {'failed_frac':<18} {frac:12.6g} ratio  ({r['failed']} of {r['attempted']} rows)")
    checks = ", ".join(f"{k} missed {v}" for k, v in r["checks"].items())
    print(f"checks: {checks}  -> {'correct' if r['correct'] else 'INCORRECT'}")
    for failure in r["group_failures"]:
        print(f"pooled rho check missed: {failure}")
    if r["trace"]:
        m = {k: v["value"] for k, v in r["metrics"].items()}
        wall = m["trace.wall_s"]
        shares = ", ".join(f"{layer} {m[f'{layer}.self_s'] / wall:.1%}" for layer in LAYERS)
        print(f"traced wall {wall:.3f} s, untraced {m['trace.untraced_wall_s']:.3f} s, "
              f"overhead {m['trace.overhead_s']:+.3f} s; self-time share: {shares}")
        for problem in r["selfcheck"]:
            print(f"tracer self-check: {problem}")
        if r["missing_bindings"]:
            print("bindings not in this dudasim: " + ", ".join(r["missing_bindings"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be non-negative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "dudasim" / "__init__.py").is_file():
        print(f"no dudasim source at {root / 'src' / 'dudasim'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            r = run_one(root, name, args.seed, args.seconds, bool(args.trace), deadline)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(r, indent=1) + "\n")
        report(r)
        results.append(r)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
