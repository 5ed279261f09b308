"""Benchmark a change against a parent revision and write a BENCH file.

    python3 tools/bench_pair.py PARENT_REV --seeds 811 812 813 --out BENCH_<n>.json
    python3 tools/bench_pair.py HEAD~1 --seeds 1 2 3 --out bench.json

The change is the checkout this script lives in, uncommitted edits
included.  The parent revision is exported with ``git archive`` into a
temporary directory, so no worktree is created and no git state changes.
For every workload of ``perfbench/workloads.py`` and every seed it runs
``perfbench/run.py --trace 0`` once on each side, for the run length that
``BENCHMARK.json`` sets, alternating which side runs first from one seed to
the next.  Both sides run the change's ``perfbench/``, so the benchmark
code is identical.

The output file holds, per workload and side, the median and quartiles of
every end-to-end metric, every run's values and attempted rows, the pairs in
which the change read better, attempted and failed rows in all and the
``correct`` verdicts, plus the seeds, the line count of each side's ``src/``
and the environment.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(BENCH))
from metrics import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """The files of ``rev``, without its history, into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Python < 3.10.12 / 3.11.4; the archive is the repository's own
            tar.extractall(dest)


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run on ``tree``; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} on {tree}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list) -> dict:
    out = {"correct": all(r["correct"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           # in the order of each metric's runs: peak_rss_mb grows with rows
           "attempted_runs": [r["attempted"] for r in runs], "metrics": {}}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out["metrics"][name] = {"median": statistics.median(values), "q1": q[0], "q3": q[2],
                                "runs": values}
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform(), "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="git revision to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    args = ap.parse_args(argv)

    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    record = {
        "parent": parent_sha,
        "change": {"head": git("rev-parse", "HEAD").decode().strip(),
                   "uncommitted_edits": bool(git("status", "--porcelain").strip())},
        "command": f"perfbench/run.py --trace 0 --seconds {SECONDS}",
        "seeds": args.seeds, "env": environment(), "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        parent_tree = Path(tmp)
        export(parent_sha, parent_tree)
        record["src_lines"] = {"parent": src_lines(parent_tree), "change": src_lines(ROOT)}
        sides = {"parent": parent_tree, "change": ROOT}
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    t0 = time.monotonic()
                    runs[side].append(run_bench(sides[side], workload, seed))
                    print(f"{workload} seed {seed} {side}: {time.monotonic() - t0:.0f} s",
                          file=sys.stderr)
            entry = {side: summarize(runs[side]) for side in sides}
            entry["change_better_pairs"] = {}
            for name, (_, better) in END_TO_END.items():
                pairs = zip(entry["parent"]["metrics"][name]["runs"],
                            entry["change"]["metrics"][name]["runs"])
                wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
                entry["change_better_pairs"][name] = f"{wins}/{len(args.seeds)}"
            record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
