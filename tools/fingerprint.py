"""Check that a change leaves the command-line outputs byte-identical.

    python3 tools/fingerprint.py PARENT_REV

The change is the checkout this script lives in, uncommitted edits
included.  The parent revision is exported with ``git archive`` into a
temporary directory, as ``tools/bench_pair.py`` does.  A fixed set of runs
goes through both trees, each run a fresh interpreter in an empty working
directory with only that tree's ``src`` on the path:

- ``analytic`` with noise off and on, at ``noise_dbm = -80``;
- ``snapshot --seed 0..3`` for each scheme and typical mode;
- ``simulate`` for each scheme, and for both schemes in one run, for each
  attempt model (``fixed`` with and without ``direction_redraw``) and
  typical mode, with ``--samples-out``;
- the first of those (duda, independent, dl) at ``noise_dbm = -20`` with
  noise off, which must match it, and with noise on;
- ``simulate`` of both schemes at ``alpha = 2.5`` (independent, "dl"), and
  with ``fixed``, ``direction_redraw`` and noise on at ``noise_dbm = -20``
  ("ul"), with ``--samples-out``;
- ``simulate`` at two ``max_attempts`` beyond 2**32, with ``--samples-out``;
- a forced ``simulate`` of both schemes at ``rho_u = 0.6``, ``rho_d = 0.7``,
  with ``--samples-out``;
- ``simulate`` with ``iterations = 0``, ``max_attempts = 0``,
  ``--iterations 0``, ``iterations = 4294967297`` with and without
  ``rho_u``/``rho_d``, and two documents with two trial errors each (exit 2
  and its message);
- ``simulate`` of both schemes in a sparse 24 m window, for each typical
  mode, with ``--samples-out``: many realizations there give a scheme no
  usable probe;
- one small ``sweep --mode both`` per sweep variable, one ``simulate``
  sweep of both schemes in "ul" typical mode with ``direction_redraw``,
  the benchmark's ``sweep_rho`` sweep at its own size, and one sweep per
  variable that leaves its domain (exit 2 and its message);
- ``simulate`` in a 1 m window (exit 2 and its message), and a
  ``simulate`` sweep there, where every row fails into NaNs;
- ``simulate`` at ``window_side = 5e-324``, whose half is 0.0, and with a
  file that cannot be read, decoded or written: a config file that is not
  UTF-8, and ``--out`` and ``--samples-out`` into a missing directory
  (exit 2 and its message);
- ``validate --iterations 500``; ``validate`` in a 1 m window (exit 2 and
  its message); ``validate --iterations 200`` at ``beta_u_db = 40``, where
  duca has no first-attempt UL success and duda one;
- demo 03's stdout and the CSV it writes.

Each output (a run's exit status with its stdout, its stderr when either
side wrote any, and each file it wrote) gets one line: its sha256 on the
change, "same" or the parent's digest, and its name.  The exit status is 1
when any output differs.  A run still going after TIMEOUT_S (120) seconds
is killed, and its stdout reads "timed out after 120 s".  Two worker
threads run the subprocesses; the whole set takes about a minute on a
2-core host.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_pair import ROOT, export, git

CLI = ["-m", "dudasim.cli"]
TIMEOUT_S = 120


def cases():
    """(name, argv after the interpreter, config document as text or bytes,
    files written)."""
    # at the default -174 dBm, noise moves no printed digit
    out = [(f"analytic noise={noise}", CLI + ["analytic", "--noise", noise],
            "noise_dbm = -80\n", []) for noise in ("off", "on")]
    for scheme in ("duda", "duca"):
        for mode in ("dl", "ul"):
            for seed in range(4):
                out.append((f"snapshot {scheme} {mode} seed={seed}",
                            CLI + ["snapshot", "--scheme", scheme, "--seed", str(seed)],
                            f"typical_mode = {mode}\n", []))
    for scheme in ("duda", "duca", "both"):
        for model, redraw in (("independent", "off"), ("fixed", "off"), ("fixed", "on")):
            for mode in ("dl", "ul"):
                doc = (f"attempt_model = {model}\ndirection_redraw = {redraw}\n"
                       f"typical_mode = {mode}\nmax_attempts = 50\n")
                out.append((f"simulate {scheme} {model} redraw={redraw} {mode}",
                            CLI + ["simulate", "--scheme", scheme, "--iterations", "150",
                                   "--samples-out", "samples.csv"],
                            doc, ["samples.csv"]))
    name, argv, doc, files = out[-18]
    for noise in ("off", "on"):
        out.append((f"{name} noise={noise} noise_dbm=-20", argv + ["--noise", noise],
                    doc + "noise_dbm = -20\n", files))
    # the kernel at a non-integer power-law exponent, and the noise term of
    # the direction_redraw mixture
    for label, doc in (("independent dl alpha=2.5", "alpha = 2.5\ntypical_mode = dl\n"),
                       ("fixed redraw=on ul noise=on noise_dbm=-20",
                        "attempt_model = fixed\ndirection_redraw = on\ntypical_mode = ul\n"
                        "noise = on\nnoise_dbm = -20\n")):
        out.append((f"simulate both {label}",
                    CLI + ["simulate", "--scheme", "both", "--iterations", "150",
                           "--samples-out", "samples.csv"],
                    doc + "max_attempts = 50\n", ["samples.csv"]))
    for big, rest in (("10000000000000000000", ""),
                      ("9223372036854775807", "attempt_model = fixed\nbeta_u_db = 200\n")):
        out.append((f"simulate max_attempts = {big} (out of domain)",
                    CLI + ["simulate", "--samples-out", "samples.csv"],
                    f"max_attempts = {big}\n{rest}iterations = 20\n", ["samples.csv"]))
    for doc in ("iterations = 0\n", "max_attempts = 0\n", f"iterations = {2**32 + 1}\n",
                f"iterations = {2**32 + 1}\nrho_u = 0.9\nrho_d = 0.9\n",
                "seed = -1\niterations = 0\n", "window_side = -1\nmax_attempts = 0\n"):
        out.append((f"simulate {doc.strip().replace(chr(10), ', ')} (out of domain)",
                    CLI + ["simulate"], doc, []))
    out.append(("simulate --iterations 0 (out of domain)",
                CLI + ["simulate", "--iterations", "0"], "", []))
    forced = "rho_u = 0.6\nrho_d = 0.7\nmax_attempts = 50\n"
    out.append(("simulate both rho_u=0.6 rho_d=0.7",
                CLI + ["simulate", "--scheme", "both", "--iterations", "150",
                       "--samples-out", "samples.csv"], forced, ["samples.csv"]))
    for mode in ("dl", "ul"):
        out.append((f"simulate both window_side=24 {mode}",
                    CLI + ["simulate", "--scheme", "both", "--iterations", "100",
                           "--samples-out", "samples.csv"],
                    f"window_side = 24\ntypical_mode = {mode}\n", ["samples.csv"]))
    for sweep in ("s_u:0.1:0.9:3", "rho_product:0.2:1:3", "delta:0.2:0.8:3",
                  "lambda_b:0.002:0.006:3", "beta_u_db:-5:5:3", "beta_d_db:-5:5:3"):
        out.append((f"sweep {sweep}",
                    CLI + ["sweep", "--sweep", sweep, "--mode", "both", "--iterations", "60"],
                    "", []))
    out.append(("sweep lambda_b:0.004:0.006:2 both schemes, ul, fixed, redraw",
                CLI + ["sweep", "--sweep", "lambda_b:0.004:0.006:2", "--mode", "simulate",
                       "--scheme", "both", "--iterations", "60"],
                "typical_mode = ul\nattempt_model = fixed\ndirection_redraw = on\n", []))
    out.append(("sweep rho_product:0.3:1.0:8 simulate both (the sweep_rho workload)",
                CLI + ["sweep", "--sweep", "rho_product:0.3:1.0:8", "--mode", "simulate",
                       "--scheme", "both", "--iterations", "6000", "--seed", "7"], "", []))
    for sweep in ("s_u:0.1:1.5:3", "rho_product:0:1:3", "delta:0.2:1:3",
                  "lambda_b:0:0.006:3", "beta_u_db:-4000:0:3", "beta_d_db:-4000:0:3"):
        out.append((f"sweep {sweep} (out of domain)", CLI + ["sweep", "--sweep", sweep], "", []))
    out.append(("simulate window_side=1", CLI + ["simulate"], "window_side = 1\n", []))
    out.append(("sweep s_u:0.1:0.9:2 window_side=1 (every row fails)",
                CLI + ["sweep", "--sweep", "s_u:0.1:0.9:2", "--mode", "simulate"],
                "window_side = 1\n", []))
    out.append(("simulate window_side=5e-324 (out of domain)", CLI + ["simulate"],
                "window_side = 5e-324\n", []))
    out.append(("simulate, config not UTF-8 (file error)", CLI + ["simulate"],
                b"# d\xe9faut\niterations = 20\n", []))
    out.append(("analytic --out missing/x.csv (file error)",
                CLI + ["analytic", "--out", "missing/x.csv"], "", []))
    out.append(("simulate --samples-out missing/samples.csv (file error)",
                CLI + ["simulate", "--iterations", "20", "--samples-out", "missing/samples.csv"],
                forced, []))
    out.append(("validate", CLI + ["validate", "--iterations", "500"], "", []))
    out.append(("validate window_side=1", CLI + ["validate"], "window_side = 1\n", []))
    out.append(("validate beta_u_db=40 (duca rho_u = 0)",
                CLI + ["validate", "--iterations", "200"], "beta_u_db = 40\n", []))
    out.append(("demo 03", ["demos/03_deployment_snapshot.py"], None,
                ["deployment_snapshot.csv"]))
    return out


def run(tree: Path, case) -> dict:
    """One case on one tree: {output name: bytes}."""
    name, argv, doc, files = case
    with tempfile.TemporaryDirectory(prefix="fingerprint_") as tmp:
        cwd = Path(tmp)
        if doc is not None:
            (cwd / "run.cfg").write_bytes(doc if isinstance(doc, bytes) else doc.encode())
            argv = argv + ["--config", "run.cfg"]
        else:  # a script of the tree
            argv = [str(tree / argv[0])] + argv[1:]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                                  capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            outputs = {"stdout": b"timed out after %d s\n" % TIMEOUT_S, "stderr": b""}
        else:
            outputs = {"stdout": b"exit %d\n" % proc.returncode + proc.stdout,
                       # a traceback names the tree's own paths
                       "stderr": proc.stderr.replace(str(tree).encode(), b"<tree>")}
        for f in files:
            path = cwd / f
            outputs[f] = path.read_bytes() if path.exists() else b"<missing>"
    return outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="git revision to compare against")
    args = ap.parse_args(argv)
    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    todo = cases()
    with tempfile.TemporaryDirectory(prefix="fingerprint_parent_") as tmp:
        parent = Path(tmp)
        export(parent_sha, parent)
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = {side: [pool.submit(run, tree, case) for case in todo]
                   for side, tree in (("parent", parent), ("change", ROOT))}
            results = {side: [f.result() for f in futures] for side, futures in got.items()}
    differ = 0
    print(f"parent {parent_sha[:12]} against the working tree")
    for case, old, new in zip(todo, results["parent"], results["change"]):
        for key in new:
            if key == "stderr" and not (old[key] or new[key]):
                continue
            a = hashlib.sha256(old[key]).hexdigest()[:16]
            b = hashlib.sha256(new[key]).hexdigest()[:16]
            differ += a != b
            print(f"{b}  {'same' if a == b else 'DIFF parent ' + a:<33}  {case[0]}: {key}")
    print(f"{differ} of the outputs differ" if differ else "every output is identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
