"""Command-line front end.

Subcommands: ``analytic`` (closed forms at the analytic success
probabilities), ``simulate`` (Monte Carlo campaigns), ``sweep`` (parameter
sweeps to CSV), ``validate`` (the invariant suite), ``snapshot`` (one
deployment realization as CSV for plotting).

Flags mirror configuration keys and override the --config file, which in
turn overrides the built-in defaults.  Exit codes: 0 success, 1 validation
failure, 2 configuration error (a window too small for a usable
realization, a success probability whose quadrature does not converge, a
sweep whose every row failed, a file that cannot be read, decoded or written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from .config import ConfigBundle, ConfigError, parse_config
from .deployment import NoRealizationError, RngStream, origin_deployment, snapshot_csv
from .montecarlo import realize, samples_csv
from .quadrature import QuadratureConvergenceError
from .sweep import (
    analytic_link, closed_form, rows_to_csv, run_sweep, simulate_campaign, simulate_row,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dudasim",
        description="Two-way latency of coupled vs. decoupled TDD access: "
        "closed forms, success probabilities, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analytic", "closed-form latencies at analytic success probabilities"),
        ("simulate", "Monte Carlo campaigns at the configured parameters"),
        ("sweep", "parameter sweep to CSV"),
        ("validate", "run the invariant suite"),
        ("snapshot", "emit one deployment realization as CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="key=value configuration file")
        p.add_argument("--seed", type=int, help="campaign seed")
        p.add_argument("--iterations", type=int, help="Monte Carlo iterations")
        p.add_argument("--scheme", choices=("duda", "duca", "both"), help="scheme selection")
        p.add_argument("--mode", choices=("analytic", "simulate", "both"), help="sweep mode")
        p.add_argument(
            "--sweep", metavar="VAR:START:STOP:STEPS", help="sweep specification"
        )
        p.add_argument("--out", type=Path, help="output CSV path (default stdout)")
        p.add_argument("--noise", choices=("on", "off"), help="include thermal noise")
        if name in ("simulate", "sweep"):
            p.add_argument(
                "--timing", action="store_true",
                help="append a wall_time_ms column (breaks byte-identical reruns)",
            )
        if name == "simulate":
            p.add_argument(
                "--samples-out", type=Path, help="write raw per-trial samples CSV"
            )
    return parser


def _overrides(args: argparse.Namespace) -> Dict[str, str]:
    over = {
        key: str(getattr(args, key))
        for key in ("seed", "iterations", "scheme", "mode", "noise")
        if getattr(args, key) is not None
    }
    if args.sweep is not None:
        parts = args.sweep.split(":")
        if len(parts) != 4:
            raise ConfigError("--sweep expects VAR:START:STOP:STEPS")
        over.update(zip(("sweep_variable", "sweep_start", "sweep_stop", "sweep_steps"), parts))
    return over


def _load_bundle(args: argparse.Namespace) -> ConfigBundle:
    text = ""
    if args.config is not None:
        try:
            text = args.config.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
    return parse_config(text, _overrides(args))


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from None


def _cmd_analytic(args, bundle: ConfigBundle) -> int:
    link = bundle.forced_link or analytic_link(bundle.params)
    lines = ["scheme,rho_u,rho_d,protocol,retransmission,fundamental,total"]
    for scheme in bundle.sweep.schemes:
        b = closed_form(scheme, bundle.timing, link)
        lines.append(
            f"{scheme},{link.rho_u:.9g},{link.rho_d:.9g},"
            f"{b.protocol:.9g},{b.retransmission:.9g},{b.fundamental:.9g},{b.total:.9g}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args, bundle: ConfigBundle) -> int:
    schemes, forced = bundle.sweep.schemes, bundle.forced_link
    realized = None if forced else realize(bundle.trial, schemes)
    stats = [
        simulate_campaign(replace(bundle.trial, scheme=scheme), forced, realized)
        for scheme in schemes
    ]
    rows = [simulate_row("s_u", bundle.timing.s_u, st) for st in stats]
    _emit(rows_to_csv(rows, args.timing), args.out)
    if args.samples_out is not None:
        _emit(samples_csv(*stats), args.samples_out)
    return EXIT_OK


def _cmd_sweep(args, bundle: ConfigBundle) -> int:
    rows = run_sweep(bundle.sweep, bundle)
    _emit(rows_to_csv(rows, args.timing), args.out)
    # run_sweep warns per failed row and writes it as NaNs; a sweep with no
    # good row at all is a configuration error, as it is for simulate
    if all(math.isnan(r.latency_mean) for r in rows):
        print(f"configuration error: all {len(rows)} sweep rows failed", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


def _cmd_validate(args, bundle: ConfigBundle) -> int:
    from .validation import run_validation  # scipy.stats: imported only here

    report = run_validation(bundle)
    _emit(report.text(), args.out)
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILURE


def _cmd_snapshot(args, bundle: ConfigBundle) -> int:
    params, trial = bundle.params, bundle.trial
    dep, _ = origin_deployment(params.lambda_b, params.delta, trial.window_half_width,
                               RngStream(trial.seed, 0), bundle.sweep.schemes[0],
                               trial.typical_mode)
    _emit(snapshot_csv(dep), args.out)
    return EXIT_OK


_COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "snapshot": _cmd_snapshot,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        bundle = _load_bundle(args)
        return _COMMANDS[args.command](args, bundle)
    except (ConfigError, NoRealizationError, QuadratureConvergenceError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
