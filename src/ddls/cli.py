"""Command-line front end: scenario loading, experiment orchestration,
and result export.

Subcommands:

``run``
    Execute one strategy on a scenario and write metrics.csv,
    trajectory.csv and feedback.csv into the output directory.

``compare``
    Run several strategies on the identical arrival draw and write
    summary.csv (relative savings against uncontrolled) plus
    metrics.csv.

``codebook``
    Print the scenario's codebook and export it as codebook.json.

``rates``
    Print the communication budget implied by the scenario: per-home
    uplink rate, aggregator-side arrival-count entropy, and the
    threshold-feedback downlink bound.

``validate``
    Check a scenario file against the schema and invariants; prints
    "ok" or a specific error.

All CSV output goes through the package's deterministic writer (%.9g
floats, atomic rename), so a run repeated with the same seed produces
byte-identical files.  Set DDLS_LOG=INFO or DEBUG for more logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .codec import FeedbackRateParams, Quantizer, codebook_to_json, feedback_rate_bound, \
    uplink_rate_cems, uplink_rate_hems
from .errors import ConfigurationError, FeasibilityError, SolverError
from .feedback import encode_thresholds, message_log_to_csv
from .simkit import (
    STRATEGIES,
    ScenarioConfig,
    compare,
    load_scenario,
    metrics_to_csv,
    run_scenario,
    summary_rows,
    summary_to_csv,
)

log = logging.getLogger("ddls.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddls",
        description="Deferrable-load scheduling experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, type=Path,
                        help="scenario JSON file")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    common.add_argument("--strategy", choices=STRATEGIES, default=None,
                        help="override the scenario strategy")
    common.add_argument("--schedulers", type=int, default=None, metavar="M",
                        help="override the number of distributed schedulers")
    common.add_argument("--lookahead", type=int, default=None, metavar="T",
                        help="override the planning window length")

    sub.add_parser("run", parents=[common],
                   help="run one strategy, write metrics/trajectory/feedback CSVs")

    cmp_parser = sub.add_parser("compare", parents=[common],
                                help="run strategies on one arrival draw, write summary CSV")
    cmp_parser.add_argument("--strategies", default=",".join(STRATEGIES),
                            help="comma-separated strategy list (default: all)")

    sub.add_parser("codebook", parents=[common],
                   help="print the codebook and export codebook.json")

    rates_parser = sub.add_parser("rates", parents=[common],
                                  help="print uplink/downlink communication rates")
    rates_parser.add_argument("--window", type=int, default=16, metavar="D",
                              help="arrival-time quantization window (default 16)")
    rates_parser.add_argument("--cutoff-correlation", type=float, default=0.0,
                              help="consecutive-cutoff correlation for the feedback bound")
    rates_parser.add_argument("--cutoff-variance", type=float, default=1.0,
                              help="cutoff variance for the feedback bound")

    sub.add_parser("validate", parents=[common],
                   help="check the scenario file, print ok or the first error")
    return parser


def load_command_config(command: argparse.Namespace) -> ScenarioConfig:
    """Read the scenario and apply the command-line overrides."""
    config = load_scenario(command.config)
    overrides = {}
    if command.seed is not None:
        overrides["seed"] = command.seed
    if command.strategy is not None:
        overrides["strategy"] = command.strategy
    if command.schedulers is not None:
        overrides["n_schedulers"] = command.schedulers
    if command.lookahead is not None:
        overrides["lookahead"] = command.lookahead
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _feedback_messages(result):
    messages = []
    if result.ledger is None:
        return messages
    for epoch in range(len(result.trajectory)):
        targets = result.ledger.cumulative_departures(epoch)
        messages.append(encode_thresholds(result.ledger, targets, epoch))
    return messages


def cmd_run(command: argparse.Namespace) -> int:
    config = load_command_config(command)
    log.info("running strategy %s on %s", config.strategy, command.config)
    result = run_scenario(config)
    command.out.mkdir(parents=True, exist_ok=True)
    metrics_to_csv([result.metrics], command.out / "metrics.csv")
    result.trajectory.to_csv(command.out / "trajectory.csv")
    message_log_to_csv(_feedback_messages(result), command.out / "feedback.csv")

    m = result.metrics
    print(f"strategy {m.strategy}")
    print(f"seed {m.seed}")
    print(f"total_cost {m.total_cost:.9g}")
    print(f"deviation_cost {m.deviation_cost:.9g}")
    print(f"delay_cost {m.delay_cost:.9g}")
    print(f"mean_delay_epochs {m.mean_delay_epochs:.9g}")
    print(f"peak_kw {m.peak_kw:.9g}")
    print(f"served {m.served}")
    print(f"wrote {command.out}/metrics.csv trajectory.csv feedback.csv")
    return 0


def cmd_compare(command: argparse.Namespace) -> int:
    config = load_command_config(command)
    names = tuple(s.strip() for s in command.strategies.split(",") if s.strip()) or STRATEGIES
    unknown = [n for n in names if n not in STRATEGIES]
    if unknown:
        raise ConfigurationError(f"unknown strategies: {unknown}")
    results = compare(config, names)
    command.out.mkdir(parents=True, exist_ok=True)
    rows = summary_rows(results)
    summary_to_csv(rows, command.out / "summary.csv")
    metrics_to_csv([r.metrics for r in results], command.out / "metrics.csv")

    print(f"{'strategy':<14}{'total_cost':>14}{'savings':>10}{'peak_kw':>10}"
          f"{'mean_delay':>12}{'served':>8}")
    for row in rows:
        print(f"{row['strategy']:<14}{row['total_cost']:>14.9g}"
              f"{row['cost_savings_vs_uncontrolled']:>10.1%}{row['peak_kw']:>10.9g}"
              f"{row['mean_delay_epochs']:>12.9g}{row['served']:>8}")
    print(f"wrote {command.out}/summary.csv metrics.csv")
    return 0


def cmd_codebook(command: argparse.Namespace) -> int:
    config = load_command_config(command)
    command.out.mkdir(parents=True, exist_ok=True)
    codebook_to_json(Quantizer(config.codebook), command.out / "codebook.json")
    print("id rate_kw duration_epochs energy_kw_epochs")
    for code in config.codebook:
        print(f"{code.id} {code.rate_kw:.9g} {code.duration_epochs} {code.energy:.9g}")
    print(f"wrote {command.out}/codebook.json")
    return 0


def cmd_rates(command: argparse.Namespace) -> int:
    config = load_command_config(command)
    lam = float(config.epoch_rates().sum(axis=0).mean())
    n_codes = config.n_queues
    hems = uplink_rate_hems(lam, config.interval_s, command.window, n_codes)
    cems = uplink_rate_cems(lam, n_codes) if lam > 0 else 0.0
    params = FeedbackRateParams(
        [command.cutoff_correlation] * n_codes,
        [command.cutoff_variance] * n_codes,
    )
    bound = feedback_rate_bound(params, config.interval_s)
    print(f"n_codes {n_codes}")
    print(f"window {command.window}")
    print(f"arrivals_per_interval {lam:.9g}")
    print(f"uplink_hems_bit_per_s {hems:.9g}")
    print(f"uplink_cems_bits_per_interval {cems:.9g}")
    print(f"feedback_bit_per_s {bound:.9g}")
    return 0


def cmd_validate(command: argparse.Namespace) -> int:
    load_command_config(command)
    print("ok")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "codebook": cmd_codebook,
    "rates": cmd_rates,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("DDLS_LOG", "WARNING").upper(), logging.WARNING)
    )
    command = build_parser().parse_args(argv)
    try:
        return _COMMANDS[command.subcommand](command)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"error: {command.config} is not valid JSON: {exc}", file=sys.stderr)
    except (ConfigurationError, FeasibilityError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
