"""Command-line harness: `hamest run|sweep|verify`.

run     execute the configured experiment, write a CSV of per-trial records
        and a JSON summary (success rate, the planned time resource T).
sweep   rerun the experiment over a decreasing list of error tolerances and
        fit the log-log slope of the planned time resource, which every
        completed trial of a delta carries as its T.
verify  run the seeded invariant suites and report PASS/FAIL per property.

`run` and `sweep` write the CSV to --out (default <command>_<scheme>.csv)
and the summary next to it, list each errored trial with its delta on
stderr, and exit 1 when some delta completed no trial.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import parse_config
from .errors import HamestError, ValidationError
from .runner import run_experiment, run_sweep, write_outputs
from .verify import SUITES, run_suite


def _output_paths(args, cfg) -> tuple[str, str]:
    """The CSV (--out, else <command>_<scheme>.csv) and the summary path beside it.

    Both are checked before any trial runs, so a missing directory, or a
    target that is a directory, costs no run.
    """
    csv_path = args.out or f"{args.command}_{cfg.scheme}.csv"
    json_path = csv_path.removesuffix(".csv") + ".summary.json"
    for path in (csv_path, json_path):
        if not Path(path).parent.is_dir():
            raise ValidationError(f"output directory does not exist: {path}")
        if Path(path).is_dir():
            raise ValidationError(f"output path is a directory: {path}")
    return csv_path, json_path


def cmd_experiment(args) -> int:
    """`run` or `sweep`: exit 1 when a delta completed no trial, else 0."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    csv_path, json_path = _output_paths(args, cfg)
    if args.command == "sweep":
        try:
            deltas = [float(x) for x in args.delta_list.split(",") if x.strip()]
        except ValueError:
            raise ValidationError(f"could not parse --delta-list {args.delta_list!r}")
        rows, summary = run_sweep(cfg, deltas, jobs=args.jobs)
        report = f"slope={summary['slope']:.4f}"
    else:
        rows, summary = run_experiment(cfg, jobs=args.jobs)
        report = (f"success_rate={summary['success_rate']:.3f} "
                  f"total_time={summary['total_time']:.6g}")
    write_outputs(rows, summary, csv_path, json_path)
    for r in rows:
        if r["error"]:
            print(f"trial {r['trial']} at delta {r['delta']}: {r['error']}", file=sys.stderr)
    print(f"wrote {len(rows)} trials to {csv_path}; {report}")
    if summary["capped_stages"]:
        print(f"warning: r_max = {cfg.constants.effective_r_max(cfg.d)} caps r in "
              f"{summary['capped_stages']} plan stages", file=sys.stderr)
    blocks = summary.get("per_delta", [dict(summary, delta=cfg.delta)])
    empty = [b for b in blocks if b["n_errors"] == b["n_trials"]]
    for b in empty:
        print(f"error: no trial completed at delta {b['delta']}: {b['errors_by_type']}",
              file=sys.stderr)
    return 1 if empty else 0


def cmd_verify(args) -> int:
    ok = run_suite(args.suite)
    print("verify:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamest",
        description="Multiparameter Hamiltonian estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file")
    common.add_argument("--seed", type=int, default=None, help="override master seed")
    common.add_argument("--out", default=None,
                        help="CSV output path; the summary goes next to it")
    common.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    common.set_defaults(func=cmd_experiment)

    sub.add_parser("run", parents=[common], help="run one configured experiment")
    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="scaling sweep over error tolerances")
    sweep_p.add_argument("--delta-list", required=True,
                         help="comma-separated, strictly decreasing deltas")

    verify_p = sub.add_parser("verify", help="run invariant suites")
    verify_p.add_argument("suite", choices=sorted(SUITES))
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HamestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
