"""Command-line harness: `hamest run|sweep|verify`.

run     execute the configured experiment, write a CSV of per-trial records
        and a JSON summary (success rate, median/quartile time resource);
        exits 1 when no trial completed.
sweep   rerun the experiment over a decreasing list of error tolerances and
        fit the log-log scaling of the median time resource.
verify  run the seeded invariant suites and report PASS/FAIL per property.
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
    """The CSV (--out, else the config's, else <command>_<scheme>.csv) and summary paths.

    Both are checked before any trial runs, so a missing directory, or a
    target that is a directory, costs no run.
    """
    csv_path = args.out or cfg.out_csv or f"{args.command}_{cfg.scheme}.csv"
    json_path = (cfg.out_json if cfg.out_json and not args.out
                 else csv_path.removesuffix(".csv") + ".summary.json")
    for path in (csv_path, json_path):
        if not Path(path).parent.is_dir():
            raise ValidationError(f"output directory does not exist: {path}")
        if Path(path).is_dir():
            raise ValidationError(f"output path is a directory: {path}")
    return csv_path, json_path


def _load_config(args):
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    csv_path, json_path = _output_paths(args, cfg)
    rows, summary = run_experiment(cfg, jobs=args.jobs)
    write_outputs(rows, summary, csv_path, json_path)
    for r in rows:
        if r["error"]:
            print(f"trial {r['trial']}: {r['error']}", file=sys.stderr)
    print(f"wrote {len(rows)} trials to {csv_path}; "
          f"success_rate={summary['success_rate']:.3f} "
          f"median_T={summary['median_T']:.6g}")
    if summary["capped_stages"]:
        print(f"warning: r_max = {cfg.constants.effective_r_max(cfg.d)} caps r in "
              f"{summary['capped_stages']} plan stages", file=sys.stderr)
    if summary["n_errors"] == summary["n_trials"]:
        print(f"error: no trial completed: {summary['errors_by_type']}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        deltas = [float(x) for x in args.delta_list.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"could not parse --delta-list {args.delta_list!r}")
    csv_path, json_path = _output_paths(args, cfg)
    rows, summary = run_sweep(cfg, deltas, jobs=args.jobs)
    write_outputs(rows, summary, csv_path, json_path)
    print(f"wrote {len(rows)} trials to {csv_path}; slope={summary['slope']:.4f}")
    return 0


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
    common.add_argument("--out", default=None, help="CSV output path")
    common.add_argument("--jobs", type=int, default=1, help="parallel worker count")

    run_p = sub.add_parser("run", parents=[common], help="run one configured experiment")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="scaling sweep over error tolerances")
    sweep_p.add_argument("--delta-list", required=True,
                         help="comma-separated, strictly decreasing deltas")
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run invariant suites")
    verify_p.add_argument("suite", choices=sorted(SUITES))
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HamestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
