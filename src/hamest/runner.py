"""Seeded batch execution of estimation experiments.

Each trial owns an independent RNG stream keyed by (master seed, trial
index) through a splitmix64 hash that seeds an SFC64 generator, so results
are bit-identical regardless of execution order or worker count.
Rows are emitted in trial order by a single writer.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from collections import Counter

import numpy as np

from . import estimation
from .config import ExperimentConfig
from .constants import is_int
from .errors import HamestError, ValidationError
from .model import HamiltonianModel, make_model

__all__ = [
    "CSV_HEADER",
    "trial_seed",
    "trial_rng",
    "run_experiment",
    "run_sweep",
    "rows_to_csv",
    "summarize",
]

CSV_HEADER = "trial,seed,scheme,d,m,delta,E,theta_err,total_time,success,stages"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(master_seed: int, index: int) -> int:
    return _splitmix64((master_seed ^ ((index + 1) * _GOLDEN)) & _MASK)


def trial_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed))


def _sample_theta(m: int, e_radius: float, worst_case: bool,
                  rng: np.random.Generator) -> np.ndarray:
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    radius = e_radius * (1.0 - 0.02 * rng.random() if worst_case else rng.random() ** (1.0 / m))
    return u * radius


def _format_stages(stages) -> str:
    return "|".join(f"{s.n}:{s.tau!r}:{s.copies}:{s.accept_rate!r}"
                    + (":failed" if s.failed else "")
                    for s in stages)


def _run_trial(cfg: ExperimentConfig, model: HamiltonianModel, plan: list, master: int,
               index: int) -> dict:
    seed = trial_seed(master, index)
    rng = trial_rng(seed)
    theta = _sample_theta(model.m, cfg.e_radius, cfg.worst_case_grid, rng)
    row = {
        "trial": index, "seed": seed, "scheme": cfg.scheme, "d": cfg.d,
        "m": model.m, "delta": cfg.delta, "E": cfg.e_radius,
    }
    try:
        rec = estimation._run_plan(cfg.scheme, plan, model, theta, cfg.delta, cfg.e_radius,
                                   rng, seed)
        row.update(theta_err=rec.error, total_time=rec.total_time,
                   success=rec.success, stages=_format_stages(rec.stages),
                   error=None)
    except HamestError as exc:
        row.update(theta_err=float("nan"), total_time=0.0, success=False,
                   stages="", error=f"{type(exc).__name__}: {exc}")
    return row


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_block(cfg: ExperimentConfig, model: HamiltonianModel, plan: list, master: int,
               jobs: int) -> tuple[list[dict], dict]:
    """The cfg.trials rows at cfg.delta, in trial order, and their summary.

    One model and one plan serve every trial, on min(jobs, trials, usable CPUs) processes;
    only more than one imports and starts a process pool.
    ``total_time`` is the plan's T, which every completed trial carries, and
    ``capped_stages`` counts the stages of ``plan`` whose r the r_max cap holds back.
    """
    trial = functools.partial(_run_trial, cfg, model, plan, master)
    workers = min(jobs, cfg.trials, _usable_cpus())
    if workers == 1:
        rows = [trial(i) for i in range(cfg.trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(trial, range(cfg.trials), chunksize=1))
    return rows, dict(summarize(rows), total_time=estimation._total_time(plan),
                      capped_stages=sum(s.capped for s in plan))


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list[dict], dict]:
    if not (is_int(jobs) and jobs >= 1):    # before the model is built
        raise ValidationError(f"jobs must be >= 1, got {jobs!r}")
    model = make_model(cfg.model_kind, cfg.d)
    plan = estimation._plan(cfg.scheme, model, cfg.delta, cfg.e_radius, cfg.constants)
    return _run_block(cfg, model, plan, cfg.master_seed, jobs)


def run_sweep(cfg: ExperimentConfig, deltas, jobs: int = 1) -> tuple[list[dict], dict]:
    """Run the experiment at each delta and fit log(T) vs log(delta).

    T is each delta's planned time resource, its ``total_time`` in
    ``per_delta``, so the fit needs no completed trial.
    """
    if not (is_int(jobs) and jobs >= 1):
        raise ValidationError(f"jobs must be >= 1, got {jobs!r}")
    # admit each delta as given before the one model is built; plan them all before any trial
    cfgs = [dataclasses.replace(cfg, delta=delta) for delta in deltas]
    if len(cfgs) < 3:
        raise ValidationError("sweep needs at least 3 delta values")
    if any(b.delta >= a.delta for a, b in zip(cfgs, cfgs[1:])):
        raise ValidationError("delta values must be strictly decreasing")
    model = make_model(cfg.model_kind, cfg.d)
    plans = [estimation._plan(c.scheme, model, c.delta, c.e_radius, c.constants) for c in cfgs]
    rows, per_delta = [], []
    for di, (block_cfg, plan) in enumerate(zip(cfgs, plans)):
        block, stats = _run_block(block_cfg, model, plan, trial_seed(cfg.master_seed, di), jobs)
        rows.extend(block)
        per_delta.append(dict(stats, delta=block_cfg.delta))

    x = np.log([s["delta"] for s in per_delta])
    y = np.log([s["total_time"] for s in per_delta])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = (y - (slope * x + intercept)).tolist()
    summary = summarize(rows)
    summary.update(capped_stages=sum(s["capped_stages"] for s in per_delta),
                   slope=float(slope), intercept=float(intercept),
                   residuals=residuals, per_delta=per_delta)
    return rows, summary


def summarize(rows) -> dict:
    """Success rate over all trials, errors by type, and failed stages of the completed ones."""
    if not rows:
        raise ValidationError("summarize needs at least one trial row")
    errors = Counter(r["error"].split(":", 1)[0] for r in rows if r.get("error"))
    completed = [r for r in rows if not r.get("error")]
    return {
        "n_trials": len(rows),
        "success_rate": float(np.mean([bool(r["success"]) for r in rows])),
        "n_errors": sum(errors.values()),
        "errors_by_type": dict(sorted(errors.items())),
        "stage_failures": sum(r["stages"].count(":failed") for r in completed),
    }


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):    # a numpy float too
        return repr(float(value))
    return str(value)


def rows_to_csv(rows) -> str:
    cols = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    lines += [",".join(_csv_cell(row[c]) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


def write_outputs(rows, summary, csv_path, json_path) -> None:
    """CSV rows and JSON summary."""
    with open(csv_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
