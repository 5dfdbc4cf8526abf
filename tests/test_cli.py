import concurrent.futures
import json
import math
import multiprocessing
import os
import pickle
import re
import threading
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hamest import estimation, runner
from hamest.bounds import bound_report
from hamest.cli import main
from hamest.config import ExperimentConfig, parse_config, parse_config_text
from hamest.constants import SchemeConstants
from hamest.errors import InversionUnstableError, ValidationError
from hamest.estimation import run_adaptive, run_many_channel, run_one_channel
from hamest.model import make_model
from hamest.runner import (CSV_HEADER, rows_to_csv, run_experiment, run_sweep,
                           trial_seed)
from hamest.verify import SUITES, run_suite

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = Path(__file__).parents[1] / "configs"

MINI = """
model = full
d = 2
scheme = adaptive
delta = 0.1
E = 1.0
trials = {trials}
seed = 4242
"""

# A non-default value for every field of SchemeConstants.
CONSTANT_OVERRIDES = {"kappa": "0.3", "alpha": "10", "r_max": "7", "trotter_slices": "true"}
# The 12 config keys, as the unknown-key message lists them: 6 required, 6 optional.
VALID_KEYS = ("alpha, d, delta, e, kappa, model, r_max, scheme, seed, trials, trotter_slices, "
              "worst_case_grid")


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def plan_time(cfg, delta):
    """The planned T of cfg's experiment at delta: Sigma N r tau of its stage plan."""
    model = make_model(cfg.model_kind, cfg.d)
    return estimation._total_time(estimation._plan(cfg.scheme, model, delta, cfg.e_radius,
                                                   cfg.constants))


def completed_times(csv_text, delta):
    """The total_time cells, as floats, of the completed rows at delta."""
    header, *lines = csv_text.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    return [float(r["total_time"]) for r in rows
            if r["delta"] == repr(delta) and r["stages"]]


@pytest.fixture
def failing_adaptive(monkeypatch):
    """Adaptive trials raise, as a trial whose inversion is unstable does.

    Every delta fails unless the test adds deltas to the returned set; then only those do.
    """
    only, run_plan = set(), estimation._run_plan

    def fail(scheme, plan, model, theta, delta, *args):
        if scheme != "adaptive" or (only and delta not in only):
            return run_plan(scheme, plan, model, theta, delta, *args)
        raise InversionUnstableError("|c_0| below the inversion threshold")

    monkeypatch.setattr(estimation, "_run_plan", fail)
    return only


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config_text(MINI.format(trials=3))
        assert cfg.scheme == "adaptive" and cfg.trials == 3
        assert cfg.master_seed == 4242

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# header\nmodel=full\n\nd=2\nscheme=one_channel\n"
                                "delta=0.2\ne=1.0\ntrials=1  # inline\n")
        assert cfg.trials == 1

    def test_unknown_scheme_lists_valid(self):
        with pytest.raises(ValidationError, match="one_channel, adaptive, many_channel"):
            parse_config_text("model=full\nd=2\nscheme=warp\ndelta=0.1\ne=1\ntrials=1\n")

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config_text("model=full\nd=2\nscheme=adaptive\ndelta=0.1\n"
                              "e=1\ntrials=1\nwarp_factor=9\n")

    def test_missing_keys(self):
        with pytest.raises(ValidationError, match="missing required"):
            parse_config_text("model=full\nd=2\n")

    def test_delta_ratio_enforced(self):
        with pytest.raises(ValidationError, match="delta/E"):
            ExperimentConfig(model_kind="full", d=2, scheme="adaptive",
                             delta=0.3, e_radius=1.0, trials=1, master_seed=0)

    def test_every_constant_is_a_config_key(self):
        text = MINI.format(trials=1) + "".join(
            f"{f.name}={CONSTANT_OVERRIDES[f.name]}\n" for f in fields(SchemeConstants))
        assert parse_config_text(text).constants == SchemeConstants(
            kappa=0.3, alpha=10.0, r_max=7, trotter_slices=True)

    def test_constants_overrides(self):
        cfg = parse_config_text(MINI.format(trials=1) + "kappa=0.4\nalpha=32\n"
                                "r_max=16\n")
        assert cfg.constants.kappa == 0.4
        assert cfg.constants.alpha == 32
        assert cfg.constants.r_max == 16

    @pytest.mark.parametrize("override", ["kappa=0", "alpha=0", "p_crit=0",
                                          "p_crit=1", "r_max=0", "r_max=-3", "r_max=2.5",
                                          "trotter_slices=-1", "trotter_slices=8",
                                          "trotter_slices=2.5", "delta=0.05",
                                          "kappa=inf", "alpha=inf", "beta=1"])
    def test_bad_constants_rejected_before_any_trial(self, override, tmp_path, capsys):
        # beta, the retired staged copy growth, and p_crit, the retired failure budget, are
        # unknown keys at any value
        field = override.split("=")[0]
        text = MINI.format(trials=1) + override + "\n"
        with pytest.raises(ValidationError, match=field):
            parse_config_text(text)
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "res.csv")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.parametrize("field, value", [("r_max", 2.5), ("r_max", True),
                                              ("trotter_slices", 2.5), ("trotter_slices", 8),
                                              ("trotter_slices", 1),
                                              *[(field, value)
                                                for field in ("kappa", "alpha")
                                                for value in ("0.5", None, True)]])
    def test_constants_check_their_types(self, field, value):
        # a non-integer r_max would plan and then fail every many_channel stage, a non-bool
        # trotter_slices would reach matrix_power as a slice count, a str or None float field
        # would reach a comparison as a bare TypeError, and a bool one would plan as 0 or 1
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            SchemeConstants(**{field: value})

    @pytest.mark.parametrize("constants", [None, {"kappa": 0.5}, "kappa = 0.5"],
                             ids=["None", "dict", "str"])
    def test_constants_must_be_scheme_constants(self, monkeypatch, constants):
        # a config used to take any constants, and run_experiment then built the model before
        # _plan rejected them
        def no_model(*args):
            pytest.fail("a model was built")

        monkeypatch.setattr(runner, "make_model", no_model)
        with pytest.raises(ValidationError, match="^constants must be a SchemeConstants, got"):
            run_experiment(ExperimentConfig("full", 2, "adaptive", 0.1, 1.0, trials=1,
                                            constants=constants))

    def test_trotter_slices_reads_on_or_off(self):
        for value, on in (("true", True), ("1", True), ("yes", True), ("false", False),
                          ("0", False), ("no", False)):
            cfg = parse_config_text(MINI.format(trials=1) + f"trotter_slices = {value}\n")
            assert cfg.constants.trotter_slices is on

    def test_repeated_key_names_both_lines(self):
        # MINI sets delta on line 5; a later value must not silently win
        with pytest.raises(ValidationError, match="'delta' given twice, on lines 5 and 9"):
            parse_config_text(MINI.format(trials=1) + "delta = 0.05\n")
        with pytest.raises(ValidationError, match="'e' given twice, on lines 6 and 9"):
            parse_config_text(MINI.format(trials=1) + "e = 2.0\n")


# (scheme, delta, E) outside the run domain, each with the one message every entry point gives
RANGE = "delta/E must lie in (0, 1/5] with E finite, got delta={}, E={}"
REJECTED = {
    "delta/E=0.3": ("adaptive", 0.3, 1.0, RANGE.format(0.3, 1.0)),
    "delta/E=0.9": ("adaptive", 0.9, 1.0, RANGE.format(0.9, 1.0)),
    "E=inf": ("adaptive", 0.1, math.inf, RANGE.format(0.1, math.inf)),
    "E=0": ("adaptive", 0.1, 0.0, RANGE.format(0.1, 0.0)),
    "E=-1": ("adaptive", 0.1, -1.0, RANGE.format(0.1, -1.0)),
    "delta=nan": ("adaptive", math.nan, 1.0, RANGE.format(math.nan, 1.0)),
    "delta/E=2^-41": ("adaptive", 2.0 ** -41, 1.0,
                      f"delta/E must be at least 2^-40, got delta/E={2.0 ** -41!r}"),
    "scheme=adaptve": ("adaptve", 0.1, 1.0, "unknown scheme 'adaptve'; valid schemes: "
                                            "one_channel, adaptive, many_channel"),
    # a bool or a str is no delta or E; a config casts both to float, so only the library
    # entry points meet these
    "delta=True": ("adaptive", True, 10.0, RANGE.format(True, 10.0)),
    "delta=str": ("adaptive", "0.1", 1.0, RANGE.format("0.1", 1.0)),
    "E=True": ("adaptive", 0.1, True, RANGE.format(0.1, True)),
    "E=str": ("adaptive", 0.1, "1.0", RANGE.format(0.1, "1.0")),
}
TYPE_CASES = ("delta=True", "delta=str", "E=True", "E=str")
FULL2, CONSTANTS = make_model("full", 2), SchemeConstants()
# the library entry points, called as (scheme, delta, E); the drivers and bound_report fix
# their scheme
ENTRY_POINTS = {
    "_plan": lambda scheme, delta, e: estimation._plan(scheme, FULL2, delta, e, CONSTANTS),
    "run_one_channel": lambda scheme, delta, e: run_one_channel(FULL2, [0.0] * 3, delta, e),
    "run_adaptive": lambda scheme, delta, e: run_adaptive(FULL2, [0.0] * 3, delta, e),
    "run_many_channel": lambda scheme, delta, e: run_many_channel(FULL2, [0.0] * 3, delta, e),
    "bound_report": lambda scheme, delta, e: bound_report(FULL2, delta, e),
    "ExperimentConfig": lambda scheme, delta, e: ExperimentConfig("full", 4096, scheme, delta, e,
                                                                  trials=1),
}


class TestAdmission:
    @pytest.mark.parametrize("entry, case", [
        pytest.param(entry, case, id=f"{entry}-{case}")
        for entry in [*ENTRY_POINTS, "run", "sweep"] for case in REJECTED
        if (case != "scheme=adaptve" or entry in ("_plan", "ExperimentConfig", "run", "sweep"))
        and (case not in TYPE_CASES or entry in ENTRY_POINTS)])
    def test_every_entry_point_gives_the_one_message(self, tmp_path, capsys, monkeypatch,
                                                     entry, case):
        # hamest run and sweep reject at d = 4096 before any model is built; where only delta is
        # bad, a sweep's config holds a valid delta and its --delta-list the bad one
        scheme, delta, e_radius, message = REJECTED[case]
        if entry in ENTRY_POINTS:
            with pytest.raises(ValidationError) as info:
                ENTRY_POINTS[entry](scheme, delta, e_radius)
            assert str(info.value) == message
            return

        def no_model(*args):
            pytest.fail("a model was built")

        monkeypatch.setattr(runner, "make_model", no_model)
        in_list = entry == "sweep" and (scheme, e_radius) == ("adaptive", 1.0)
        text = (f"model = full\nd = 4096\nscheme = {scheme}\n"
                f"delta = {0.1 if in_list else delta!r}\nE = {e_radius!r}\ntrials = 1\n")
        cfg_path, out = write_cfg(tmp_path, text), tmp_path / "res.csv"
        argv = [entry, "--config", cfg_path, "--out", str(out)]
        if entry == "sweep":
            argv += ["--delta-list", f"{delta!r},{delta / 2!r},{delta / 4!r}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not (tmp_path / "res.summary.json").exists()


class TestRunner:
    def test_csv_schema(self):
        cfg = parse_config_text(MINI.format(trials=2))
        rows, summary = run_experiment(cfg)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == ("trial,seed,scheme,d,m,delta,E,theta_err,"
                              "total_time,success,stages")
        assert len(text.splitlines()) == 3
        assert set(summary) == {"n_trials", "success_rate", "total_time", "n_errors",
                                "errors_by_type", "stage_failures", "capped_stages"}
        assert summary["total_time"] == plan_time(cfg, cfg.delta)
        assert completed_times(text, cfg.delta) == [summary["total_time"]] * 2

    @pytest.mark.parametrize("path, capped", [
        (GOLDEN / "many_channel_rmax8.cfg", 3),      # r = 2, 4, 8, 8, 8, 8 for 2 ... 64
        (CONFIGS / "one_channel.cfg", 0),
        (CONFIGS / "adaptive.cfg", 0),
        (CONFIGS / "many_channel.cfg", 0),
    ], ids=lambda x: getattr(x, "stem", x))
    def test_summary_counts_capped_stages(self, path, capped):
        _, summary = run_experiment(replace(parse_config(path), trials=1))
        assert summary["capped_stages"] == capped

    def test_sweep_sums_capped_stages(self):
        cfg = replace(parse_config(GOLDEN / "many_channel_rmax8.cfg"), trials=1)
        _, summary = run_sweep(cfg, [0.1, 0.05, 0.025])
        assert [p["capped_stages"] for p in summary["per_delta"]] == [1, 2, 3]
        assert summary["capped_stages"] == 6

    def test_summary_counts_failed_stages(self):
        cfg = parse_config(GOLDEN / "adaptive_failed_stage.cfg")
        rows, summary = run_experiment(cfg)
        cells = [cell.split(":") for r in rows for cell in r["stages"].split("|") if cell]
        failed = sum(cell[4:] == ["failed"] for cell in cells)
        assert failed >= 1
        assert summary["stage_failures"] == failed

    def test_errored_trials_stay_out_of_block_time(self, failing_adaptive):
        # the block's T is its plan's, whatever the 0.0 of an errored row
        cfg = parse_config_text(MINI.format(trials=2))
        rows, summary = run_experiment(cfg)
        assert [r["total_time"] for r in rows] == [0.0, 0.0]
        assert summary["n_errors"] == 2
        assert summary["errors_by_type"] == {"InversionUnstableError": 2}
        assert summary["success_rate"] == 0.0
        assert summary["total_time"] == plan_time(cfg, 0.1)

    def test_errored_row_csv_cells(self, failing_adaptive):
        rows, _ = run_experiment(parse_config_text(MINI.format(trials=1)))
        header, line = rows_to_csv(rows).splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert (cells["theta_err"], cells["total_time"], cells["success"], cells["stages"]) \
            == ("nan", "0.0", "false", "")

    def test_sweep_keeps_delta_without_completed_trial(self, failing_adaptive):
        # the slope is the plans' and needs no completed trial at any delta
        failing_adaptive.add(0.15)
        cfg, deltas = parse_config_text(MINI.format(trials=2)), [0.2, 0.15, 0.1]
        rows, summary = run_sweep(cfg, deltas)
        assert [r["delta"] for r in rows] == [0.2, 0.2, 0.15, 0.15, 0.1, 0.1]
        empty = summary["per_delta"][1]
        assert empty["delta"] == 0.15 and empty["n_errors"] == empty["n_trials"] == 2
        plan_T = [plan_time(cfg, delta) for delta in deltas]
        slope, intercept = np.polyfit(np.log(deltas), np.log(plan_T), 1)
        assert (summary["slope"], summary["intercept"]) == (slope, intercept)
        assert [p["total_time"] for p in summary["per_delta"]] == plan_T
        text = rows_to_csv(rows)
        assert [completed_times(text, delta) for delta in deltas] \
            == [[plan_T[0]] * 2, [], [plan_T[2]] * 2]
        assert "total_time" not in summary

    def test_deterministic_body(self):
        cfg = parse_config_text(MINI.format(trials=3))
        a, _ = run_experiment(cfg)
        b, _ = run_experiment(cfg)
        assert rows_to_csv(a) == rows_to_csv(b)

    def test_parallel_invariance(self):
        cfg = parse_config_text(MINI.format(trials=4))
        serial, _ = run_experiment(cfg, jobs=1)
        parallel, _ = run_experiment(cfg, jobs=2)
        assert rows_to_csv(serial) == rows_to_csv(parallel)

    def test_one_model_per_block(self, monkeypatch):
        built = []

        def counting_make_model(*args):
            built.append(args)
            return make_model(*args)

        monkeypatch.setattr(runner, "make_model", counting_make_model)
        run_experiment(parse_config_text(MINI.format(trials=3)))
        assert built == [("full", 2)]
        built.clear()
        run_sweep(parse_config_text(MINI.format(trials=2)), [0.2, 0.15, 0.1])
        assert built == [("full", 2)]

    def test_one_plan_per_block(self, monkeypatch):
        # one plan per delta before any trial, which every trial of that delta runs
        calls, plan = [], estimation._plan

        def counting_plan(*args):
            calls.append(args[2])
            return plan(*args)

        monkeypatch.setattr(estimation, "_plan", counting_plan)
        run_experiment(parse_config_text(MINI.format(trials=3)), jobs=1)
        assert calls == [0.1]
        calls.clear()
        run_sweep(parse_config_text(MINI.format(trials=2)), [0.2, 0.15, 0.1], jobs=1)
        assert calls == [0.2, 0.15, 0.1]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the patched plan only when forked")
    def test_workers_do_not_plan(self, monkeypatch):
        # a plan made in a pool worker would raise there and error its trial's row
        parent, plan = os.getpid(), estimation._plan

        def parent_only_plan(*args):
            if os.getpid() != parent:
                raise ValidationError("planned in a worker")
            return plan(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr(estimation, "_plan", parent_only_plan)
        rows, summary = run_experiment(parse_config_text(MINI.format(trials=4)), jobs=2)
        assert [r["error"] for r in rows] == [None] * 4 and summary["n_errors"] == 0
        rows, _ = run_sweep(parse_config_text(MINI.format(trials=2)), [0.2, 0.15, 0.1], jobs=2)
        assert [r["error"] for r in rows] == [None] * 6

    def test_pickled_model_stays_read_only(self):
        model = pickle.loads(pickle.dumps(make_model("full", 3)))
        with pytest.raises(ValueError):
            model.generators[0, 0, 0] = 1.0

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the patched stage loop only when forked")
    def test_worker_model_read_only(self, monkeypatch):
        def report_writeable(scheme, plan, model, *args):
            raise ValidationError(f"writeable={model.generators.flags.writeable}")

        monkeypatch.setattr(estimation, "_run_plan", report_writeable)
        rows, _ = run_experiment(parse_config_text(MINI.format(trials=3)), jobs=2)
        assert [r["error"] for r in rows] == ["ValidationError: writeable=False"] * 3

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the patched chunk fold only when forked")
    def test_workers_fold_on_two_lanes(self, monkeypatch, tmp_path):
        # 2 workers on 2 CPUs: each worker that runs a trial folds its multi-chunk one_channel
        # stage on its calling thread and one helper, and the rows are the --jobs 1 rows
        parent, log, gram = os.getpid(), tmp_path / "lanes", estimation._chunk_gram

        def logged_gram(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {threading.current_thread() is threading.main_thread()}\n")
            return gram(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
        monkeypatch.setattr(estimation, "_chunk_gram", logged_gram)
        cfg = parse_config_text(MINI.replace("adaptive", "one_channel").format(trials=4))
        rows, _ = run_experiment(cfg, jobs=2)
        lanes = {}
        for line in log.read_text().splitlines():
            pid, main_thread = line.split()
            lanes.setdefault(int(pid), set()).add(main_thread)
        assert lanes and parent not in lanes      # one worker may take every trial
        assert all(seen == {"True", "False"} for seen in lanes.values())
        assert rows_to_csv(rows) == rows_to_csv(run_experiment(cfg, jobs=1)[0])

    @pytest.mark.parametrize("jobs, trials, cpus, workers", [
        (64, 3, 8, 3), (64, 10, 2, 2), (3, 10, 8, 3), (8, 10, 1, None), (2, 1, 8, None)])
    def test_jobs_capped_at_trials_and_cpus(self, monkeypatch, jobs, trials, cpus, workers):
        # a pool forks all of its workers at the first submit, so it gets no more than can run
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = parse_config_text(MINI.format(trials=trials))
        rows, _ = run_experiment(cfg, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert rows_to_csv(rows) == rows_to_csv(run_experiment(cfg, jobs=1)[0])

    def test_summarize_needs_a_row(self):
        # no rows used to warn "Mean of empty slice" and give a NaN success rate, which
        # write_outputs refuses with a bare ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="at least one trial row"):
                runner.summarize([])

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(4242, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_sweep_requires_three_decreasing(self):
        cfg = parse_config_text(MINI.format(trials=1))
        with pytest.raises(ValidationError):
            run_sweep(cfg, [0.2, 0.1])
        with pytest.raises(ValidationError):
            run_sweep(cfg, [0.2, 0.2, 0.1])
        with pytest.raises(ValidationError, match="1/5"):
            run_sweep(cfg, [0.5, 0.2, 0.1])

    def test_sweep_summary_keys(self):
        cfg = parse_config_text(MINI.format(trials=2))
        rows, summary = run_sweep(cfg, [0.2, 0.15, 0.1])
        assert len(rows) == 6
        assert set(summary) == {"n_trials", "success_rate", "n_errors", "errors_by_type",
                                "stage_failures", "capped_stages", "slope", "intercept",
                                "residuals", "per_delta"}
        assert [p["delta"] for p in summary["per_delta"]] == [0.2, 0.15, 0.1]
        text = rows_to_csv(rows)
        for p in summary["per_delta"]:
            assert p["total_time"] == plan_time(cfg, p["delta"])
            assert completed_times(text, p["delta"]) == [p["total_time"]] * 2

    def test_worst_case_grid_sampling(self):
        cfg = parse_config_text(MINI.format(trials=6) + "worst_case_grid=true\n")
        rows, _ = run_experiment(cfg)
        assert all(r["success"] in (True, False) for r in rows)

    def test_adaptive_success_rate_target(self):
        # the canonical adaptive run: 200 trials at delta = 0.1, >= 95% success
        cfg = parse_config_text(MINI.format(trials=200))
        _, summary = run_experiment(cfg)
        assert summary["success_rate"] >= 0.95


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=2))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER
        summary = json.loads((tmp_path / "res.summary.json").read_text())
        assert 0.0 <= summary["success_rate"] <= 1.0

    def test_run_warns_when_r_max_caps_the_plan(self, tmp_path, capsys):
        text = (GOLDEN / "many_channel_rmax8.cfg").read_text().replace("trials = 10", "trials = 2")
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "capped.csv")]) == 0
        assert capsys.readouterr().err == "warning: r_max = 8 caps r in 3 plan stages\n"
        assert main(["run", "--config", write_cfg(tmp_path, MINI.format(trials=2)),
                     "--out", str(tmp_path / "free.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_warns_when_r_max_caps_the_plan(self, tmp_path, capsys):
        # r_max = 8 caps 1, 2 and 3 stages at delta 0.1, 0.05 and 0.025
        text = (GOLDEN / "many_channel_rmax8.cfg").read_text().replace("trials = 10", "trials = 1")
        assert main(["sweep", "--config", write_cfg(tmp_path, text), "--delta-list",
                     "0.1,0.05,0.025", "--out", str(tmp_path / "capped.csv")]) == 0
        assert capsys.readouterr().err == "warning: r_max = 8 caps r in 6 plan stages\n"
        assert main(["sweep", "--config", write_cfg(tmp_path, MINI.format(trials=1)),
                     "--delta-list", "0.2,0.1,0.05", "--out", str(tmp_path / "free.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_run_without_completed_trial_exits_1(self, tmp_path, capsys,
                                                 failing_adaptive):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=2))
        out = tmp_path / "res.csv"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        assert "no trial completed" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 3
        text = (tmp_path / "res.summary.json").read_text()
        summary = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c}"))
        assert summary["n_errors"] == 2
        assert summary["total_time"] == plan_time(parse_config(cfg_path), 0.1)
        assert completed_times(out.read_text(), 0.1) == []

    def test_rerun_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=2))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", cfg_path, "--out", str(out1)])
        main(["run", "--config", cfg_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=2))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", cfg_path, "--out", str(out1)])
        main(["run", "--config", cfg_path, "--out", str(out2), "--seed", "1"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_unknown_scheme_exit_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=1).replace(
            "scheme = adaptive", "scheme = warp"))
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "one_channel" in err and "adaptive" in err and "many_channel" in err

    def test_custom_model_exit_2(self, tmp_path, capsys):
        # a config cannot supply generators: rejected before any trial or worker starts
        text = MINI.format(trials=2).replace("model = full", "model = custom")
        with pytest.raises(ValidationError, match="full, phase, offdiag"):
            parse_config_text(text)
        cfg_path, out = write_cfg(tmp_path, text), tmp_path / "res.csv"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--jobs", "2"]) == 2
        assert "full, phase, offdiag" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--delta-list", "0.2,0.15,0.1"]])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_2(self, tmp_path, capsys, monkeypatch, command, jobs):
        def no_model(*args):
            pytest.fail("a model was built")

        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "make_model", no_model)
        monkeypatch.setattr(runner, "_run_trial", no_trial)
        cfg_path, out = write_cfg(tmp_path, MINI.format(trials=2)), tmp_path / "res.csv"
        argv = [*command, "--config", cfg_path, "--out", str(out), "--jobs", jobs]
        assert main(argv) == 2
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--delta-list", "0.2,0.15,0.1"]])
    def test_infinite_search_radius_exit_2(self, tmp_path, capsys, command):
        text = MINI.format(trials=2).replace("E = 1.0", "E = inf")
        cfg_path, out = write_cfg(tmp_path, text), tmp_path / "res.csv"
        assert main([*command, "--config", cfg_path, "--out", str(out)]) == 2
        assert "E finite, got delta=0.1, E=inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--delta-list", "0.2,0.15,0.1"]])
    @pytest.mark.parametrize("override", ["alpha=1e308", "alpha=1e300"])
    def test_unplannable_stage_exit_2(self, tmp_path, capsys, monkeypatch, command, override):
        # the constants parse, but a stage's copy count overflows to inf or past int64
        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        text = MINI.format(trials=2) + override + "\n"
        cfg_path, out = write_cfg(tmp_path, text), tmp_path / "res.csv"
        assert main([*command, "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage ") and "fewer than 2^63 copies" in err
        assert not out.exists() and not (tmp_path / "res.summary.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("deltas", [
        "1e-310,5e-311,2e-311", "1e-306,5e-307,2e-307", "1e-17,5e-18,2e-18", "1e-20,5e-21,2e-21",
    ], ids=["E/delta_overflows", "T_overflows", "vacuous_1e-17", "vacuous_1e-20"])
    def test_unplannable_delta_exit_2(self, tmp_path, capsys, monkeypatch, command, deltas):
        # below the delta / E floor theta* would snap to the float nearest theta (1e-17,
        # 1e-20) or the plan would leave the float range (1e-310, 1e-306)
        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        first = deltas.split(",")[0]
        text = MINI.format(trials=2).replace("delta = 0.1", f"delta = {first}")
        cfg_path, out = write_cfg(tmp_path, text), tmp_path / "res.csv"
        argv = [command, "--config", cfg_path, "--out", str(out)]
        assert main(argv + (["--delta-list", deltas] if command == "sweep" else [])) == 2
        assert (capsys.readouterr().err
                == f"error: delta/E must be at least 2^-40, got delta/E={first}\n")
        assert not out.exists() and not (tmp_path / "res.summary.json").exists()

    @staticmethod
    def assert_runs(tmp_path, capsys, recwarn, command, text, deltas):
        """The config runs with exit 0 and no RuntimeWarning, every trial completed and finite."""
        cfg_path, out = write_cfg(tmp_path, text), tmp_path / "res.csv"
        argv = [command, "--config", cfg_path, "--out", str(out)]
        assert main(argv + (["--delta-list", deltas] if command == "sweep" else [])) == 0
        assert capsys.readouterr().err == ""
        header, *lines = out.read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == (6 if command == "sweep" else 2)
        assert all(np.isfinite(float(r["theta_err"])) and r["stages"] for r in rows)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_search_radius_past_2_to_480_exit_2(self, tmp_path, capsys, recwarn, command):
        # in units of E, E = 1e301 with delta / E = 0.1 is an ordinary run
        text = (MINI.format(trials=2).replace("E = 1.0", "E = 1e301")
                .replace("delta = 0.1", "delta = 1e300"))
        self.assert_runs(tmp_path, capsys, recwarn, command, text, "1e300,5e299,2.5e299")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_increment_bound_past_2_to_512_exit_2(self, tmp_path, capsys, monkeypatch, recwarn,
                                                  command):
        # the bound 20 sqrt(d c) / kappa < 2^512 holds no E: kappa = 1e-12 at E = 1.5e144
        # runs, and kappa = 1e-160 breaks the bound at any E
        text = (MINI.format(trials=2).replace("E = 1.0", "E = 1.5e144")
                .replace("delta = 0.1", "delta = 1.5e143") + "kappa = 1e-12\n")
        self.assert_runs(tmp_path, capsys, recwarn, command, text, "1.5e143,1e143,5e142")

        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        cfg_path, out = write_cfg(tmp_path, MINI.format(trials=2) + "kappa = 1e-160\n",
                                  "small_kappa.cfg"), tmp_path / "kappa.csv"
        argv = [command, "--config", cfg_path, "--out", str(out)]
        assert main(argv + (["--delta-list", "0.1,0.05,0.025"] if command == "sweep" else [])) == 2
        assert capsys.readouterr().err.startswith(
            "error: the increment bound 20 sqrt(d c) / kappa must be below 2^512, got 3.46")
        assert not out.exists() and not (tmp_path / "kappa.summary.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("e_radius, deltas", [("1e200", "1e199,5e198,2e198"),
                                                  ("1.0", "1e-170,5e-171,2e-171")],
                             ids=["E^2_overflows", "delta^2_underflows"])
    def test_one_channel_copy_overflow_exit_2(self, tmp_path, capsys, monkeypatch, recwarn,
                                              command, e_radius, deltas):
        # the copy count reads delta / E: E = 1e200 runs, delta = 1e-170 meets the floor
        text = (MINI.format(trials=2).replace("scheme = adaptive", "scheme = one_channel")
                .replace("E = 1.0", f"E = {e_radius}")
                .replace("delta = 0.1", f"delta = {deltas.split(',')[0]}"))
        if e_radius != "1.0":
            self.assert_runs(tmp_path, capsys, recwarn, command, text, deltas)
            return

        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        cfg_path, out = write_cfg(tmp_path, text), tmp_path / "res.csv"
        argv = [command, "--config", cfg_path, "--out", str(out)]
        assert main(argv + (["--delta-list", deltas] if command == "sweep" else [])) == 2
        assert capsys.readouterr().err.startswith("error: delta/E must be at least 2^-40")
        assert not out.exists() and not (tmp_path / "res.summary.json").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--delta-list", "0.2,0.15,0.1"]])
    @pytest.mark.parametrize("target", ["csv"])
    def test_missing_output_directory_exit_2(self, tmp_path, capsys, monkeypatch,
                                             command, target):
        # the summary goes next to the CSV, so this covers both
        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        missing = tmp_path / "nodir"
        cfg_path, out = write_cfg(tmp_path, MINI.format(trials=2)), missing / f"x.{target}"
        assert main([*command, "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: output directory does not exist: {out}\n"
        assert not missing.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--delta-list", "0.2,0.15,0.1"]])
    @pytest.mark.parametrize("key, value", [
        *[pytest.param(key, "{out}", id=key) for key in ("out_csv", "out_json", "refine", "beta")],
        pytest.param("p_crit", "0.1", id="p_crit")])
    def test_output_path_config_key_exit_2(self, tmp_path, capsys, monkeypatch, command, key,
                                           value):
        # the CSV path is --out alone, and the summary goes next to it; one_channel always
        # refines, staged stage n plans alpha m (1 + n) copies, and the failure budget is
        # constants.P_CRIT, so refine, beta and p_crit are no keys either
        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        monkeypatch.chdir(tmp_path)
        text = MINI.format(trials=2) + f"{key} = {value.format(out=tmp_path / 'x.csv')}\n"
        cfg_path = write_cfg(tmp_path, text)
        assert main([*command, "--config", cfg_path]) == 2
        assert capsys.readouterr().err == (f"error: {cfg_path}:9: unknown key {key!r}; valid keys: "
                                           f"{VALID_KEYS}\n")
        assert list(tmp_path.iterdir()) == [Path(cfg_path)]

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--delta-list", "0.2,0.15,0.1"]])
    def test_directory_as_output_exit_2(self, tmp_path, capsys, monkeypatch, command):
        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        out = tmp_path / "outdir"
        out.mkdir()
        argv = [*command, "--config", write_cfg(tmp_path, MINI.format(trials=2)),
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: output path is a directory: {out}\n"
        assert not any(out.iterdir())

    def test_missing_config_exit_2(self, capsys):
        assert main(["run", "--config", "/nonexistent.cfg"]) == 2

    def test_sweep_cli(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=2))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg_path,
                     "--delta-list", "0.2,0.15,0.1", "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        assert "slope" in summary

    def test_sweep_without_completed_trial_at_one_delta_exits_1(self, tmp_path, capsys,
                                                                failing_adaptive):
        failing_adaptive.add(0.15)
        cfg_path, out = write_cfg(tmp_path, MINI.format(trials=2)), tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg_path, "--delta-list", "0.2,0.15,0.1",
                     "--out", str(out)]) == 1
        assert [line.split(",")[5] for line in out.read_text().splitlines()[1:]] \
            == ["0.2", "0.2", "0.15", "0.15", "0.1", "0.1"]
        text = (tmp_path / "sweep.summary.json").read_text()
        summary = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c}"))
        cfg, deltas = parse_config(cfg_path), (0.2, 0.15, 0.1)
        plan_T = [plan_time(cfg, delta) for delta in deltas]
        assert [p["total_time"] for p in summary["per_delta"]] == plan_T
        assert [completed_times(out.read_text(), delta) for delta in deltas] \
            == [[plan_T[0]] * 2, [], [plan_T[2]] * 2]
        assert capsys.readouterr().err.splitlines() == [
            "trial 0 at delta 0.15: InversionUnstableError: |c_0| below the inversion threshold",
            "trial 1 at delta 0.15: InversionUnstableError: |c_0| below the inversion threshold",
            "error: no trial completed at delta 0.15: {'InversionUnstableError': 2}"]

    def test_sweep_duplicate_delta_exit_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=1))
        assert main(["sweep", "--config", cfg_path,
                     "--delta-list", "0.2,0.2,0.1"]) == 2

    def test_verify_subcommand(self, capsys):
        assert main(["verify", "bounds"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_lines_carry_wall_time(self, monkeypatch):
        def fail():
            raise AssertionError("margin 0.5")

        monkeypatch.setitem(SUITES, "bounds", [("slow", lambda: time.sleep(0.02)),
                                               ("failing", fail)])
        lines = []
        assert not run_suite("bounds", printer=lines.append)
        slow, failing = lines
        match = re.fullmatch(r"PASS slow \((\d+\.\d{3}) s\)", slow)
        assert match and float(match[1]) >= 0.02
        assert re.fullmatch(r"FAIL failing \(\d+\.\d{3} s\): margin 0\.5", failing)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["one_channel", "adaptive", "many_channel"])
    def test_examples_parse(self, name):
        from pathlib import Path
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
        cfg = parse_config_text(path.read_text(), source=str(path))
        assert cfg.scheme == name
