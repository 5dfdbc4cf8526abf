import json
import multiprocessing
import os
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hamest import estimation, runner
from hamest.cli import main
from hamest.config import ExperimentConfig, parse_config, parse_config_text
from hamest.constants import SchemeConstants
from hamest.errors import InversionUnstableError, ValidationError
from hamest.model import make_model
from hamest.runner import (CSV_HEADER, rows_to_csv, run_experiment, run_sweep,
                           trial_seed)

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
CONSTANT_OVERRIDES = {"kappa": "0.3", "alpha": "10", "beta": "0.5", "p_crit": "0.1",
                      "r_max": "7", "refine": "false", "trotter_slices": "2"}


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def failing_adaptive(monkeypatch):
    """Every adaptive trial raises, as a trial whose inversion is unstable does."""
    def fail(*args, **kwargs):
        raise InversionUnstableError("|c_0| below the inversion threshold")

    monkeypatch.setitem(runner._SCHEME_RUNNERS, "adaptive", fail)


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
            kappa=0.3, alpha=10.0, beta=0.5, p_crit=0.1, r_max=7, refine=False,
            trotter_slices=2)

    def test_constants_overrides(self):
        cfg = parse_config_text(MINI.format(trials=1) + "kappa=0.4\nalpha=32\n"
                                "r_max=16\nrefine=false\n")
        assert cfg.constants.kappa == 0.4
        assert cfg.constants.alpha == 32
        assert cfg.constants.r_max == 16
        assert cfg.constants.refine is False

    @pytest.mark.parametrize("override", ["kappa=0", "alpha=0", "beta=-1", "p_crit=0",
                                          "p_crit=1", "r_max=0", "r_max=-3",
                                          "trotter_slices=-1", "delta=0.05"])
    def test_bad_constants_rejected_before_any_trial(self, override, tmp_path, capsys):
        field = override.split("=")[0]
        text = MINI.format(trials=1) + override + "\n"
        with pytest.raises(ValidationError, match=field):
            parse_config_text(text)
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "res.csv")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "res.csv").exists()

    def test_repeated_key_names_both_lines(self):
        # MINI sets delta on line 5; a later value must not silently win
        with pytest.raises(ValidationError, match="'delta' given twice, on lines 5 and 9"):
            parse_config_text(MINI.format(trials=1) + "delta = 0.05\n")
        with pytest.raises(ValidationError, match="'e' given twice, on lines 6 and 9"):
            parse_config_text(MINI.format(trials=1) + "e = 2.0\n")


class TestRunner:
    def test_csv_schema(self):
        cfg = parse_config_text(MINI.format(trials=2))
        rows, summary = run_experiment(cfg)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == ("trial,seed,scheme,d,m,delta,E,theta_err,"
                              "total_time,success,stages")
        assert len(text.splitlines()) == 3
        assert set(summary) == {"n_trials", "success_rate", "median_T",
                                "q1_T", "q3_T", "n_errors", "errors_by_type",
                                "stage_failures", "capped_stages"}

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

    def test_errored_trials_stay_out_of_time_quartiles(self, failing_adaptive):
        cfg = parse_config_text(MINI.format(trials=2))
        rows, summary = run_experiment(cfg)
        assert [r["total_time"] for r in rows] == [0.0, 0.0]
        assert summary["n_errors"] == 2
        assert summary["errors_by_type"] == {"InversionUnstableError": 2}
        assert summary["success_rate"] == 0.0
        for key in ("median_T", "q1_T", "q3_T"):
            assert np.isnan(summary[key])

    def test_sweep_rejects_delta_without_completed_trial(self, failing_adaptive):
        cfg = parse_config_text(MINI.format(trials=1))
        with pytest.raises(ValidationError, match="no trial completed at delta 0.025"):
            run_sweep(cfg, [0.025, 0.02, 0.0125])

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
        assert built == [("full", 2)] * 3

    def test_pickled_model_stays_read_only(self):
        model = pickle.loads(pickle.dumps(make_model("full", 3)))
        with pytest.raises(ValueError):
            model.generators[0, 0, 0] = 1.0

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the patched scheme table only when forked")
    def test_worker_model_read_only(self, monkeypatch):
        def report_writeable(model, *args, **kwargs):
            raise ValidationError(f"writeable={model.generators.flags.writeable}")

        monkeypatch.setitem(runner._SCHEME_RUNNERS, "adaptive", report_writeable)
        rows, _ = run_experiment(parse_config_text(MINI.format(trials=3)), jobs=2)
        assert [r["error"] for r in rows] == ["ValidationError: writeable=False"] * 3

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the patched scheme table only when forked")
    def test_workers_share_the_cpus(self, monkeypatch):
        # on 4 CPUs: 2 jobs fold a stage's chunks on 2 threads each, 4 jobs on 1
        def report_threads(*args, **kwargs):
            raise ValidationError(f"threads={estimation._pool_workers()}")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setitem(runner._SCHEME_RUNNERS, "adaptive", report_threads)
        for jobs, threads in ((2, 2), (4, 1)):
            rows, _ = run_experiment(parse_config_text(MINI.format(trials=4)), jobs=jobs)
            assert [r["error"] for r in rows] == [f"ValidationError: threads={threads}"] * 4
        assert estimation._pool_workers() == 2

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
        for key in ("success_rate", "median_T", "q1_T", "q3_T", "slope",
                    "intercept", "residuals", "per_delta"):
            assert key in summary
        assert [p["delta"] for p in summary["per_delta"]] == [0.2, 0.15, 0.1]

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
        assert [summary[k] for k in ("median_T", "q1_T", "q3_T")] == [None, None, None]

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
        def no_trial(*args):
            pytest.fail("a trial ran")

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
    @pytest.mark.parametrize("target", ["csv", "json"])
    def test_missing_output_directory_exit_2(self, tmp_path, capsys, monkeypatch,
                                             command, target):
        def no_trial(*args):
            pytest.fail("a trial ran")

        monkeypatch.setattr(runner, "_run_trial", no_trial)
        missing = tmp_path / "nodir"
        if target == "csv":
            cfg_path, out = write_cfg(tmp_path, MINI.format(trials=2)), missing / "x.csv"
            argv = [*command, "--config", cfg_path, "--out", str(out)]
        else:
            out = missing / "x.summary.json"
            text = MINI.format(trials=2) + f"out_csv = {tmp_path / 'x.csv'}\nout_json = {out}\n"
            argv = [*command, "--config", write_cfg(tmp_path, text)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: output directory does not exist: {out}\n"
        assert not missing.exists() and not (tmp_path / "x.csv").exists()

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

    def test_sweep_duplicate_delta_exit_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, MINI.format(trials=1))
        assert main(["sweep", "--config", cfg_path,
                     "--delta-list", "0.2,0.2,0.1"]) == 2

    def test_verify_subcommand(self, capsys):
        assert main(["verify", "bounds"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["one_channel", "adaptive", "many_channel"])
    def test_examples_parse(self, name):
        from pathlib import Path
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
        cfg = parse_config_text(path.read_text(), source=str(path))
        assert cfg.scheme == name
