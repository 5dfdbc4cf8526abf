import dataclasses

import numpy as np
import pytest

import hamest
from hamest.estimation import EstimationRecord, StageRecord
from workloads import check_total_time, stage_plan

C = hamest.DEFAULT_CONSTANTS


def plan_for(scheme, d, delta):
    model = hamest.make_model("full", d)
    return model, stage_plan(scheme, d, model.c, delta, 1.0, C.kappa, C.effective_r_max(d))


@pytest.mark.parametrize("scheme, fn", [("one_channel", hamest.run_one_channel),
                                        ("adaptive", hamest.run_adaptive),
                                        ("many_channel", hamest.run_many_channel)])
def test_closed_form_matches_the_drivers(scheme, fn):
    model, plan = plan_for(scheme, 2, 0.2)
    rec = fn(model, [0.3, -0.2, 0.1], 0.2, 1.0, seed=3)
    assert check_total_time(rec, plan) == []


def test_many_channel_plan_shares_tau_and_doubles_r():
    _, plan = plan_for("many_channel", 2, 0.025)
    assert [n for n, _, _ in plan] == [6, 5, 4, 3, 2, 1]
    assert len({tau for _, tau, _ in plan}) == 1
    assert [r for _, _, r in plan] == [2, 4, 8, 16, 32, 64]


def record(stages, total_time):
    return EstimationRecord.build([0.0], [0.0], stages, total_time, 0.1, 0)


def test_total_time_mismatch_is_reported():
    plan = [(2, 0.5, 1), (1, 1.0, 4)]
    stages = [StageRecord(2, 0.5, 10, 1.0), StageRecord(1, 1.0, 10, 1.0, failed=True)]
    assert check_total_time(record(stages, 10 * 0.5 + 10 * 4 * 1.0), plan) == []
    bad = check_total_time(record(stages, 10 * 0.5 + 10 * 1.0), plan)
    assert len(bad) == 1 and "closed form" in bad[0]


def test_wrong_tau_or_stage_count_is_reported():
    plan = [(2, 0.5, 1), (1, 1.0, 1)]
    stages = [StageRecord(2, 0.5, 10, 1.0), StageRecord(1, 0.9, 10, 1.0)]
    assert any("planned" in p for p in check_total_time(record(stages, 14.0), plan))
    assert check_total_time(record(stages[:1], 5.0), plan) == ["1 stages recorded, 2 planned"]


def test_command_names_every_workload():
    import run
    from workloads import WORKLOADS

    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
