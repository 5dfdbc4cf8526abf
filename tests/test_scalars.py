"""The one scalar rule of every public entry: a count passes ``constants.is_int`` (a Python
int, not a bool) and a real ``constants.is_real`` (a real number, numpy floats included, not a
bool or a str).  Anything else raises ``ValidationError`` before any draw."""

import math

import numpy as np
import pytest

from hamest import runner
from hamest.bounds import (biased_cr_rhs, fewparam_time_upper, nonspherical_time_lower,
                           qcr_chain, time_upper_general)
from hamest.config import ExperimentConfig, parse_config_text
from hamest.constants import SchemeConstants, is_int, is_real
from hamest.errors import ValidationError
from hamest.estimation import invert_theta, run_one_channel
from hamest.linalg import PureState, hermitian_expm, hermitian_expm_derivatives, su_basis
from hamest.model import make_model, max_energy
from hamest.probe import Schedule, growth_audit, mes
from hamest.runner import rows_to_csv, run_experiment, run_sweep
from hamest.symmetric import sym_frame_coefficients

FULL2 = make_model("full", 2)
V = np.diag([1.0, 1j])
CFG = parse_config_text("model = full\nd = 2\nscheme = adaptive\ndelta = 1.0\nE = 10.0\n"
                        "trials = 1\nseed = 5\n")

# each entry called with one count; the valid count is 2
COUNTS = {
    "make_model.d": lambda n: make_model("full", n).d,
    "mes.d": lambda n: mes(n).factors,
    "su_basis.d": lambda n: len(su_basis(n)),
    "PureState.factors": lambda n: PureState((n, 2), np.eye(4)[0]).factors,
    "Schedule.r": lambda n: Schedule(r=n, initial=PureState((2, 2, 2), np.eye(8)[0]),
                                     steps=((0.5, None),)).r,
    "growth_audit.n_steps": lambda n: len(growth_audit(
        FULL2, np.zeros(3), Schedule(r=1, initial=mes(2), steps=((0.5, None),)), n)),
    "sym_frame_coefficients.r": lambda n: sym_frame_coefficients(V, FULL2.generators, n),
    "ExperimentConfig.d": lambda n: ExperimentConfig("full", n, "adaptive", 0.1, 1.0, 1).d,
    "ExperimentConfig.trials": lambda n: ExperimentConfig("full", 2, "adaptive", 0.1, 1.0,
                                                          n).trials,
    "ExperimentConfig.master_seed": lambda n: ExperimentConfig(
        "full", 2, "adaptive", 0.1, 1.0, 1, master_seed=n).master_seed,
    "SchemeConstants.r_max": lambda n: SchemeConstants(r_max=n).r_max,
    "run_one_channel.seed": lambda n: run_one_channel(FULL2, [0.0] * 3, 0.1, 1.0, seed=n).seed,
    "run_experiment.jobs": lambda n: rows_to_csv(run_experiment(CFG, jobs=n)[0]),
    "run_sweep.jobs": lambda n: rows_to_csv(run_sweep(CFG, [2.0, 1.0, 0.5], jobs=n)[0]),
}
# each entry called with one real; the valid real is 2.0
REALS = {
    "Schedule.interval": lambda x: Schedule(r=1, initial=mes(2), steps=((x, None),)).steps,
    "hermitian_expm.t": lambda x: hermitian_expm(np.diag([1.0, -1.0]), x),
    "hermitian_expm_derivatives.t": lambda x: hermitian_expm_derivatives(
        np.diag([1.0, -1.0]), x, FULL2.generators)[1],
    "max_energy.E": lambda x: max_energy(FULL2, x),
    "invert_theta.tau": lambda x: invert_theta([1.0, 0.1j, 0.0, 0.0], x, 2.0),
    "invert_theta.norm_factor": lambda x: invert_theta([1.0, 0.1j, 0.0, 0.0], 0.3, x),
    "qcr_chain.tau": lambda x: qcr_chain(3, 2, 0.1, x, 10),
    "nonspherical_time_lower.c": lambda x: nonspherical_time_lower(x, 2, 0.1),
    "time_upper_general.m": lambda x: time_upper_general(x, 2, 0.1),
    "fewparam_time_upper.d": lambda x: fewparam_time_upper(3, x, 0.1),
    "biased_cr_rhs.n_copies": lambda x: biased_cr_rhs(np.eye(2), 0, x),
    "SchemeConstants.kappa": lambda x: SchemeConstants(kappa=x).kappa,
    "ExperimentConfig.delta": lambda x: ExperimentConfig("full", 2, "adaptive", x, 10.0, 1).delta,
    "run_one_channel.E": lambda x: run_one_channel(FULL2, [0.0] * 3, 0.1, x, seed=3).error,
    "run_sweep.deltas": lambda x: rows_to_csv(run_sweep(CFG, [x, 1.0, 0.5])[0]),
}
RUNNER = ("run_experiment.jobs", "run_sweep.jobs", "run_sweep.deltas")

CASES = [pytest.param(table[name], value, name in RUNNER, id=f"{name}-{kind}")
         for table, bad in ((COUNTS, {"bool": True, "str": "2", "float": 2.0,
                                      "int64": np.int64(2)}),
                            (REALS, {"bool": True, "str": "2.0"}))
         for name in table for kind, value in bad.items()]


@pytest.mark.parametrize("entry, value, builds_model", CASES)
def test_each_entry_rejects_a_scalar_of_the_wrong_kind(monkeypatch, entry, value,
                                                       builds_model):
    # without the rule a bool ran as 0 or 1, a float factor was cast to int, a str raised a
    # bare TypeError and a numpy count ran; the runner rejects before it builds a model
    def no_model(*args):
        pytest.fail("a model was built")

    if builds_model:
        monkeypatch.setattr(runner, "make_model", no_model)
    with pytest.raises(ValidationError):
        entry(value)


@pytest.mark.parametrize("entry", [pytest.param(COUNTS[n], id=n) for n in COUNTS])
def test_each_count_entry_takes_an_int(entry):
    entry(2)


@pytest.mark.parametrize("entry", [pytest.param(REALS[n], id=n) for n in REALS])
def test_a_numpy_float_is_a_real(entry):
    np.testing.assert_equal(entry(np.float64(2.0)), entry(2.0))


def test_the_two_predicates():
    assert [is_int(x) for x in (2, True, 2.0, "2", np.int64(2))] == [True] + [False] * 4
    assert [is_real(x) for x in (0.5, 2, np.float64(0.5), np.float32(0.5), np.int64(2))] \
        == [True] * 5
    assert [is_real(x) for x in (True, np.bool_(True), "0.5", None, 1j, math.nan)] \
        == [False] * 5 + [True]
