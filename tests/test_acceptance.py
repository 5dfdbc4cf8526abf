"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n> <name>: PASS` line (visible with
`pytest -s`) after asserting the criterion at its stated tolerance.
"""

import math

import numpy as np
import pytest

from hamest.bounds import biased_cr_rhs
from hamest.config import ExperimentConfig
from hamest.constants import DEFAULT_CONSTANTS
from hamest.errors import AuditFailure
from hamest.estimation import _measure_and_reconstruct, invert_theta
from hamest.linalg import PureState, haar_state
from hamest.model import hamiltonian, make_model
from hamest.probe import Schedule, evolve, mes, qfi_matrix
from hamest.runner import run_sweep
from hamest.verify import (collective_trace_moments, delta_resolution, frame_projection,
                           postselection_frame, random_schedule, run_suite, sym_space)

DELTAS = [0.2, 0.1, 0.05, 0.025]


def _line(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def sweep_medians():
    """Median time resource per delta for the staged schemes (100 trials)."""
    out = {}
    for scheme in ("adaptive", "many_channel"):
        cfg = ExperimentConfig(model_kind="full", d=2, scheme=scheme,
                               delta=DELTAS[0], e_radius=1.0, trials=100,
                               master_seed=95014)
        _, summary = run_sweep(cfg, DELTAS)
        out[scheme] = summary
    return out


def test_01_qfi_saturation():
    for d in (2, 3):
        model = make_model("full", d)
        for tau in (0.5, 1.0):
            rep = qfi_matrix(model, np.zeros(model.m),
                             Schedule(r=1, initial=mes(d), steps=((tau, None),)))
            target = 4.0 / d * tau ** 2 * np.eye(model.m)
            dev = np.max(np.abs(rep.J - target))
            assert dev < 1e-6, (d, tau, dev)
    _line(1, "QFI saturation at the entangled probe")


def test_02_growth_law_audit():
    rng = np.random.default_rng(20240811)
    violations = 0
    for _ in range(1000):
        d = int(rng.choice([2, 3]))
        model = make_model("full", d)
        theta = rng.standard_normal(model.m)
        theta *= rng.random() / np.linalg.norm(theta)
        sched = random_schedule(model, rng, max_time=3.0)
        try:
            rep = qfi_matrix(model, theta, sched)
        except AuditFailure:
            violations += 1
            continue
        if rep.trace_J > rep.bound_4ct2 * (1 + 1e-4):
            violations += 1
    assert violations == 0

    ratios = []
    for d in (2, 3):
        model = make_model("offdiag", d)
        init = np.zeros(d)
        init[d - 1] = 1.0
        rep = qfi_matrix(model, np.zeros(model.m),
                         Schedule(r=1, initial=PureState((d, 1), init),
                                  steps=((1.7, None),)))
        ratios.append(rep.trace_J / rep.bound_4ct2)
        assert abs(ratios[-1] - 1.0) < 1e-4
    _line(2, "quadratic growth bound", f"0 violations/1000; saturation "
          f"ratios {[f'{r:.6f}' for r in ratios]}")


def test_03_collective_moment_identities():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for r in (1, 2, 3, 4):
            space = sym_space(d, r)
            for _ in range(100):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                x = 0.5 * (z + z.conj().T)
                x -= np.trace(x) / d * np.eye(d)
                mom = collective_trace_moments(space, x)
                assert abs(mom["m2_actual"] - mom["m2_predicted"]) <= 1e-9, (d, r)
                assert abs(mom["m4_actual"] - mom["m4_predicted"]) <= 1e-9, (d, r)
    worked = collective_trace_moments(sym_space(2, 2),
                                      np.diag([1.0, -1.0]) / math.sqrt(2))
    assert worked["m2_actual"] == pytest.approx(4 / 3, abs=1e-9)
    assert worked["m4_actual"] == pytest.approx(8 / 3, abs=1e-9)
    _line(3, "collective trace-moment identities", "4/3 and 8/3 reproduced")


def test_04_scaling_separation(sweep_medians):
    adaptive_slope = sweep_medians["adaptive"]["slope"]
    assert -1.25 <= adaptive_slope <= -0.8, adaptive_slope

    cfg = ExperimentConfig(model_kind="full", d=2, scheme="one_channel",
                           delta=DELTAS[0], e_radius=1.0, trials=100,
                           master_seed=95014)
    _, one_summary = run_sweep(cfg, DELTAS)
    one_slope = one_summary["slope"]
    assert -2.3 <= one_slope <= -1.7, one_slope
    _line(4, "time-resource scaling separation",
          f"adaptive slope {adaptive_slope:.3f}, one-channel slope {one_slope:.3f}")


def test_05_scheme_equivalence(sweep_medians):
    ratios = []
    for pa, pm in zip(sweep_medians["adaptive"]["per_delta"],
                      sweep_medians["many_channel"]["per_delta"]):
        assert pa["delta"] == pm["delta"]
        ratio = pm["median_T"] / pa["median_T"]
        ratios.append(ratio)
        assert 1 / 4 <= ratio <= 4, (pa["delta"], ratio)
    _line(5, "sequential/parallel time equivalence",
          f"ratios {[f'{r:.2f}' for r in ratios]}")


def test_06_delta_resolution_constant():
    rng = np.random.default_rng(606)
    tau, e_radius = 0.5, 1.0
    ratios = []
    for d in (2, 3, 4):
        model = make_model("full", d)
        for delta in (0.1, 0.2):
            val = delta_resolution(model, tau, e_radius, delta, 250, rng)
            ratio = val * val * d / (tau * delta) ** 2
            ratios.append(ratio)
            assert 0.5 <= ratio <= 4.0, (d, delta, ratio)
    phase = make_model("phase", 2)
    val = delta_resolution(phase, tau, e_radius, 0.2, 200, rng)
    assert val == pytest.approx(math.sin(tau * 0.2 / math.sqrt(2)), abs=1e-8)
    _line(6, "resolution constant window",
          f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_07_tomography_overhead():
    worst = 0.0
    for dim in (2, 3, 4):
        for n_copies in (100, 1000):
            total = 0.0
            for s in range(500):
                rng = np.random.default_rng((dim, n_copies, s))
                psi = haar_state(dim, rng)
                est = _measure_and_reconstruct(psi, n_copies, rng)
                total += 1.0 - abs(np.vdot(est, psi)) ** 2
            msi = total / 500
            budget = 10 * (dim - 1) / n_copies
            worst = max(worst, msi / budget)
            assert msi <= budget, (dim, n_copies, msi, budget)
    _line(7, "tomography overhead within 10x optimum",
          f"worst budget fraction {worst:.2f}")


def _tomographic_estimator(model, frame, tau, n_copies, theta, rng):
    probe = evolve(model, theta,
                   Schedule(r=1, initial=mes(model.d), steps=((tau, None),)))
    reduced, p = frame_projection(frame, probe.amplitudes)
    accepted = int(rng.binomial(n_copies, p))
    estimate = _measure_and_reconstruct(reduced, accepted, rng)
    return invert_theta(estimate, tau, frame.norm_factor)  # first-order, deliberately biased


def test_08_biased_cramer_rao():
    # exact algebraic reduction at zero bias gradient
    rng = np.random.default_rng(88)
    a = rng.standard_normal((3, 3))
    j = a @ a.T + 0.2 * np.eye(3)
    assert biased_cr_rhs(j, 0, 5)["matrix_bound_trace"] == pytest.approx(
        np.trace(np.linalg.inv(j)) / 5, abs=1e-15)

    model = make_model("full", 2)
    frame = postselection_frame(model)
    tau = DEFAULT_CONSTANTS.kappa / math.sqrt(model.c)
    n_copies = 2000
    theta0 = np.array([0.12, -0.08, 0.2])
    fd_step = 0.05

    def mean_estimate(theta, trials, key):
        ests = [_tomographic_estimator(model, frame, tau, n_copies, theta,
                                       np.random.default_rng((key, i)))
                for i in range(trials)]
        return np.asarray(ests)

    center = mean_estimate(theta0, 400, 1000)
    trace_v = float(np.sum(np.var(center, axis=0, ddof=1)))
    dev2 = np.sum((center - center.mean(axis=0)) ** 2, axis=1)
    se_trace_v = float(np.std(dev2, ddof=1) / math.sqrt(len(center)))

    # columns of (I + D): sensitivity d E[theta*_j] / d theta_k
    d_matrix = np.zeros((3, 3))
    for k in range(3):
        shift = np.zeros(3)
        shift[k] = fd_step
        up = mean_estimate(theta0 + shift, 150, 2000 + k).mean(axis=0)
        dn = mean_estimate(theta0 - shift, 150, 3000 + k).mean(axis=0)
        d_matrix[:, k] = (up - dn) / (2 * fd_step)
    d_matrix -= np.eye(3)

    j_probe = qfi_matrix(model, theta0,
                         Schedule(r=1, initial=mes(2), steps=((tau, None),))).J
    bound = biased_cr_rhs(j_probe, d_matrix, n_copies)["matrix_bound_trace"]
    assert trace_v >= bound - 2 * se_trace_v, (trace_v, bound, se_trace_v)
    _line(8, "biased Cramer-Rao audit",
          f"TrV {trace_v:.3e} >= bound {bound:.3e} - 2SE {2 * se_trace_v:.1e}")


def test_09_invariant_suite(capsys):
    lines = []
    ok = run_suite("all", printer=lines.append)
    with capsys.disabled():
        print()
        for line in lines:
            print("  " + line)
    assert ok, "invariant suite reported failures"
    _line(9, "full invariant suite")
