import dataclasses
import math

import numpy as np
import pytest

from hamest.constants import TOL
from hamest.errors import AuditFailure, ValidationError
from hamest.estimation import _mes_probe, _Stage
from hamest.linalg import (PureState, assert_hermitian, assert_unitary, haar_state,
                           hermitian_expm, hermitian_expm_derivatives)
from hamest.model import hamiltonian, make_model
from hamest.probe import (QfiReport, Schedule, _qfi_from_tangents, evolve, growth_audit, mes,
                          qfi_matrix)
from hamest.verify import random_schedule, richardson_derivative


def free_schedule(d, tau, r=1, initial=None):
    initial = mes(d) if initial is None else initial
    return Schedule(r=r, initial=initial, steps=((tau, None),))


NAN2 = np.full((2, 2), math.nan)
NAN_GENERATORS = np.array(make_model("full", 2).generators)
NAN_GENERATORS[1, 0, 1] = math.nan
HUGE = np.diag([1e300, -1e300])
DIRECTIONS = make_model("full", 2).generators


@pytest.mark.parametrize("call", [
    lambda: assert_hermitian(NAN2),
    lambda: assert_unitary(NAN2),
    lambda: hermitian_expm(NAN2, 1.0),
    lambda: PureState((2,), [math.nan, 0.0]),
    lambda: QfiReport(J=NAN2, G=np.eye(2), trace_J=0.0, bound_4ct2=1.0),
    lambda: QfiReport(J=np.eye(2), G=NAN2, trace_J=2.0, bound_4ct2=4.0),
    lambda: make_model("custom", 2, NAN_GENERATORS),
    lambda: free_schedule(2, math.nan),
    lambda: free_schedule(2, math.inf),
    lambda: free_schedule(2, 0.5, r=1.5),
    lambda: free_schedule(2, 0.5, r=True),
    lambda: evolve(make_model("full", 2), [math.nan, 0.0, 0.0], free_schedule(2, 0.0)),
    lambda: evolve(make_model("full", 2), [10.0, 0.0, 0.0], free_schedule(2, 1e308)),
    lambda: hermitian_expm(HUGE, 1e10),
    lambda: hermitian_expm(np.eye(2), math.inf),
    lambda: hermitian_expm(np.eye(2), math.nan),
    lambda: hermitian_expm_derivatives(HUGE, 1e10, DIRECTIONS),
    lambda: hermitian_expm_derivatives(np.eye(2), math.inf, DIRECTIONS),
    lambda: hermitian_expm_derivatives(np.eye(2), math.nan, DIRECTIONS),
    lambda: hermitian_expm_derivatives(np.diag([1e308, -1e308]), 1e-10, DIRECTIONS),
    lambda: free_schedule(2, True),
    lambda: free_schedule(2, "0.5"),
    lambda: hermitian_expm(np.eye(2), True),
    lambda: hermitian_expm(np.eye(2), "1"),
    lambda: hermitian_expm_derivatives(np.eye(2), True, DIRECTIONS),
    lambda: hermitian_expm_derivatives(np.eye(2), "1", DIRECTIONS),
    lambda: PureState((2.5,), [1.0, 0.0]),
    lambda: PureState((True, 2), [1.0, 0.0]),
], ids=["hermitian", "unitary", "expm", "pure_state", "qfi_J", "qfi_G", "custom_generators",
        "nan_interval", "inf_interval", "float_r", "bool_r", "nan_theta", "overflowing_phase",
        "expm_overflowing_phase", "expm_inf_t", "expm_nan_t", "derivatives_overflowing_phase",
        "derivatives_inf_t", "derivatives_nan_t", "derivatives_overflowing_gap",
        "bool_interval", "str_interval", "expm_bool_t", "expm_str_t", "derivatives_bool_t",
        "derivatives_str_t", "float_factor", "bool_factor"])
def test_validators_reject_nan_and_inf(call):
    # each check must read "deviation <= tolerance": a `>` test lets NaN through, so a NaN
    # matrix, state or QFI is accepted, a NaN step skipped, and a NaN theta gives NaN
    # amplitudes; exp(-i t H) checks t w and the gaps of w before it forms a phase, so no
    # case may warn.  A bool or str time, interval or factor used to run as 0 or 1, raise a
    # bare TypeError or, for a factor of 2.5, be cast to 2
    with pytest.raises(ValidationError):
        call()


class TestMes:
    def test_d2(self):
        assert np.allclose(mes(2).amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_d3(self):
        amps = mes(3).amplitudes
        assert amps.size == 9
        on = amps.reshape(3, 3).diagonal()
        assert np.allclose(on, np.full(3, 1 / math.sqrt(3)))
        assert abs(np.linalg.norm(amps) - 1) < 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 4):
            phi = mes(d).amplitudes
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            val = np.vdot(phi, np.kron(a, np.eye(d)) @ phi)
            assert abs(val - np.trace(a) / d) < 1e-12


class TestEvolve:
    def test_zero_schedule_is_identity(self):
        model = make_model("full", 2)
        sched = Schedule(r=1, initial=mes(2), steps=((0.0, None), (0.0, None)))
        out = evolve(model, [0.1, 0.2, 0.3], sched)
        assert np.allclose(out.amplitudes, mes(2).amplitudes)

    def test_phase_model_closed_form(self):
        model = make_model("phase", 2)
        tau, theta = 0.8, 0.6
        out = evolve(model, [theta], free_schedule(2, tau))
        phase = tau * theta / math.sqrt(2)
        expect = np.array([np.exp(-1j * phase), 0, 0, np.exp(1j * phase)]) / math.sqrt(2)
        assert np.max(np.abs(out.amplitudes - expect)) < 1e-12

    def test_two_channel_swap_reduction(self):
        # r=2 free interval t == one channel for 2t with channel-permuting kicks
        model = make_model("full", 2)
        rng = np.random.default_rng(1)
        init = PureState(factors=(2, 2, 2), amplitudes=haar_state(8, rng))
        theta = rng.standard_normal(3) * 0.4
        t = 0.6
        two = evolve(model, theta, Schedule(r=2, initial=init, steps=((t, None),)))
        swap = np.zeros((8, 8))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    swap[j * 4 + i * 2 + k, i * 4 + j * 2 + k] = 1.0
        one = evolve(model, theta, Schedule(
            r=1, initial=init, steps=((t, None), (t, swap), (0.0, swap))))
        assert np.max(np.abs(two.amplitudes - one.amplitudes)) < 1e-12

    def test_norm_preserved_random_schedules(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = make_model("full", int(rng.choice([2, 3])))
            sched = random_schedule(model, rng)
            out = evolve(model, rng.standard_normal(model.m) * 0.3, sched)
            assert abs(np.linalg.norm(out.amplitudes) - 1) < TOL.state_norm_atol

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            evolve(make_model("full", 3), np.zeros(8), free_schedule(2, 1.0))


class TestQfi:
    def test_saturation_full_model(self):
        for d in (2, 3):
            model = make_model("full", d)
            for tau in (0.5, 1.0):
                rep = qfi_matrix(model, np.zeros(model.m), free_schedule(d, tau))
                assert np.max(np.abs(rep.J - 4 / d * tau ** 2 * np.eye(model.m))) < 1e-6

    def test_zero_time(self):
        model = make_model("full", 2)
        rep = qfi_matrix(model, [0.4, -0.2, 0.1], free_schedule(2, 0.0))
        assert np.max(np.abs(rep.J)) < 1e-12

    def test_offdiag_closed_form(self):
        # two-level reduction: J = 4 t^2 (<X^2> - <X>^2) = 2 t^2 on |e_d>
        model = make_model("offdiag", 2)
        init = PureState(factors=(2, 1), amplitudes=np.array([0.0, 1.0]))
        t = 1.3
        rep = qfi_matrix(model, [0.0], free_schedule(2, t, initial=init))
        assert abs(rep.trace_J - 2 * t * t) < 1e-6
        assert abs(rep.trace_J - rep.bound_4ct2) < 1e-4 * rep.bound_4ct2

    def test_gauge_invariance(self):
        model = make_model("full", 2)
        theta = [0.2, -0.1, 0.4]
        rep0 = qfi_matrix(model, theta, free_schedule(2, 0.8))
        phased = Schedule(r=1, initial=mes(2),
                          steps=((0.8, None), (0.0, np.exp(1.1j) * np.eye(4))))
        rep1 = qfi_matrix(model, theta, phased)
        assert np.max(np.abs(rep0.J - rep1.J)) < 1e-8

    def test_exact_matches_richardson(self):
        # exact tangents against a fourth-order difference of the evolution map,
        # whose own error at step 1e-3 is about 1e-13 relative here
        model = make_model("full", 3)
        theta = np.linspace(-0.3, 0.4, model.m)
        rng = np.random.default_rng(13)
        for sched in (free_schedule(3, 1.1), random_schedule(model, rng)):
            exact = qfi_matrix(model, theta, sched).J
            tangents = richardson_derivative(
                lambda t: evolve(model, t, sched).amplitudes, theta, 1e-3)
            fd = _qfi_from_tangents(evolve(model, theta, sched).amplitudes, tangents)
            assert np.max(np.abs(exact - fd)) / np.max(np.abs(exact)) < 1e-8

    def test_mes_correlation_matrix(self):
        model = make_model("full", 3)
        rep = qfi_matrix(model, np.zeros(8), free_schedule(3, 0.0))
        assert np.max(np.abs(rep.G - np.eye(8) / 3)) < 1e-10

    @pytest.mark.parametrize("r", [1, 2])
    def test_correlation_matrix_matches_generator_loop(self, r):
        model = make_model("full", 3)
        rng = np.random.default_rng(11 + r)
        factors = (3,) * (r + 1)
        init = PureState(factors=factors, amplitudes=haar_state(3 ** (r + 1), rng))
        sched = Schedule(r=r, initial=init, steps=((0.4, None),))
        theta = 0.3 * rng.standard_normal(model.m)
        rep = qfi_matrix(model, theta, sched)
        psi = evolve(model, theta, sched).amplitudes.reshape(factors)
        cvecs = [sum(np.moveaxis(np.tensordot(x, psi, axes=([1], [slot])), 0, slot)
                     for slot in range(r)).reshape(-1) for x in model.generators]
        loop = np.array([[np.vdot(a, b) for b in cvecs] for a in cvecs])
        assert np.max(np.abs(rep.G - loop)) < 1e-12

    def test_spherical_bound_reported(self):
        # for a spherical model 4 c t^2 is 4 (m/d) t^2
        t = 1.3
        for kind, d in (("full", 2), ("full", 3), ("phase", 3), ("offdiag", 3)):
            model = make_model(kind, d)
            rep = qfi_matrix(model, np.zeros(model.m), free_schedule(d, t))
            assert model.spherical == (kind != "offdiag")
            expected = 4 * model.m / d * t ** 2 if model.spherical else 4 * model.c * t ** 2
            assert rep.bound_4ct2 == pytest.approx(expected, rel=1e-15, abs=0)

    def test_r2_time_accounting(self):
        # entangling two channels doubles the effective time in the bound
        model = make_model("full", 2)
        rng = np.random.default_rng(3)
        init = PureState(factors=(2, 2, 2), amplitudes=haar_state(8, rng))
        rep = qfi_matrix(model, [0.1, 0.0, -0.2],
                         Schedule(r=2, initial=init, steps=((0.7, None),)))
        assert rep.bound_4ct2 == pytest.approx(4 * model.c * (2 * 0.7) ** 2)
        assert rep.trace_J <= rep.bound_4ct2 * (1 + 1e-4)


class TestGrowthAudit:
    def test_initial_point_zero(self):
        model = make_model("full", 2)
        rows = growth_audit(model, [0.3, 0.1, 0.0], free_schedule(2, 1.0), 4)
        t0, trj0, _, bound0 = rows[0]
        assert t0 == 0.0 and trj0 < 1e-10 and bound0 == 0.0

    def test_saturating_case_ratio_one(self):
        model = make_model("offdiag", 3)
        init = np.zeros(3)
        init[2] = 1.0
        sched = free_schedule(3, 1.5, initial=PureState((3, 1), init))
        rows = growth_audit(model, np.zeros(2), sched, 6)
        for t, trj, _, bound in rows[1:]:
            assert abs(trj / bound - 1.0) < 1e-4

    def test_random_schedules_no_violation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            model = make_model("full", int(rng.choice([2, 3])))
            theta = rng.standard_normal(model.m)
            theta *= rng.random() / np.linalg.norm(theta)
            growth_audit(model, theta, random_schedule(model, rng), 4)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            growth_audit(make_model("full", 2), np.zeros(3), free_schedule(2, 1.0), 1)

    @pytest.mark.parametrize("n_steps", [2.5, 3.0])
    def test_needs_an_int_point_count(self, n_steps):
        # a float count used to reach np.linspace and raise a bare TypeError
        with pytest.raises(ValidationError, match="n_steps"):
            growth_audit(make_model("full", 2), np.zeros(3), free_schedule(2, 1.0), n_steps)

    def test_violation_carries_grid_time(self):
        # the MES saturates Tr J = 4 c t^2, so a model claiming c / 4 fails at
        # the first grid time t > 0 of the grid 0, 1/3, 2/3, 1
        model = make_model("full", 2)
        with pytest.raises(AuditFailure) as exc:
            growth_audit(dataclasses.replace(model, c=model.c / 4), np.zeros(3),
                         free_schedule(2, 1.0), 4)
        assert exc.value.time == 1 / 3


def kick_schedule(model, theta_star, tau, slices):
    """Feedback -H_theta* as exp(+i s H*) kicks on the driven factor of the MES."""
    h_star = hamiltonian(model, theta_star)
    s = tau / slices
    eye = np.eye(model.d)
    half = np.kron(hermitian_expm(h_star, -0.5 * s), eye)
    full = np.kron(hermitian_expm(h_star, -s), eye)
    steps = ((s, half),) + ((s, full),) * (slices - 1) + ((0.0, half),)
    return Schedule(r=1, initial=mes(model.d), steps=steps)


def trotter_unitary(model, theta, theta_star, tau, slices):
    """Stage unitary of the adaptive scheme's MES probe with split feedback."""
    probe = _mes_probe(model, np.asarray(theta))
    return probe(_Stage(n=1, tau=tau, r=1, copies=0, slices=slices), np.asarray(theta_star))


class TestTrotter:
    def test_matches_exact_shifted_evolution(self):
        # symmetric splitting: error <= tau^3 a b (a + b) / k^2, second order in 1/k
        model = make_model("full", 2)
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(3) * 0.5
        theta_star = theta + rng.standard_normal(3) * 0.1
        a = np.linalg.norm(hamiltonian(model, theta_star), 2)
        b = np.linalg.norm(hamiltonian(model, theta), 2)
        for tau in (0.3, 1.2):
            exact = hermitian_expm(hamiltonian(model, theta - theta_star), tau)
            errs = [np.linalg.norm(trotter_unitary(model, theta, theta_star, tau, k) - exact, 2)
                    for k in (4, 8, 16)]
            for k, err in zip((4, 8, 16), errs):
                assert err <= tau ** 3 * a * b * (a + b) / k ** 2, (tau, k, err)
            assert 3.5 < errs[0] / errs[1] < 4.5 and 3.5 < errs[1] / errs[2] < 4.5, errs

    @pytest.mark.parametrize("kind,d,slices", [("full", 2, 1), ("full", 2, 8),
                                               ("full", 3, 5), ("phase", 3, 4)])
    def test_matches_kick_schedule(self, kind, d, slices):
        model = make_model(kind, d)
        rng = np.random.default_rng(10 * d + slices)
        theta = rng.standard_normal(model.m) * 0.5
        theta_star = theta + rng.standard_normal(model.m) * 0.1
        v = trotter_unitary(model, theta, theta_star, 0.9, slices)
        state = evolve(model, theta, kick_schedule(model, theta_star, 0.9, slices))
        assert np.max(np.abs(v.reshape(-1) / math.sqrt(d) - state.amplitudes)) < 1e-12
