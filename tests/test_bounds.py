import math
import warnings

import numpy as np
import pytest

import hamest
from hamest import bounds
from hamest.bounds import (bound_report, biased_cr_rhs, fewparam_time_upper,
                           nonspherical_time_lower, qcr_chain, time_upper_general)
from hamest.constants import SchemeConstants
from hamest.errors import ValidationError
from hamest.estimation import _plan
from hamest.model import make_model
from hamest.verify import (check_delta_homogeneity, check_scalar_vs_matrix_bound,
                           check_schwartz_chain)


class TestQcrChain:
    def test_worked_value(self):
        res = qcr_chain(3, 2, delta=0.1, tau=1.0, n_copies=1)
        assert res["trV_lower"] == pytest.approx(1.5)

    def test_copy_scaling(self):
        a = qcr_chain(3, 2, 0.1, 1.0, 10)["trV_lower"]
        b = qcr_chain(3, 2, 0.1, 1.0, 40)["trV_lower"]
        assert a / b == pytest.approx(4.0)

    @pytest.mark.parametrize("args, trv_lower, tradeoff_ok", [
        ((3, 2, 0.1, 1.0, 1), 1.5, False),
        ((3, 2, 0.1, 1.0, 10), 0.15, False),
        ((3, 2, 0.1, 1.0, 40), 0.0375, False),
        ((3, 2, 0.1, 0.7, 307), 0.009971415276208205, True),
        ((3, 2, 0.1, 0.7, 305), 0.010036801605888258, False),
    ])
    def test_worked_points_exact(self, args, trv_lower, tradeoff_ok):
        # the values the literal 1/4 gave; the chain constant is a power of two
        assert qcr_chain(*args) == {"trV_lower": trv_lower, "tradeoff_ok": tradeoff_ok}

    def test_tradeoff_boundary(self):
        m, d, delta, tau = 3, 2, 0.1, 0.7
        n_critical = m * d / (4 * delta ** 2 * tau ** 2)
        assert qcr_chain(m, d, delta, tau, math.ceil(n_critical))["tradeoff_ok"]
        assert not qcr_chain(m, d, delta, tau, math.floor(n_critical) - 1)["tradeoff_ok"]


class TestTimeLower:
    """The time lower bound of a spherical model, c = m/d: sqrt(m d) / (2 delta)."""

    def test_worked_value(self):
        assert nonspherical_time_lower(3 / 2, 2, 0.1) == pytest.approx(math.sqrt(6) / 0.2)

    def test_delta_halving_doubles(self):
        assert nonspherical_time_lower(3 / 2, 2, 0.05) == pytest.approx(
            2 * nonspherical_time_lower(3 / 2, 2, 0.1))

    def test_full_model_exponent(self):
        # m = d^2 - 1: bound grows as d^{3/2} / (2 delta)
        for d in (3, 5, 9):
            val = nonspherical_time_lower((d * d - 1) / d, d, 0.1)
            assert val == pytest.approx(math.sqrt((d * d - 1) * d) / 0.2)

    def test_spherical_form_is_gone(self):
        assert not hasattr(hamest, "time_lower_bound")
        assert not hasattr(bounds, "time_lower_bound")


class TestNonsphericalLower:
    def test_positive(self):
        assert nonspherical_time_lower(1.0, 3, 0.1) > 0

    def test_reduces_to_spherical(self):
        for kind in ("full", "phase"):
            for d in (2, 3, 4):
                model = make_model(kind, d)
                assert model.spherical
                assert bound_report(model, 0.07, 1.0).time_lower == pytest.approx(
                    math.sqrt(model.m * d) / (2 * 0.07), rel=1e-15), (kind, d)

    @pytest.mark.parametrize("c, d, delta, value", [
        (1.0, 3, 0.1, 15.0),
        (5 / 3, 3, 0.07, 27.664166758624404),
        (3 / 2, 2, 0.1, 12.247448713915889),
        (3 / 2, 2, 0.05, 24.494897427831777),
        (8 / 3, 3, 0.1, 24.494897427831777),
        (24 / 5, 5, 0.1, 54.7722557505166),
        (80 / 9, 9, 0.1, 134.16407864998737),
    ])
    def test_worked_points_exact(self, c, d, delta, value):
        # the values the literal 2 gave; the time constant is a power of two
        assert nonspherical_time_lower(c, d, delta) == value

    def test_saturating_offdiag_audit(self):
        # free evolution of the offdiag model attains Tr J = 4 c t^2
        from hamest.linalg import PureState
        from hamest.probe import Schedule, qfi_matrix
        for d in (2, 3):
            model = make_model("offdiag", d)
            init = np.zeros(d)
            init[d - 1] = 1.0
            rep = qfi_matrix(model, np.zeros(model.m),
                             Schedule(r=1, initial=PureState((d, 1), init),
                                      steps=((1.0, None),)))
            assert rep.trace_J == pytest.approx(2 * (d - 1), rel=1e-6)
            assert rep.trace_J == pytest.approx(rep.bound_4ct2, rel=1e-4)


# each bound formula, valid arguments, and the positions of delta and of one other argument
FORMULAS = {
    "qcr_chain": (qcr_chain, (3, 2, 0.1, 0.5, 10), (2, 3)),
    "nonspherical_time_lower": (nonspherical_time_lower, (1.5, 2, 0.1), (2, 0)),
    "time_upper_general": (time_upper_general, (3, 2, 0.1), (2, 1)),
    "fewparam_time_upper": (fewparam_time_upper, (3, 2, 0.1), (2, 0)),
}


@pytest.mark.parametrize("name", FORMULAS)
@pytest.mark.parametrize("which", [0, 1], ids=["delta", "other"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5, True, "0.1"],
                         ids=["nan", "inf", "zero", "negative", "bool", "str"])
def test_formulas_reject_non_finite_or_non_positive_arguments(name, which, bad):
    # NaN and inf fail no min(...) <= 0 test, yet time_upper_general(3, 2, nan) would read nan
    # and fewparam_time_upper(3, 2, inf) 0.0; a bool ran as 1 (time_upper_general(True, 2, 0.1)
    # read 2880.0) and a str raised a bare TypeError
    function, args, positions = FORMULAS[name]
    args = list(args)
    args[positions[which]] = bad
    with pytest.raises(ValidationError, match=f"^{name} requires finite arguments > 0, got"):
        function(*args)


@pytest.mark.parametrize("j, d, n_copies, message", [
    (np.eye(2), 0, math.nan, "biased_cr_rhs requires finite arguments > 0"),
    (np.eye(2), 0, math.inf, "biased_cr_rhs requires finite arguments > 0"),
    (np.diag([1.0, math.nan]), 0, 10, "J and D must have finite entries"),
    (np.diag([1.0, math.inf]), 0, 10, "J and D must have finite entries"),
    (np.eye(2), np.diag([0.0, math.nan]), 10, "J and D must have finite entries"),
    (np.eye(2), np.diag([0.0, -math.inf]), 10, "J and D must have finite entries"),
], ids=["nan-N", "inf-N", "nan-J", "inf-J", "nan-D", "inf-D"])
def test_biased_cr_rhs_rejects_non_finite_arguments(j, d, n_copies, message):
    # unchecked, N = nan gives nan for both bounds, N = inf 0.0, and a NaN in J or D nan
    with pytest.raises(ValidationError, match=f"^{message}"):
        biased_cr_rhs(j, d, n_copies)


class TestFewParam:
    def test_single_parameter_matches_lower_scaling(self):
        # m = 1, c = 1/d: upper m^{3/2} sqrt(d) and lower sqrt(md) both scale as sqrt(d)
        vals = [fewparam_time_upper(1, d, 0.1) / nonspherical_time_lower(1 / d, d, 0.1)
                for d in (2, 4, 8, 16)]
        assert np.ptp(vals) < 1e-9

    def test_full_model_prefers_general(self):
        for d in (3, 4):
            m = d * d - 1
            assert fewparam_time_upper(m, d, 0.1) > time_upper_general(m, d, 0.1)
            rep = bound_report(make_model("full", d), 0.1, 1.0)
            assert rep.constants_used["preferred_upper"] == "general"

    @pytest.mark.parametrize("d", [3, 4])
    def test_nonspherical_model_prefers_general(self, d):
        # offdiag is nonspherical, where the few-parameter bound does not hold,
        # even though its value lies below the general bound
        model = make_model("offdiag", d)
        assert not model.spherical
        assert fewparam_time_upper(model.m, d, 0.1) < time_upper_general(model.m, d, 0.1)
        rep = bound_report(model, 0.1, 1.0)
        assert rep.constants_used["preferred_upper"] == "general"


class TestBiasedCr:
    def test_unbiased_reduction(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        j = a @ a.T + 0.3 * np.eye(3)
        res = biased_cr_rhs(j, 0, 9)
        assert res["matrix_bound_trace"] == pytest.approx(
            np.trace(np.linalg.inv(j)) / 9)

    def test_scalar_algebra(self):
        res = biased_cr_rhs(2.5 * np.eye(4), -0.5 * np.eye(4), 3)
        assert res["matrix_bound_trace"] == pytest.approx(4 / (4 * 2.5 * 3))

    def test_singular_names_direction(self):
        j = np.diag([1.0, 0.0])
        with pytest.raises(ValidationError, match="direction"):
            biased_cr_rhs(j, 0, 1)

    def test_scalar_below_matrix(self):
        check_scalar_vs_matrix_bound()


class TestReport:
    def test_lower_below_upper(self):
        rep = bound_report(make_model("full", 2), 0.05, 1.0)
        assert rep.time_lower <= rep.time_upper_general

    def test_constants_recorded(self):
        const = SchemeConstants(kappa=0.4, alpha=50.0)
        rep = bound_report(make_model("phase", 3), 0.1, 2.0, const)
        used = rep.constants_used
        assert used["kappa"] == 0.4 and used["alpha"] == 50.0 and "beta" not in used
        assert used["chain_constant"] == 0.25 and used["time_constant"] == 0.5

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize("kind", ["full", "phase", "offdiag"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_values_follow_echoed_constants(self, monkeypatch, scale, kind, d):
        # scale 3 moves both constants off their defaults: the values must follow the echo
        monkeypatch.setattr(bounds, "EQ_CHAIN_CONSTANT", scale * bounds.EQ_CHAIN_CONSTANT)
        monkeypatch.setattr(bounds, "EQ_TIME_CONSTANT", scale * bounds.EQ_TIME_CONSTANT)
        model, delta = make_model(kind, d), 0.05
        rep = bound_report(model, delta, 1.0)
        used = rep.constants_used
        assert rep.time_lower == pytest.approx(
            used["time_constant"] * d * math.sqrt(model.c) / delta, rel=1e-15)
        assert rep.copies_lower == pytest.approx(
            used["chain_constant"] * model.m * d / (delta * used["tau"]) ** 2, rel=1e-15)

    @pytest.mark.parametrize("delta, e_radius", [(math.nan, 1.0), (0.1, math.inf), (0.0, 1.0)])
    def test_rejects_bad_delta_or_radius(self, delta, e_radius):
        with pytest.raises(ValidationError,
                           match=r"delta/E must lie in \(0, 1/5\] with E finite, got delta="):
            bound_report(make_model("full", 2), delta, e_radius)

    @pytest.mark.parametrize("delta, e_radius", [(1e199, 1e200), (1e-170, 1.0),
                                                 (1e154, 1e155), (2.0 ** 400 / 10, 2.0 ** 400)])
    def test_rejects_unplannable_one_channel_stage(self, delta, e_radius):
        # E = 2^400 reports with no overflow and qfi_upper = 1.5e-241; at E = 1e155 and 1e200
        # qfi_upper would be subnormal or 0; delta = 1e-170 meets the delta / E floor
        model = make_model("full", 2)
        if delta / e_radius < 2.0 ** -40:
            with pytest.raises(ValidationError, match=r"delta/E must be at least 2\^-40"):
                bound_report(model, delta, e_radius)
            return
        if e_radius > 2.0 ** 400:
            with pytest.raises(ValidationError, match=r"the QFI bound 4 c tau\^2 underflows"):
                bound_report(model, delta, e_radius)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = bound_report(model, delta, e_radius)
        assert rep.copies_lower == bound_report(model, 0.1, 1.0).copies_lower
        assert rep.time_lower * e_radius == pytest.approx(bound_report(model, 0.1, 1.0).time_lower)
        assert rep.qfi_upper * e_radius ** 2 == pytest.approx(
            bound_report(model, 0.1, 1.0).qfi_upper)

    @pytest.mark.parametrize("kind", ["full", "phase", "offdiag"])
    def test_scales_with_e(self, kind):
        # at E = 4^k and delta / E fixed, copies_lower, time_lower E and qfi_upper E^2 are exact
        model = make_model(kind, 3)
        reps = {k: bound_report(model, 0.1 * 4.0 ** k, 4.0 ** k) for k in (-100, 0, 100)}
        for k, rep in reps.items():
            e_radius = 4.0 ** k
            assert ((rep.copies_lower, rep.time_lower * e_radius, rep.qfi_upper * e_radius ** 2)
                    == (reps[0].copies_lower, reps[0].time_lower, reps[0].qfi_upper)), k

    def test_homogeneity_suite(self):
        check_delta_homogeneity()

    def test_schwartz_chain_suite(self):
        check_schwartz_chain()


PLAN_GRID = [(kind, d, delta) for kind in ("full", "phase", "offdiag") for d in (2, 3, 4)
             for delta in (0.2, 0.1, 0.05, 0.025)]


def planned_time(scheme, model, delta):
    return sum(s.copies * s.r * s.tau for s in _plan(scheme, model, delta, 1.0, SchemeConstants()))


class TestPlannedTime:
    """Each scheme's planned T = sum N r tau against the bounds, with no simulation.

    many_channel's plan is not held to an upper bound: it exceeds
    time_upper_general by up to 1.35x on this grid (phase, and offdiag at d = 2).
    """

    @pytest.mark.parametrize("scheme", ["one_channel", "adaptive", "many_channel"])
    def test_lower_bound_holds(self, scheme):
        # smallest planned T / time_lower on this grid: 108, adaptive
        for kind, d, delta in PLAN_GRID:
            model = make_model(kind, d)
            lower = bound_report(model, delta, 1.0).time_lower
            assert lower <= planned_time(scheme, model, delta), (kind, d, delta)

    def test_adaptive_within_general_upper(self):
        # largest planned T / time_upper_general on this grid: 0.674
        for kind, d, delta in PLAN_GRID:
            model = make_model(kind, d)
            upper = time_upper_general(model.m, d, delta)
            assert planned_time("adaptive", model, delta) <= upper, (kind, d, delta)
