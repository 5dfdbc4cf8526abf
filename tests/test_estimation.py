import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import hamest.estimation as estimation
from hamest.config import ExperimentConfig
from hamest.constants import SchemeConstants
from hamest.errors import (DegenerateProjectionError, InversionUnstableError,
                           PostselectionStarvedError, ValidationError)
from hamest.estimation import (_TOMOGRAPHY_CHUNK as STAGE_CHUNK, EstimationRecord,
                               _frame_family, _measure_and_reconstruct, _mes_probe,
                               _outcome_projector_mean, _plan, _refine_gauss_newton, _Stage,
                               _stage_estimate, _symmetric_probe, invert_theta,
                               reconstruct_from_projector_mean,
                               run_adaptive, run_many_channel, run_one_channel,
                               sample_haar_outcomes)
from hamest.linalg import haar_state, hermitian_expm, hermitian_expm_derivatives
from hamest.model import hamiltonian, make_model
from hamest.probe import Schedule, evolve, mes
from hamest.runner import run_experiment
from hamest.symmetric import sym_frame_coefficients
from hamest.verify import (delta_resolution, frame_projection, postselection_frame,
                           superop_S, sym_space)

FULL2 = make_model("full", 2)
CONST = SchemeConstants()
_TOMOGRAPHY_CHUNK = 1 << 16


def mes_family(model, tau):
    """theta -> (f, df) of the single-channel MES probe exp(-i tau H_theta)."""
    ops = np.asarray(model.generators)
    return _frame_family(
        lambda theta: hermitian_expm_derivatives(hamiltonian(model, theta), tau, ops), ops, 1)


def _haar_bases(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n independent Haar-random orthonormal bases (columns of each matrix).

    Column phases are irrelevant downstream (only outcome projectors are
    used), so no phase correction of the QR factor is needed.
    """
    z = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def tomography(copies, rng: np.random.Generator) -> np.ndarray:
    """Pure-state estimate from single-copy Haar-random-basis measurements.

    ``copies`` is a sequence of prepared state vectors; each is measured in
    its own Haar-random orthonormal basis, one outcome is drawn by the Born
    rule, and the estimate is the top eigenvector of the linear-inversion
    density matrix.  Requires at least dim copies.  This literal basis
    sampler is the test oracle for ``sample_haar_outcomes``.
    """
    arr = np.asarray([np.asarray(c, dtype=complex).reshape(-1) for c in copies])
    n, dim = arr.shape
    if n < dim:
        raise ValidationError(f"tomography needs at least {dim} copies, got {n}")
    mean = np.zeros((dim, dim), dtype=complex)
    for start in range(0, n, _TOMOGRAPHY_CHUNK):
        block = arr[start:start + _TOMOGRAPHY_CHUNK]
        bases = _haar_bases(block.shape[0], dim, rng)
        amps = np.einsum("nik,ni->nk", bases.conj(), block)
        probs = np.abs(amps) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random(block.shape[0])
        idx = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
        idx = np.minimum(idx, dim - 1)
        outs = np.take_along_axis(bases, idx[:, None, None], axis=2)[:, :, 0]
        mean += np.einsum("ni,nj->ij", outs, outs.conj())
    return reconstruct_from_projector_mean(mean / n)


def exact_reduced(model, theta, tau):
    frame = postselection_frame(model)
    probe = evolve(model, theta,
                   Schedule(r=1, initial=mes(model.d), steps=((tau, None),)))
    reduced, p = frame_projection(frame, probe.amplitudes)
    return frame, reduced, p


class TestFrame:
    def test_norm_factor_single_channel(self):
        for d in (2, 3, 4):
            frame = postselection_frame(make_model("full", d))
            assert frame.norm_factor == pytest.approx(math.sqrt(d))

    def test_collective_frame_orthonormal(self):
        model = make_model("full", 2)
        for r in (2, 3, 4):
            frame = postselection_frame(model, sym_space(2, r))
            gram = frame.basis.conj().T @ frame.basis
            assert np.max(np.abs(gram - np.eye(model.m + 1))) < 1e-9


class TestSuperop:
    def test_identity_fixed(self):
        assert np.allclose(superop_S(FULL2, np.eye(2)), np.eye(2), atol=1e-12)

    def test_generator_fixed(self):
        x = FULL2.generators[1]
        assert np.allclose(superop_S(FULL2, x), x, atol=1e-12)

    def test_projection_identity_on_mes(self):
        rng = np.random.default_rng(1)
        frame = postselection_frame(FULL2)
        proj = frame.basis @ frame.basis.conj().T
        phi = mes(2).amplitudes
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = proj @ (np.kron(a, np.eye(2)) @ phi)
            rhs = np.kron(superop_S(FULL2, a), np.eye(2)) @ phi
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPostselect:
    def test_frame_member_always_accepted(self):
        frame = postselection_frame(FULL2)
        reduced, p = frame_projection(frame, mes(2).amplitudes)
        assert p == pytest.approx(1.0)
        assert np.allclose(reduced, np.eye(4)[0], atol=1e-10)

    def test_orthogonal_state_degenerate(self):
        frame = postselection_frame(make_model("phase", 2))
        # orthogonal to both the MES and Z (x) I applied to it
        psi = np.array([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateProjectionError):
            frame_projection(frame, psi)

    def test_first_order_coefficients(self):
        tau, theta = 0.02, np.array([0.4, -0.3, 0.2])
        frame, reduced, p = exact_reduced(FULL2, theta, tau)
        reduced = reduced * np.exp(-1j * np.angle(reduced[0]))
        expect = -1j * tau * theta / math.sqrt(2)
        assert np.max(np.abs(reduced[1:] - expect)) < 5e-4
        assert p == pytest.approx(1.0, abs=1e-4)


class TestTomography:
    def test_needs_enough_copies(self):
        psi = np.eye(3)[0]
        with pytest.raises(ValidationError):
            tomography([psi, psi], np.random.default_rng(0))

    def test_infinite_data_oracle(self):
        # exact outcome frequencies: mean projector = (rho + I)/(D+1)
        rng = np.random.default_rng(2)
        for dim in (2, 3, 4):
            psi = haar_state(dim, rng)
            mean = (np.outer(psi, psi.conj()) + np.eye(dim)) / (dim + 1)
            est = reconstruct_from_projector_mean(mean)
            assert abs(np.vdot(est, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_frame_state_small_infidelity(self):
        # N = 200 copies of a basis state in a 2-dim space: squared
        # infidelity <= 0.05 for at least 95% of seeds
        psi = np.array([1.0, 0.0], dtype=complex)
        hits = 0
        seeds = 60
        for s in range(seeds):
            est = tomography([psi] * 200, np.random.default_rng(900 + s))
            if 1.0 - abs(np.vdot(est, psi)) ** 2 <= 0.05:
                hits += 1
        assert hits >= math.ceil(0.95 * seeds)

    def test_mean_squared_infidelity_budget(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 4):
            total = 0.0
            seeds = 120
            n_copies = 200
            for s in range(seeds):
                r = np.random.default_rng(5000 + 17 * s + dim)
                psi = haar_state(dim, r)
                est = _measure_and_reconstruct(psi, n_copies, r)
                total += 1.0 - abs(np.vdot(est, psi)) ** 2
            assert total / seeds <= 10 * (dim - 1) / n_copies

    def test_direct_sampler_matches_basis_sampler(self):
        # both samplers draw from the same outcome-projector distribution
        dim, n = 3, 20000
        psi = haar_state(dim, np.random.default_rng(4))
        expect = (np.outer(psi, psi.conj()) + np.eye(dim)) / (dim + 1)

        outs = sample_haar_outcomes(psi, n, np.random.default_rng(5))
        direct = np.einsum("ni,nj->ij", outs, outs.conj()) / n

        rng = np.random.default_rng(6)
        bases = _haar_bases(n, dim, rng)
        amps = np.einsum("nik,ni->nk", bases.conj(), np.tile(psi, (n, 1)))
        probs = np.abs(amps) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        idx = (np.cumsum(probs, axis=1) < rng.random(n)[:, None]).sum(axis=1)
        outs2 = np.take_along_axis(
            bases, np.minimum(idx, dim - 1)[:, None, None], axis=2)[:, :, 0]
        literal = np.einsum("ni,nj->ij", outs2, outs2.conj()) / n

        assert np.max(np.abs(direct - expect)) < 0.02
        assert np.max(np.abs(literal - expect)) < 0.02

    @staticmethod
    def _outcomes(dim, n=200_000):
        psi = haar_state(dim, np.random.default_rng(40 + dim))
        return psi, sample_haar_outcomes(psi, n, np.random.default_rng(41 + dim))

    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_sampler_outcomes_are_unit_vectors(self, dim):
        _, outs = self._outcomes(dim)
        assert np.all(np.isfinite(outs))
        assert np.allclose(np.linalg.norm(outs, axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_sampler_overlap_is_beta(self, dim):
        # density D |<o|psi>|^2 on the sphere: |<o|psi>|^2 ~ Beta(2, D-1)
        psi, outs = self._outcomes(dim)
        overlap = np.abs(outs @ psi.conj()) ** 2
        assert scipy.stats.kstest(overlap, scipy.stats.beta(2, dim - 1).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_sampler_orthogonal_weight(self, dim):
        # E|<o|e>|^2 = <e|(psi psi^+ + I)|e> / (D+1) = 1/(D+1) for e orthogonal to psi
        psi, outs = self._outcomes(dim)
        e = np.eye(dim, dtype=complex)[0] - np.conj(psi[0]) * psi
        e /= np.linalg.norm(e)
        weight = np.abs(outs @ e.conj()) ** 2
        stderr = weight.std(ddof=1) / math.sqrt(weight.size)
        assert abs(weight.mean() - 1 / (dim + 1)) <= 5 * stderr

    class ZeroExponentials:
        """Draws whose exponentials are exactly 0, so that every x_0 is 0."""
        def __init__(self):
            self._rng = np.random.default_rng(9)

        def standard_normal(self, size):
            return self._rng.standard_normal(size)

        def standard_exponential(self, size):
            return np.zeros(size)

    def test_sampler_zero_exponentials_gives_no_nan(self):
        psi = haar_state(3, np.random.default_rng(10))
        outs = sample_haar_outcomes(psi, 100, self.ZeroExponentials())
        assert np.all(np.isfinite(outs))
        assert np.allclose(np.linalg.norm(outs, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_stage_path_zero_exponentials_gives_unit_trace(self):
        psi = haar_state(3, np.random.default_rng(10))
        mean = _outcome_projector_mean(psi, 100, self.ZeroExponentials())
        assert np.all(np.isfinite(mean))
        assert abs(np.trace(mean) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_stage_path_draw_contract(self, dim):
        # k chunks: the trial generator draws k-1 uint64 keys, then chunk 0's
        # (k0, 2D-2) normal and (k0, 2) exponential blocks; chunk i >= 1 draws
        # the same two blocks from a generator of the trial's class keyed by key i
        n = 5 * STAGE_CHUNK // 2
        psi = haar_state(dim, np.random.default_rng(65 + dim))
        rng, twin = np.random.default_rng(66), np.random.default_rng(66)
        children = []
        real_generator = np.random.Generator

        def recording_generator(bit_generator):
            children.append(bit_generator)
            return real_generator(bit_generator)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "Generator", recording_generator)
            _outcome_projector_mean(psi, n, rng)
        sizes = [min(STAGE_CHUNK, n - done) for done in range(0, n, STAGE_CHUNK)]
        keys = twin.integers(1 << 64, size=len(sizes) - 1, dtype=np.uint64)
        twin.standard_normal((sizes[0], 2 * dim - 2))
        twin.standard_exponential((sizes[0], 2))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert len(children) == len(keys)
        for k, key, child in zip(sizes[1:], keys, children):
            replay = np.random.PCG64(int(key))
            replayed = np.random.Generator(replay)
            replayed.standard_normal((k, 2 * dim - 2))
            replayed.standard_exponential((k, 2))
            assert type(child) is np.random.PCG64
            assert child.state == replay.state

    @pytest.mark.parametrize("chunks", [2, 3, 5])
    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_stage_path_is_independent_of_thread_count(self, dim, chunks, monkeypatch):
        # two or more chunks fold on two lanes; the Grams sum in chunk order either way
        n = chunks * STAGE_CHUNK
        assert len(estimation._outcome_chunks(dim, n, np.random.default_rng(0))) == chunks
        psi = haar_state(dim, np.random.default_rng(67 + dim))
        means, nexts = [], []
        for workers in (1, 2):
            monkeypatch.setattr(estimation, "_pool_workers", lambda: workers)
            rng = np.random.Generator(np.random.SFC64(68))
            means.append(_outcome_projector_mean(psi, n, rng))
            nexts.append(rng.bit_generator.random_raw(4).tolist())
        assert means[0].tobytes() == means[1].tobytes()
        assert nexts[0] == nexts[1]

    @pytest.mark.parametrize("where", ["chunk 1", "helper lane"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_lane_error_propagates_and_joins(self, error, where, monkeypatch):
        # the failing lane's exception reaches the caller as itself, after the helper is joined
        plan, helper_took = [], threading.Event()
        real_chunks, real_gram = estimation._outcome_chunks, estimation._chunk_gram

        def recorded_chunks(*args):
            plan.extend(real_chunks(*args))
            return plan

        def failing_gram(dim, n, gen):
            helper = threading.current_thread() is not threading.main_thread()
            if helper:
                helper_took.set()
            else:
                helper_took.wait(timeout=10)     # the helper folds at least one chunk
            if gen is plan[1][1] if where == "chunk 1" else helper:
                raise error("lane failed")
            return real_gram(dim, n, gen)

        monkeypatch.setattr(estimation, "_pool_workers", lambda: 2)
        monkeypatch.setattr(estimation, "_outcome_chunks", recorded_chunks)
        monkeypatch.setattr(estimation, "_chunk_gram", failing_gram)
        psi = haar_state(4, np.random.default_rng(69))
        before = threading.active_count()
        with pytest.raises(error, match="lane failed"):
            _outcome_projector_mean(psi, 5 * STAGE_CHUNK, np.random.default_rng(70))
        assert len(plan) == 5
        assert threading.active_count() == before

    def test_lanes_fold_each_chunk_once(self, monkeypatch):
        # with the interpreter switching threads every microsecond, a lost or
        # doubled chunk index would show in the fold count or the slot order
        folded = []

        def fake_gram(dim, n, gen):
            folded.append(n)
            return np.full((2, 2), float(n))

        monkeypatch.setattr(estimation, "_chunk_gram", fake_gram)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                folded.clear()
                grams = estimation._lane_grams(1, [(i, None) for i in range(64)])
                assert sorted(folded) == list(range(64))
                assert [g[0, 0] for g in grams] == list(range(64))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("copies", ["D+1", "chunk", "2.5 chunk"])
    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_stage_path_matches_reference_sampler(self, dim, copies):
        # same draws, same generator state: the projector sum is the reference's, summed
        n = {"D+1": dim + 1, "chunk": STAGE_CHUNK, "2.5 chunk": 5 * STAGE_CHUNK // 2}[copies]
        psi = haar_state(dim, np.random.default_rng(60 + dim))
        stage_rng, ref_rng = np.random.default_rng(61), np.random.default_rng(61)
        mean = _outcome_projector_mean(psi, n, stage_rng)
        outs = sample_haar_outcomes(psi, n, ref_rng)
        assert np.max(np.abs(mean - outs.T @ outs.conj() / n)) <= 1e-13
        assert stage_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_tomography_memory_is_bounded_by_chunk(self, dim):
        # 230 400 copies, as in a one-channel run: no per-copy array is kept
        psi = haar_state(dim, np.random.default_rng(70 + dim))
        rng = np.random.default_rng(71)
        tracemalloc.start()
        try:
            _measure_and_reconstruct(psi, 230_400, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_sampler_basis_is_continuous_in_state(self):
        # a rounding-level change of psi must not redraw the outcomes
        psi = np.array([1.0, 0.1j, -0.05j, 0.02j])
        psi /= np.linalg.norm(psi)
        base = sample_haar_outcomes(psi, 1000, np.random.default_rng(12))
        for phase in np.exp(2j * np.pi * np.random.default_rng(13).random(20)):
            moved = psi.copy()
            moved[1] += 1e-12 * phase
            outs = sample_haar_outcomes(moved, 1000, np.random.default_rng(12))
            assert np.max(np.abs(outs - base)) < 1e-9

    def test_sampler_one_dimension_keeps_state(self):
        psi = np.array([np.exp(0.7j)])
        outs = sample_haar_outcomes(psi, 1000, np.random.default_rng(8))
        assert outs.shape == (1000, 1)
        assert np.allclose(np.abs(outs[:, 0]), 1.0, rtol=0, atol=1e-12)


class TestInvertTheta:
    def test_unperturbed_probe(self):
        frame = postselection_frame(FULL2)
        theta = invert_theta(np.eye(4)[0], 0.3, frame.norm_factor)
        assert np.allclose(theta, 0.0)

    def test_single_parameter_formula(self):
        frame = postselection_frame(make_model("phase", 2))
        eps, tau = 0.01, 0.1
        reduced = np.array([1.0, -1j * eps]) / math.sqrt(1 + eps * eps)
        theta = invert_theta(reduced, tau, frame.norm_factor)
        assert theta[0] == pytest.approx(eps * math.sqrt(2) / tau)

    def test_bias_sweep_first_order(self):
        rng = np.random.default_rng(7)
        for kind, d in [("full", 2), ("full", 3)]:
            model = make_model(kind, d)
            for _ in range(5):
                theta = rng.standard_normal(model.m)
                theta /= np.linalg.norm(theta)
                frame, reduced, _ = exact_reduced(model, theta, 0.05)
                est = invert_theta(reduced, 0.05, frame.norm_factor)
                assert np.linalg.norm(est - theta) <= 0.01

    def test_refinement_tightens(self):
        model = make_model("full", 3)
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(model.m)
        theta /= np.linalg.norm(theta)
        frame, reduced, _ = exact_reduced(model, theta, 0.05)
        est = invert_theta(reduced, 0.05, frame.norm_factor, family=mes_family(model, 0.05))
        assert np.linalg.norm(est - theta) <= 1e-3

    @pytest.mark.parametrize("kind,d,r", [("full", 3, 1), ("full", 2, 8), ("full", 3, 6),
                                          ("offdiag", 4, 4)])
    def test_refine_gauss_newton_converges_quadratically(self, kind, d, r):
        # noiseless coefficients (any global phase): one exact Gauss-Newton
        # step from inc + eps u lands within O(eps^2) of the true increment
        model = make_model(kind, d)
        rng = np.random.default_rng(40 + r)
        theta = rng.standard_normal(model.m)
        theta /= np.linalg.norm(theta)
        star = theta + 0.2 * rng.standard_normal(model.m)
        probe = _mes_probe(model, theta, 0) if r == 1 else _symmetric_probe(model, theta)
        v, unitary = probe(_Stage(1, 0.3 / r, r, 0), star)
        c = sym_frame_coefficients(v, model.generators, r)
        reduced = np.exp(0.7j) * c / np.linalg.norm(c)
        family = _frame_family(unitary, np.asarray(model.generators), r)
        u = rng.standard_normal(model.m)
        u /= np.linalg.norm(u)
        errs = [np.linalg.norm(_refine_gauss_newton(family, reduced, theta - star + eps * u)
                               - (theta - star)) for eps in (1e-1, 1e-2, 1e-3)]
        for eps, err in zip((1e-1, 1e-2, 1e-3), errs):
            assert err <= 0.01 * eps ** 2, (eps, err)
        assert 0.005 <= errs[2] / errs[1] <= 0.02, errs

    def test_unstable_when_c0_small(self):
        frame = postselection_frame(make_model("phase", 2))
        reduced = np.array([0.05, 1.0]) / math.sqrt(1.0025)
        with pytest.raises(InversionUnstableError):
            invert_theta(reduced, 0.1, frame.norm_factor)


class TestDeltaResolution:
    def test_phase_closed_form(self):
        model = make_model("phase", 2)
        rng = np.random.default_rng(9)
        tau, delta = 0.5, 0.2
        val = delta_resolution(model, tau, 1.0, delta, 150, rng)
        assert val == pytest.approx(math.sin(tau * delta / math.sqrt(2)), abs=1e-8)

    def test_zero_delta(self):
        model = make_model("phase", 2)
        val = delta_resolution(model, 0.4, 1.0, 0.0, 50, np.random.default_rng(10))
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_full_model_ratio(self):
        model = make_model("full", 2)
        rng = np.random.default_rng(11)
        tau, delta = 0.3, 0.1
        val = delta_resolution(model, tau, 1.0, delta, 250, rng)
        assert 0.5 <= val * val * 2 / (tau * delta) ** 2 <= 4.0

    def test_rejects_bad_delta(self):
        with pytest.raises(ValidationError):
            delta_resolution(FULL2, 0.3, 1.0, 2.5, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("kind,d", [("full", 2), ("full", 3), ("phase", 3), ("offdiag", 4)])
    def test_overlap_is_unitary_trace(self, kind, d):
        # the identity delta_resolution rests on: |<psi_theta|psi_theta'>| = |Tr(U^dag U')| / d
        model = make_model(kind, d)
        rng = np.random.default_rng(90 + d)
        tau = 0.7
        for _ in range(5):
            theta, theta2 = rng.standard_normal((2, model.m))
            psi, psi2 = (evolve(model, t, Schedule(r=1, initial=mes(d), steps=((tau, None),)))
                         .amplitudes for t in (theta, theta2))
            u, u2 = (hermitian_expm(hamiltonian(model, t), tau) for t in (theta, theta2))
            assert abs(abs(np.trace(u.conj().T @ u2)) / d - abs(np.vdot(psi, psi2))) < 1e-12


class TestRunOneChannel:
    def test_null_case_estimates_zero(self):
        delta = 0.1
        rec = run_one_channel(FULL2, np.zeros(3), delta, 1.0, CONST, seed=5)
        assert rec.error <= delta / 2
        assert rec.success

    def test_record_invariants(self):
        rec = run_one_channel(FULL2, [0.2, -0.1, 0.25], 0.1, 1.0, CONST, seed=6)
        stage = rec.stages[0]
        assert rec.total_time == pytest.approx(stage.copies * 1 * stage.tau)
        assert stage.copies == math.ceil(CONST.alpha * 3 * 2 * 1.0 / 0.1 ** 2)
        assert stage.tau == pytest.approx(CONST.kappa / math.sqrt(FULL2.c))
        assert rec.success == (rec.error <= rec.delta)

    def test_deterministic_given_seed(self):
        a = run_one_channel(FULL2, [0.1, 0.1, 0.1], 0.1, 1.0, CONST, seed=7)
        b = run_one_channel(FULL2, [0.1, 0.1, 0.1], 0.1, 1.0, CONST, seed=7)
        assert a == b

    def test_doubling_copies_halves_squared_error(self):
        delta, e_radius = 0.2, 1.0
        base = SchemeConstants(alpha=CONST.alpha)
        double = SchemeConstants(alpha=2 * CONST.alpha)
        # mean squared errors over 200 pairs: a ratio of 60-pair medians spread from 1.3 to 3.9
        errs = {0: [], 1: []}
        for i in range(200):
            rng = np.random.default_rng((123, i))
            theta = rng.standard_normal(3)
            theta *= e_radius * rng.random() ** (1 / 3) / np.linalg.norm(theta)
            for k, const in enumerate((base, double)):
                r = np.random.default_rng((456 + k, i))
                rec = run_one_channel(FULL2, theta, delta, e_radius, const, rng=r)
                errs[k].append(rec.error ** 2)
        ratio = np.mean(errs[0]) / np.mean(errs[1])
        assert 2 / 1.5 <= ratio <= 2 * 1.5

    def test_success_rate_target(self):
        # 200 seeded trials at delta = 0.1 must succeed at >= 95%
        ok = 0
        for i in range(200):
            rng = np.random.default_rng((11, i))
            theta = rng.standard_normal(3)
            theta *= rng.random() ** (1 / 3) / np.linalg.norm(theta)
            ok += run_one_channel(FULL2, theta, 0.1, 1.0, CONST,
                                  rng=rng, seed=i).success
        assert ok >= 190

    def test_rejects_theta_outside_ball(self):
        with pytest.raises(ValidationError):
            run_one_channel(FULL2, [2.0, 0, 0], 0.1, 1.0, CONST)

    def test_rejects_large_delta(self):
        with pytest.raises(ValidationError):
            run_one_channel(FULL2, np.zeros(3), 0.5, 1.0, CONST)

    def test_starvation_raises(self):
        frame = postselection_frame(FULL2)
        with pytest.raises(PostselectionStarvedError):
            _stage_estimate(np.eye(4)[0], 0.001, 1000, 0.3, frame.norm_factor, None,
                            np.random.default_rng(0))


class TestRunAdaptive:
    def test_degenerate_staging_depth(self):
        # E comparable to delta still gets one stage (radius 2*delta)
        assert len(_plan("adaptive", FULL2, 1.0, 1.0, CONST)) == 1
        assert len(_plan("adaptive", FULL2, 0.6, 1.0, CONST)) == 1
        assert len(_plan("adaptive", FULL2, 0.1, 1.0, CONST)) == 4

    def test_stage_structure(self):
        delta, e_radius = 0.1, 1.0
        rec = run_adaptive(FULL2, [0.3, -0.2, 0.1], delta, e_radius, CONST, seed=8)
        n0 = math.ceil(math.log2(e_radius / delta))
        assert [s.n for s in rec.stages] == list(range(n0, 0, -1))
        for s in rec.stages:
            assert s.tau == pytest.approx(
                CONST.kappa / (2 ** s.n * delta * math.sqrt(FULL2.c)))
            assert s.copies == math.ceil(CONST.alpha * 3 * (1 + CONST.beta * s.n))
        assert rec.total_time == pytest.approx(
            sum(s.copies * s.tau for s in rec.stages))

    def test_succeeds_at_default_constants(self):
        ok = 0
        for i in range(20):
            rng = np.random.default_rng((77, i))
            theta = rng.standard_normal(3)
            theta *= rng.random() ** (1 / 3) / np.linalg.norm(theta)
            rec = run_adaptive(FULL2, theta, 0.05, 1.0, CONST, rng=rng, seed=i)
            ok += rec.success
        assert ok >= 19

    def test_staging_contract(self):
        # conditioned on stage n's prior holding, the new estimate lands
        # within 2^(n-1) delta with frequency >= 1 - 0.05 / 2^n
        delta, e_radius, trials = 0.05, 1.0, 150
        n0 = math.ceil(math.log2(e_radius / delta))
        frame = postselection_frame(FULL2)
        scale = math.sqrt(FULL2.c)
        counts = {n: [0, 0] for n in range(1, n0 + 1)}
        for i in range(trials):
            rng = np.random.default_rng((31, i))
            theta = rng.standard_normal(3)
            theta *= rng.random() ** (1 / 3) / np.linalg.norm(theta)
            theta_star = np.zeros(3)
            prior_ok = True
            for n in range(n0, 0, -1):
                tau = CONST.kappa / (2 ** n * delta * scale)
                copies = math.ceil(CONST.alpha * 3 * (1 + CONST.beta * n))
                probe = evolve(FULL2, theta - theta_star,
                               Schedule(r=1, initial=mes(2), steps=((tau, None),)))
                reduced, p = frame_projection(frame, probe.amplitudes)
                inc, _ = _stage_estimate(reduced, p, copies, tau, frame.norm_factor,
                                         mes_family(FULL2, tau), rng)
                theta_star = theta_star + inc
                err = np.linalg.norm(theta_star - theta)
                if prior_ok:
                    counts[n][1] += 1
                    if err <= 2 ** (n - 1) * delta:
                        counts[n][0] += 1
                    else:
                        prior_ok = False
        for n, (hit, tot) in counts.items():
            assert tot > 0
            assert hit / tot >= 1 - 0.05 / 2 ** n - 0.01, (n, hit, tot)

    @pytest.mark.parametrize("driver", [run_adaptive, run_many_channel])
    def test_starved_run_stays_in_stage_balls(self, driver):
        # alpha = 0.2 starves the late stages (as in the adaptive_failed_stage
        # golden); each increment is projected onto its ball of radius 2^n delta
        const, delta = SchemeConstants(alpha=0.2), 0.05
        bound = sum(2.0 ** n * delta for n in range(1, 6))
        worst = 0.0
        for seed in range(40):
            rng = np.random.default_rng((12, seed))
            theta = rng.standard_normal(3)
            theta *= rng.random() ** (1 / 3) / np.linalg.norm(theta)
            rec = driver(FULL2, theta, delta, 1.0, const, rng=rng, seed=seed)
            assert [s.n for s in rec.stages] == [5, 4, 3, 2, 1]
            worst = max(worst, np.linalg.norm(rec.theta_hat))
        assert worst <= bound * (1 + 1e-12), worst

    def test_trotter_mode_succeeds(self):
        const = SchemeConstants(trotter_slices=128)
        rec = run_adaptive(FULL2, [0.25, 0.1, -0.3], 0.1, 1.0, const, seed=9)
        assert rec.success

    def test_reproducible_record(self):
        a = run_adaptive(FULL2, [0.2, 0.0, 0.1], 0.1, 1.0, CONST, seed=10)
        b = run_adaptive(FULL2, [0.2, 0.0, 0.1], 0.1, 1.0, CONST, seed=10)
        assert a == b


class TestRunManyChannel:
    def test_perfect_prior_gives_zero_increment(self):
        model = FULL2
        space = sym_space(2, 4)
        frame = postselection_frame(model, space)
        # theta* == theta: counter-rotation cancels, probe -> frame origin
        psi = np.eye(space.D).reshape(-1) / math.sqrt(space.D)
        reduced, p = frame_projection(frame, psi)
        assert p == pytest.approx(1.0)
        assert np.allclose(reduced, np.eye(model.m + 1)[0], atol=1e-12)
        inc = invert_theta(reduced, 0.4, frame.norm_factor)
        assert np.allclose(inc, 0.0)

    def test_channel_doubling_sequence(self):
        rec = run_many_channel(FULL2, [0.2, -0.1, 0.15], 0.1, 1.0, CONST, seed=11)
        n0 = 4
        assert [s.n for s in rec.stages] == list(range(n0, 0, -1))
        taus = {s.tau for s in rec.stages}
        assert len(taus) == 1  # tau shared by all stages
        expected_r = [min(2 ** (n0 - n) * 2, CONST.effective_r_max(2))
                      for n in range(n0, 0, -1)]
        total = sum(s.copies * r * s.tau for s, r in zip(rec.stages, expected_r))
        assert rec.total_time == pytest.approx(total)

    def test_r_max_cap(self):
        # r = 2, 4, 8, 16 capped to 2, 4, 4, 4: the last stage resolves less
        # sharply, so a trial may miss delta but stays within a few delta
        const, delta, n0 = SchemeConstants(r_max=4), 0.1, 4
        for seed in range(40):
            rec = run_many_channel(FULL2, [0.1, 0.1, 0.1], delta, 1.0, const, seed=seed)
            assert [s.n for s in rec.stages] == list(range(n0, 0, -1))
            total = sum(s.copies * min(2 ** (n0 - s.n) * 2, 4) * s.tau for s in rec.stages)
            assert rec.total_time == pytest.approx(total)
            assert rec.error <= 4 * delta

    def test_full_d3_plan_runs_every_trial(self):
        # d = 3, delta = 0.025: stages n = 6..1 use r = 3..96 channels, up to
        # a symmetric dimension D = 4753
        cfg = ExperimentConfig(model_kind="full", d=3, scheme="many_channel",
                               delta=0.025, e_radius=1.0, trials=40, master_seed=95014)
        _, summary = run_experiment(cfg)
        assert summary["n_errors"] == 0
        assert summary["success_rate"] >= 0.95

    def test_succeeds_and_time_comparable_to_adaptive(self):
        t_adapt, t_many, ok = [], [], 0
        for i in range(15):
            rng = np.random.default_rng((88, i))
            theta = rng.standard_normal(3)
            theta *= rng.random() ** (1 / 3) / np.linalg.norm(theta)
            ra = run_adaptive(FULL2, theta, 0.1, 1.0, CONST,
                              rng=np.random.default_rng((1, i)), seed=i)
            rm = run_many_channel(FULL2, theta, 0.1, 1.0, CONST,
                                  rng=np.random.default_rng((2, i)), seed=i)
            t_adapt.append(ra.total_time)
            t_many.append(rm.total_time)
            ok += rm.success
        assert ok >= 14
        ratio = np.median(t_many) / np.median(t_adapt)
        assert 1 / 4 <= ratio <= 4


DRIVERS = {"one_channel": run_one_channel, "adaptive": run_adaptive,
           "many_channel": run_many_channel}


class TestPlan:
    @pytest.mark.parametrize("scheme", DRIVERS)
    @pytest.mark.parametrize("const", [CONST, SchemeConstants(r_max=4), SchemeConstants(alpha=0.2)],
                             ids=["default", "r_max=4", "alpha=0.2"])
    def test_driver_records_its_plan(self, scheme, const):
        plan = _plan(scheme, FULL2, 0.1, 1.0, const)
        failed = 0
        for seed in range(4):
            rec = DRIVERS[scheme](FULL2, [0.3, -0.2, 0.1], 0.1, 1.0, const, seed=seed)
            assert ([(s.n, s.tau, s.copies) for s in rec.stages]
                    == [(s.n, s.tau, s.copies) for s in plan])
            assert rec.total_time == sum(s.copies * s.r * s.tau for s in plan)
            failed += sum(s.failed for s in rec.stages)
        if const.alpha < 1 and scheme != "one_channel":
            assert failed, "alpha = 0.2 starves late stages; their copies still count in T"

    @pytest.mark.parametrize("scheme", DRIVERS)
    @pytest.mark.parametrize("theta, delta, e_radius",
                             [([math.nan, 0, 0], 0.1, 1.0), ([0, 0, 0], math.nan, 1.0),
                              ([0, 0, 0], 0.1, math.inf)],
                             ids=["nan_theta", "nan_delta", "inf_E"])
    def test_rejects_non_finite_inputs(self, scheme, theta, delta, e_radius):
        with pytest.raises(ValidationError, match="must be finite"):
            DRIVERS[scheme](FULL2, theta, delta, e_radius, CONST)


class TestRecord:
    def test_success_definition(self):
        rec = EstimationRecord.build([0.0], [0.05], [], 1.0, delta=0.1, seed=1)
        assert rec.success and rec.error == pytest.approx(0.05)
        rec2 = EstimationRecord.build([0.0], [0.2], [], 1.0, delta=0.1, seed=1)
        assert not rec2.success
