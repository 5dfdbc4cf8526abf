import math
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import hamest.estimation as estimation
from hamest import runner
from hamest.config import ExperimentConfig, parse_config
from hamest.constants import P_CRIT, SLICE_PHASE, SchemeConstants
from hamest.errors import (DegenerateProjectionError, InversionUnstableError,
                           PostselectionStarvedError, ValidationError)
from hamest.estimation import (_TOMOGRAPHY_CHUNK as STAGE_CHUNK, EstimationRecord,
                               _check_run_inputs, _mes_probe, _outcome_projector_mean, _plan,
                               _refine_gauss_newton, _Stage,
                               _stage_estimate, invert_theta,
                               reconstruct_from_projector_mean,
                               run_adaptive, run_many_channel, run_one_channel)
from hamest.linalg import haar_state, hermitian_expm
from hamest.model import hamiltonian, make_model, max_energy
from hamest.probe import Schedule, evolve, mes
from hamest.runner import run_experiment
from hamest.symmetric import sym_frame_coefficients
from hamest.verify import (delta_resolution, frame_projection, postselection_frame,
                           sample_haar_outcomes, superop_S, sym_space)

GOLDEN = Path(__file__).parent / "data" / "golden"
FULL2 = make_model("full", 2)
CONST = SchemeConstants()
FLOOR = 2.0 ** -40
FLOOR_MESSAGE = r"delta/E must be at least 2\^-40, got delta/E="
_TOMOGRAPHY_CHUNK = 1 << 16


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


# The trial generator's bit-generator class: default_rng's PCG64, Philox as perfbench builds
# it, MT19937 and the runner's SFC64.
CALLERS = {
    "PCG64": np.random.default_rng,
    "Philox": lambda seed: np.random.Generator(np.random.Philox(key=seed)),
    "MT19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
    "SFC64": lambda seed: np.random.Generator(np.random.SFC64(seed)),
}


def over_callers(argnames: str, cases):
    """Parametrize ``argnames`` and ``caller`` (a CALLERS name) over cases x CALLERS.

    A case's id is its values joined by '-', suffixed by the class name unless it is PCG64.
    """
    return pytest.mark.parametrize(f"{argnames},caller", [
        pytest.param(*case, name,
                     id="-".join(map(str, case)) + ("" if name == "PCG64" else f"-{name}"))
        for case in cases for name in CALLERS])


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
                est = reconstruct_from_projector_mean(_outcome_projector_mean(psi, n_copies, r))
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

    @over_callers("dim", [(2,), (4,), (9,)])
    def test_stage_path_draw_contract(self, dim, caller):
        # k chunks: the trial generator draws k-1 uint64 keys, then chunk 0's
        # (k0, 2D-2) normal and (k0, 2) exponential blocks; chunk i >= 1 draws
        # the same two blocks from an SFC64 generator keyed by key i, whatever the trial's class
        n = 5 * STAGE_CHUNK // 2
        psi = haar_state(dim, np.random.default_rng(65 + dim))
        rng, twin = CALLERS[caller](66), CALLERS[caller](66)
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
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
        assert len(children) == len(keys)
        for k, key, child in zip(sizes[1:], keys, children):
            replay = np.random.SFC64(int(key))
            replayed = np.random.Generator(replay)
            replayed.standard_normal((k, 2 * dim - 2))
            replayed.standard_exponential((k, 2))
            assert type(child) is np.random.SFC64
            np.testing.assert_equal(child.state, replay.state)

    @pytest.mark.parametrize("chunks", [2, 3, 5])
    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_stage_path_is_independent_of_thread_count(self, dim, chunks, monkeypatch):
        # on 1 CPU or 8, the calling thread folds the even chunks and one helper the odd
        # ones, and the mean and the generator state are a serial chunk-order fold's
        n = chunks * STAGE_CHUNK
        psi = haar_state(dim, np.random.default_rng(67 + dim))
        plan, folded = [], []
        real_chunks, real_gram = estimation._outcome_chunks, estimation._chunk_gram

        def recorded_chunks(*args):
            plan[:] = real_chunks(*args)
            return plan

        def recorded_gram(dim, n, gen):
            folded.append((gen, threading.current_thread()))
            return real_gram(dim, n, gen)

        def stage_path(rng):
            return _outcome_projector_mean(psi, n, rng), rng.bit_generator.random_raw(4).tolist()

        with monkeypatch.context() as mp:
            mp.setattr(estimation, "_lane_grams",
                       lambda dim, chunks: [real_gram(dim, *chunk) for chunk in chunks])
            serial_mean, serial_next = stage_path(np.random.Generator(np.random.SFC64(68)))
        monkeypatch.setattr(estimation, "_outcome_chunks", recorded_chunks)
        monkeypatch.setattr(estimation, "_chunk_gram", recorded_gram)
        for cpus in (1, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            folded.clear()
            mean, after = stage_path(np.random.Generator(np.random.SFC64(68)))
            assert mean.tobytes() == serial_mean.tobytes()
            assert after == serial_next
            assert len(plan) == len(folded) == chunks
            lanes = [next(thread for g, thread in folded if g is gen) for _, gen in plan]
            assert set(lanes[0::2]) == {threading.main_thread()}
            assert len(set(lanes[1::2])) == 1 and lanes[1] is not threading.main_thread()

    @pytest.mark.parametrize("where", ["chunk 1", "chunk 2", "helper lane"])
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_lane_error_propagates_and_joins(self, error, where, monkeypatch):
        # the failing lane's exception reaches the caller as itself, after the helper is
        # joined; the helper folds the odd chunks and the calling thread the even ones
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
            if gen is plan[int(where[-1])][1] if where.startswith("chunk") else helper:
                raise error("lane failed")
            return real_gram(dim, n, gen)

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

    @over_callers("dim,copies", [(dim, copies) for dim in (2, 4, 9)
                                 for copies in ("D+1", "chunk", "2.5 chunk")])
    def test_stage_path_matches_reference_sampler(self, dim, copies, caller):
        # same draws, same generator state: the projector sum is the reference's, summed
        n = {"D+1": dim + 1, "chunk": STAGE_CHUNK, "2.5 chunk": 5 * STAGE_CHUNK // 2}[copies]
        psi = haar_state(dim, np.random.default_rng(60 + dim))
        stage_rng, ref_rng = CALLERS[caller](61), CALLERS[caller](61)
        mean = _outcome_projector_mean(psi, n, stage_rng)
        outs = sample_haar_outcomes(psi, n, ref_rng)
        assert np.max(np.abs(mean - outs.T @ outs.conj() / n)) <= 1e-13
        np.testing.assert_equal(stage_rng.bit_generator.state, ref_rng.bit_generator.state)

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_tomography_memory_is_bounded_by_chunk(self, dim):
        # 230 400 copies, as in a one-channel run: no per-copy array is kept
        psi = haar_state(dim, np.random.default_rng(70 + dim))
        rng = np.random.default_rng(71)
        tracemalloc.start()
        try:
            reconstruct_from_projector_mean(_outcome_projector_mean(psi, 230_400, rng))
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
    @pytest.mark.parametrize("reduced, tau, norm_factor", [
        (np.eye(4)[0], 0.0, 2.0), (np.eye(4)[0], math.nan, 2.0), (np.eye(4)[0], -1.0, 2.0),
        (np.eye(4)[0], math.inf, 2.0), (np.eye(4)[0], 0.3, math.inf),
        (np.eye(4)[0], 0.3, 0.0), (np.eye(4)[0], 0.3, math.nan),
        ([1.0, math.nan, 0.0, 0.0], 0.3, 2.0), ([math.nan, 0.0, 0.0, 0.0], 0.3, 2.0),
        ([1.0, 0.0, complex(0, math.inf), 0.0], 0.3, 2.0),
        (np.eye(4)[0], True, 2.0), (np.eye(4)[0], "0.3", 2.0),
        (np.eye(4)[0], 0.3, True), (np.eye(4)[0], 0.3, "2.0"),
    ], ids=["tau=0", "tau=nan", "tau=-1", "tau=inf", "norm_factor=inf", "norm_factor=0",
            "norm_factor=nan", "nan_c1", "nan_c0", "inf_c2", "tau=True", "tau=str",
            "norm_factor=True", "norm_factor=str"])
    def test_rejects_bad_input(self, reduced, tau, norm_factor):
        # tau = 0 raised ZeroDivisionError, a NaN tau or entry returned NaN, tau < 0 was taken,
        # and an infinite norm_factor warned, then returned inf and NaN; a bool ran as 1 and a
        # str raised a bare TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                invert_theta(reduced, tau, norm_factor)

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
        est = _refine_gauss_newton(model, 0.05, reduced,
                                   invert_theta(reduced, 0.05, frame.norm_factor))
        assert np.linalg.norm(est - theta) <= 1e-3

    @pytest.mark.parametrize("kind,d,r", [("full", 3, 1)])
    def test_refine_gauss_newton_converges_quadratically(self, kind, d, r):
        # noiseless coefficients (any global phase): one exact Gauss-Newton
        # step from inc + eps u lands within O(eps^2) of the true increment
        model = make_model(kind, d)
        rng = np.random.default_rng(40 + r)
        theta = rng.standard_normal(model.m)
        theta /= np.linalg.norm(theta)
        star = theta + 0.2 * rng.standard_normal(model.m)
        v = _mes_probe(model, theta)(_Stage(1, 0.3 / r, r, 0), star)
        c = sym_frame_coefficients(v, model.generators, r)
        reduced = np.exp(0.7j) * c / np.linalg.norm(c)
        u = rng.standard_normal(model.m)
        u /= np.linalg.norm(u)
        errs = [np.linalg.norm(_refine_gauss_newton(model, 0.3 / r, reduced,
                                                    theta - star + eps * u)
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

    def test_worst_case_estimates_stay_in_search_ball(self, monkeypatch):
        # the phase golden's kappa = 2.5 stage overshoots E from near the boundary
        estimates = []

        run_plan = estimation._run_plan

        def recording(*args):
            rec = run_plan(*args)
            estimates.append(np.linalg.norm(rec.theta_hat))
            return rec

        monkeypatch.setattr(estimation, "_run_plan", recording)
        cfg = parse_config(GOLDEN / "one_channel_phase_failed_stage.cfg")
        _, summary = run_experiment(replace(cfg, worst_case_grid=True))
        assert max(estimates) <= cfg.e_radius * (1 + 1e-12), estimates
        assert sum(math.isclose(x, cfg.e_radius, rel_tol=1e-12) for x in estimates) >= 2
        assert summary["n_errors"] == 0 and len(estimates) == cfg.trials

    def test_failed_stage_is_recorded(self, monkeypatch):
        def unstable(*args, **kwargs):
            raise InversionUnstableError("|c_0| below the inversion threshold")

        monkeypatch.setattr(estimation, "invert_theta", unstable)
        theta = np.array([0.3, -0.2, 0.1])
        [stage] = plan = _plan("one_channel", FULL2, 0.1, 1.0, CONST)
        rec = run_one_channel(FULL2, theta, 0.1, 1.0, CONST, seed=3)
        assert runner._format_stages(rec.stages) == f"0:{stage.tau!r}:{stage.copies}:0.0:failed"
        assert rec.theta_hat == (0.0, 0.0, 0.0) and not rec.success
        assert rec.error == np.linalg.norm(theta)
        assert rec.total_time == sum(s.copies * s.r * s.tau for s in plan)

    def test_starvation_raises(self):
        with pytest.raises(PostselectionStarvedError):
            _stage_estimate(np.eye(4)[0], 0.001, 1000, np.random.default_rng(0))


class TestRunAdaptive:
    def test_degenerate_staging_depth(self):
        # the ceiling delta / E = 1/5 plans n0 = 3 stages; a delta / E above it plans none
        assert len(_plan("adaptive", FULL2, 0.2, 1.0, CONST)) == 3
        assert len(_plan("adaptive", FULL2, 0.1, 1.0, CONST)) == 4
        for delta in (0.6, 1.0):
            with pytest.raises(ValidationError, match=r"delta/E must lie in \(0, 1/5\]"):
                _plan("adaptive", FULL2, delta, 1.0, CONST)

    def test_stage_structure(self):
        delta, e_radius = 0.1, 1.0
        rec = run_adaptive(FULL2, [0.3, -0.2, 0.1], delta, e_radius, CONST, seed=8)
        n0 = math.ceil(math.log2(e_radius / delta))
        assert [s.n for s in rec.stages] == list(range(n0, 0, -1))
        for s in rec.stages:
            assert s.tau == pytest.approx(
                CONST.kappa / (2 ** s.n * delta * math.sqrt(FULL2.c)))
            assert s.copies == math.ceil(CONST.alpha * 3 * (1 + s.n))
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
        # within 2^(n-1) delta with frequency >= 1 - P_CRIT / 2^n
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
                copies = math.ceil(CONST.alpha * 3 * (1 + n))
                probe = evolve(FULL2, theta - theta_star,
                               Schedule(r=1, initial=mes(2), steps=((tau, None),)))
                reduced, p = frame_projection(frame, probe.amplitudes)
                estimate, _ = _stage_estimate(reduced, p, copies, rng)
                theta_star = theta_star + invert_theta(estimate, tau, frame.norm_factor)
                err = np.linalg.norm(theta_star - theta)
                if prior_ok:
                    counts[n][1] += 1
                    if err <= 2 ** (n - 1) * delta:
                        counts[n][0] += 1
                    else:
                        prior_ok = False
        for n, (hit, tot) in counts.items():
            assert tot > 0
            assert hit / tot >= 1 - P_CRIT / 2 ** n - 0.01, (n, hit, tot)

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
        const = SchemeConstants(trotter_slices=True)
        rec = run_adaptive(FULL2, [0.25, 0.1, -0.3], 0.1, 1.0, const, seed=9)
        assert rec.success

    @pytest.mark.parametrize("kind, d", [("full", 2), ("offdiag", 4)])
    def test_sliced_feedback_keeps_success_at_small_delta(self, kind, d):
        # tau_n grows like 1 / delta, and the planned slices keep s ||H_theta|| <= SLICE_PHASE,
        # so slicing on the unsliced run's trials loses no success as delta shrinks
        for delta in (0.1, 0.01, 0.001):
            rates = []
            for sliced in (False, True):
                cfg = ExperimentConfig(model_kind=kind, d=d, scheme="adaptive", delta=delta,
                                       e_radius=1.0, trials=100, master_seed=5,
                                       constants=SchemeConstants(trotter_slices=sliced))
                rates.append(run_experiment(cfg)[1]["success_rate"])
            unsliced, sliced = rates
            if unsliced >= 1 - P_CRIT:
                assert sliced >= 1 - P_CRIT, (delta, rates)
            assert sliced >= unsliced - 0.03, (delta, rates)

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


class TestFirstOrderStages:
    """The staged schemes invert each stage to first order; one_channel alone refines."""

    @staticmethod
    def exact_mean(psi, n_copies, rng):
        return (np.outer(psi, psi.conj()) + np.eye(psi.size)) / (psi.size + 1)

    @pytest.mark.parametrize("delta", [0.1, 0.025])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["full", "phase", "offdiag"])
    @pytest.mark.parametrize("driver", [run_adaptive, run_many_channel])
    def test_exact_mean_run_is_exact(self, driver, kind, d, delta, monkeypatch):
        # with the expected projector mean, each stage's O(kappa^2) bias is
        # measured away by the next, so no refinement step is needed
        monkeypatch.setattr(estimation, "_outcome_projector_mean", self.exact_mean)
        model = make_model(kind, d)
        rng = np.random.default_rng((27, d))
        for worst_case in (False, True, False, True):
            theta = runner._sample_theta(model.m, 1.0, worst_case, rng)
            rec = driver(model, theta, delta, 1.0, CONST, rng=rng)
            assert not any(s.failed for s in rec.stages)
            assert rec.error <= 1e-12 * delta, (worst_case, rec.error)

    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
    def test_exact_mean_sliced_adaptive_is_exact(self, delta, monkeypatch):
        # up to 500 slices a stage at delta = 0.001: the planned slices keep the stages exact
        monkeypatch.setattr(estimation, "_outcome_projector_mean", self.exact_mean)
        const = SchemeConstants(trotter_slices=True)
        rng = np.random.default_rng((28, round(-math.log10(delta))))
        for kind, d in [("full", 2), ("full", 3), ("offdiag", 4), ("phase", 4)]:
            model = make_model(kind, d)
            for worst_case in (False, True):
                theta = runner._sample_theta(model.m, 1.0, worst_case, rng)
                rec = run_adaptive(model, theta, delta, 1.0, const, rng=rng)
                assert rec.error <= 1e-12 * delta, (kind, d, worst_case, rec.error)

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"_refine_gauss_newton": 0, "hermitian_expm_derivatives": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(estimation, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(estimation, name, counted)
        return calls

    @pytest.mark.parametrize("const", [CONST, SchemeConstants(trotter_slices=True)],
                             ids=["default", "trotter_slices=true"])
    @pytest.mark.parametrize("driver", [run_adaptive, run_many_channel])
    def test_staged_run_never_refines(self, driver, const, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for kind, d in [("full", 2), ("offdiag", 3)]:
            model = make_model(kind, d)
            rec = driver(model, np.full(model.m, 0.1), 0.05, 1.0, const, seed=4)
            assert len(rec.stages) == 5
        assert calls == {"_refine_gauss_newton": 0, "hermitian_expm_derivatives": 0}

    def test_one_channel_refines_once_per_stage(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for seed in (4, 5):
            rec = run_one_channel(FULL2, [0.3, -0.2, 0.1], 0.1, 1.0, CONST, seed=seed)
            assert len(rec.stages) == 1 and not rec.stages[0].failed
        assert calls == {"_refine_gauss_newton": 2, "hermitian_expm_derivatives": 2}


DRIVERS = {"one_channel": run_one_channel, "adaptive": run_adaptive,
           "many_channel": run_many_channel}
# a non-default value of each scheme constant, and the stage attribute it changes in some plan:
# r_max = 4 binds at delta = 0.1, where many_channel's doubling reaches r = 16
CONSTANT_EFFECTS = {"kappa": (0.3, "tau"), "alpha": (10.0, "copies"), "r_max": (4, "r"),
                    "trotter_slices": (True, "slices")}


class TestPlan:
    @pytest.mark.parametrize("field", [f.name for f in fields(SchemeConstants)])
    def test_every_constant_changes_a_plan(self, field):
        # a constant that changes no plan is a knob that does nothing
        assert set(CONSTANT_EFFECTS) == {f.name for f in fields(SchemeConstants)}
        value, attr = CONSTANT_EFFECTS[field]
        changed = replace(CONST, **{field: value})
        plans = [(_plan(scheme, FULL2, 0.1, 1.0, CONST), _plan(scheme, FULL2, 0.1, 1.0, changed))
                 for scheme in DRIVERS]
        assert any([getattr(s, attr) for s in before] != [getattr(s, attr) for s in after]
                   for before, after in plans)

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
    @pytest.mark.parametrize("theta, delta, e_radius, message", [
        ([math.nan, 0, 0], 0.1, 1.0, "theta_true must be finite"),
        ([0, 0, 0], math.nan, 1.0, r"delta/E must lie in \(0, 1/5\] with E finite, got delta=nan"),
        ([0, 0, 0], 0.1, math.inf, r"delta/E must lie in \(0, 1/5\] with E finite, .*E=inf"),
    ], ids=["nan_theta", "nan_delta", "inf_E"])
    def test_rejects_non_finite_inputs(self, scheme, theta, delta, e_radius, message):
        with pytest.raises(ValidationError, match=message):
            DRIVERS[scheme](FULL2, theta, delta, e_radius, CONST)

    @pytest.mark.parametrize("scheme", DRIVERS)
    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 2.5, "rng": np.random.default_rng(0)}, "^seed must be"),
        ({"seed": -7, "rng": np.random.default_rng(0)}, "^seed must be"),
        ({"seed": -1}, "^seed must be"),
        ({"seed": 2 ** 64}, "^seed must be"),
        ({"seed": True}, "^seed must be"),
        ({"rng": 5}, "^rng must be"),
        ({"constants": None}, "^constants must be"),
    ], ids=["float_seed", "negative_seed_with_rng", "negative_seed", "seed=2^64", "bool_seed",
            "int_rng", "no_constants"])
    def test_rejects_malformed_library_input(self, scheme, kwargs, message):
        # a float or negative seed used to be recorded as int(seed), rng = 5 and
        # constants = None failed mid-run with an AttributeError
        with pytest.raises(ValidationError, match=message):
            DRIVERS[scheme](FULL2, [0.3, -0.2, 0.1], 0.1, 1.0, **kwargs)

    @pytest.mark.parametrize("scheme", DRIVERS)
    @pytest.mark.parametrize("delta, e_radius, const, bad", [
        (2e-321, 1e-320, CONST, "tau=inf"),                        # 0.5 / max_energy overflows
        (0.1, 1.0, SchemeConstants(alpha=1e300), r"copies=\d"),    # finite, but past int64
        (0.1, 1.0, SchemeConstants(alpha=1e308), "copies=inf"),
    ], ids=["subnormal_E", "alpha=1e300", "alpha=1e308"])
    def test_rejects_stage_that_cannot_run(self, scheme, delta, e_radius, const, bad):
        with pytest.raises(ValidationError, match=f"cannot run: .*{bad}"):
            _plan(scheme, FULL2, delta, e_radius, const)

    @pytest.mark.parametrize("delta, e_radius", [(1e199, 1e200), (1e-170, 1.0)],
                             ids=["E^2_overflows", "delta^2_underflows"])
    def test_one_channel_copy_arithmetic_reads_inf(self, delta, e_radius):
        # the copy count reads delta / E alone, so neither E^2 nor delta^2 is formed:
        # E = 1e200 plans the copies of delta / E and runs, delta = 1e-170 meets the floor
        if delta / e_radius < FLOOR:
            with pytest.raises(ValidationError, match=FLOOR_MESSAGE):
                _plan("one_channel", FULL2, delta, e_radius, CONST)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plan = _plan("one_channel", FULL2, delta, e_radius, CONST)
            rec = run_one_channel(FULL2, [0.3 * e_radius, -0.2 * e_radius, 0.0], delta,
                                  e_radius, CONST, seed=4)
        assert plan[0].copies == _plan("one_channel", FULL2, delta / e_radius, 1.0,
                                       CONST)[0].copies
        assert math.isfinite(rec.error) and [s.copies for s in rec.stages] == [plan[0].copies]

    @pytest.mark.parametrize("scheme", DRIVERS)
    def test_stage_search_radius(self, scheme):
        # E for the one-channel stage, 2^n delta for n = n0 .. 1 otherwise (n0 = 5 at E/delta = 20)
        plan = _plan(scheme, FULL2, 0.1, 2.0, CONST)
        want = [2.0] if scheme == "one_channel" else [2.0 ** n * 0.1 for n in range(5, 0, -1)]
        assert [s.radius for s in plan] == want
        assert _Stage(n=1, tau=0.5, r=1, copies=0).radius == math.inf

    @pytest.mark.parametrize("scheme", ["adaptive", "many_channel"])
    @pytest.mark.parametrize("delta, e_radius", [(1e-310, 1.0), (1e-308, 1.0),
                                                 (2.0 ** -1023, 1.0 + 2.0 ** -52)],
                             ids=["E/delta=inf", "E/delta=1e308", "just_past_2^1023"])
    def test_rejects_e_over_delta_past_2_to_1023(self, scheme, delta, e_radius):
        # E/delta past 2^1023 puts delta / E far below the floor, which is checked first
        with pytest.raises(ValidationError, match=FLOOR_MESSAGE):
            _plan(scheme, FULL2, delta, e_radius, CONST)

    def test_plans_e_over_delta_of_2_to_1023(self):
        # the floor's boundary: delta / E = 2^-40 plans n0 = 40 stages, the next float below
        # is rejected, at E = 1 and at E = 2^100 alike
        for scheme in ("adaptive", "many_channel"):
            for e_radius in (1.0, 2.0 ** 100):
                plan = _plan(scheme, FULL2, FLOOR * e_radius, e_radius, CONST)
                assert (len(plan), plan[0].n, plan[0].radius) == (40, 40, e_radius)
                with pytest.raises(ValidationError, match=FLOOR_MESSAGE):
                    _plan(scheme, FULL2, math.nextafter(FLOOR, 0.0) * e_radius, e_radius, CONST)

    @pytest.mark.parametrize("scheme", DRIVERS)
    def test_rejects_e_past_2_to_480(self, scheme):
        # in units of E, E = 1e301 and 2^481 plan and run with no warning, and 2^481
        # reproduces the E = 1 run bit for bit
        e = 2.0 ** 481
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for e_radius in (1e301, e, 2.0 ** 400, 2.0 ** 480):
                assert _plan(scheme, FULL2, e_radius / 10, e_radius, CONST)
            big = DRIVERS[scheme](FULL2, [0.3e301, -0.2e301, 0.1e301], 1e300, 1e301, CONST, seed=4)
            scaled = DRIVERS[scheme](FULL2, [0.3 * e, -0.2 * e, 0.1 * e], e / 10, e, CONST, seed=4)
        unit = DRIVERS[scheme](FULL2, [0.3, -0.2, 0.1], 0.1, 1.0, CONST, seed=4)
        assert math.isfinite(big.error) and big.success == unit.success
        assert (scaled.error / e, scaled.total_time * e, scaled.success) == (
            unit.error, unit.total_time, unit.success)

    @pytest.mark.parametrize("scheme", DRIVERS)
    def test_rejects_increment_bound_past_2_to_512(self, scheme):
        # the bound 20 sqrt(d c) / kappa holds no E: kappa = 1e-12 with theta = [2^479, 0, 0]
        # runs bit for bit as at E = 1, and kappa = 1e-160 breaks the bound at any E and is
        # rejected before any draw
        e = 2.0 ** 480
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            big = DRIVERS[scheme](FULL2, [2.0 ** 479, 0.0, 0.0], e / 10, e,
                                  SchemeConstants(kappa=1e-12), seed=5)
            unit = DRIVERS[scheme](FULL2, [0.5, 0.0, 0.0], 0.1, 1.0,
                                   SchemeConstants(kappa=1e-12), seed=5)
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            with pytest.raises(ValidationError, match=r"the increment bound 20 sqrt\(d c\) / "
                                                      r"kappa must be below 2\^512, got 3\.46"):
                DRIVERS[scheme](FULL2, [0.5, 0.0, 0.0], 0.1, 1.0,
                                SchemeConstants(kappa=1e-160), rng=rng)
        assert rng.bit_generator.state == state
        assert (big.error / e, big.total_time * e, big.success) == (
            unit.error, unit.total_time, unit.success)
        assert ([(s.tau * e, s.copies, s.accept_rate, s.failed) for s in big.stages]
                == [(s.tau, s.copies, s.accept_rate, s.failed) for s in unit.stages])

    @pytest.mark.parametrize("kind", ["full", "phase", "offdiag"])
    def test_slices_follow_closed_form(self, kind):
        # k_n = ceil(kappa E / (2^n delta SLICE_PHASE)) = ceil(tau_n max_energy(E) / SLICE_PHASE)
        # for sliced adaptive stages, the fewest with s ||H_theta|| <= SLICE_PHASE; 0 otherwise
        for d in (2, 3, 4):
            model = make_model(kind, d)
            for delta, e_radius in ((0.1, 1.0), (0.01, 1.0), (0.001, 1.0), (0.3, 2.0)):
                for scheme in DRIVERS:
                    for sliced in (False, True):
                        plan = _plan(scheme, model, delta, e_radius,
                                     SchemeConstants(trotter_slices=sliced))
                        if not (sliced and scheme == "adaptive"):
                            assert [s.slices for s in plan] == [0] * len(plan)
                            continue
                        for s in plan:
                            x = CONST.kappa * e_radius / (2.0 ** s.n * delta * SLICE_PHASE)
                            assert math.ceil(x * (1 - 1e-12)) <= s.slices <= math.ceil(
                                x * (1 + 1e-12)), (d, delta, s)
                            phase = s.tau * max_energy(model, e_radius)
                            assert (s.slices - 1) * SLICE_PHASE < phase <= s.slices * SLICE_PHASE
        plan = _plan("adaptive", FULL2, 0.001, 1.0, SchemeConstants(trotter_slices=True))
        assert [s.slices for s in plan] == [1, 2, 4, 8, 16, 32, 63, 125, 250, 500]

    def test_rejects_slices_past_2_to_63(self):
        # kappa = 1e300 keeps tau and T finite, but k_n reaches 2^63 before any draw
        const = SchemeConstants(kappa=1e300, trotter_slices=True)
        assert _plan("adaptive", FULL2, 0.1, 1.0, replace(const, trotter_slices=False))
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=r"stage 4 cannot run: .*slices=\d"):
            run_adaptive(FULL2, [0.3, -0.2, 0.1], 0.1, 1.0, const, rng=rng)
        assert rng.bit_generator.state == state

    def test_rejects_infinite_planned_time(self):
        # tau and T are physical: at E = 2^-1012 every stage's tau = kappa / max_energy(R)
        # is finite, but N r tau overflows for one_channel's many copies and many_channel's
        # r = 2^(n0-n) d; adaptive, with r = 1, stays finite
        e_radius = 2.0 ** -1012
        for scheme in ("one_channel", "many_channel"):
            with pytest.raises(ValidationError, match=r"planned T must be finite, got T=inf"):
                _plan(scheme, FULL2, e_radius / 10, e_radius, CONST)
        plan = _plan("adaptive", FULL2, e_radius / 10, e_radius, CONST)
        assert math.isfinite(sum(s.copies * s.r * s.tau for s in plan))

    @pytest.mark.parametrize("scheme", DRIVERS)
    @pytest.mark.parametrize("kind", ["full", "phase", "offdiag"])
    def test_capped_marks_stages_r_max_holds_back(self, scheme, kind):
        # the oracle: a stage is capped where lifting r_max raises its r
        flags = []
        for d in (2, 3, 4):
            model = make_model(kind, d)
            for delta in (0.2, 0.1, 0.05, 0.025, 1e-4):
                lifted = _plan(scheme, model, delta, 1.0, SchemeConstants(r_max=2 ** 62))
                for r_max in (None, 1, 3, 8):
                    plan = _plan(scheme, model, delta, 1.0, SchemeConstants(r_max=r_max))
                    assert ([s.capped for s in plan]
                            == [s.r < t.r for s, t in zip(plan, lifted)]), (d, delta, r_max)
                    flags += [s.capped for s in plan]
        # r_max = 1 caps every many-channel stage, and no other scheme entangles channels
        assert any(flags) == (scheme == "many_channel")


class TestUnitsOfE:
    """The problem is covariant under theta -> theta / E, delta -> delta / E, tau -> tau E.

    The drivers run in units of E, so at E = 4^k and a fixed delta / E every scaling is
    exact, and a run must reproduce the E = 1 run bit for bit.
    """

    @staticmethod
    def scaled_run(scheme, model, e_radius, index):
        seed = runner.trial_seed(11, index)
        rng = runner.trial_rng(seed)
        theta = runner._sample_theta(model.m, e_radius, False, rng)
        rec = DRIVERS[scheme](model, theta, 0.1 * e_radius, e_radius, CONST, rng=rng, seed=seed)
        return (rec.error / e_radius, rec.total_time * e_radius, rec.success,
                [(s.n, s.tau * e_radius, s.copies, s.accept_rate, s.failed)
                 for s in rec.stages])

    @pytest.mark.parametrize("kind", ["full", "offdiag"])
    @pytest.mark.parametrize("scheme", DRIVERS)
    def test_runs_at_e_of_4_to_k_match_e_of_1(self, scheme, kind):
        model = make_model(kind, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for index in range(3):
                unit = self.scaled_run(scheme, model, 1.0, index)
                for k in (-250, -100, -10, 10, 100, 250):
                    assert self.scaled_run(scheme, model, 4.0 ** k, index) == unit, (index, k)



class TestRunnerEntry:
    """The runner hands its block's plan and its sampled theta straight to the stage loop.

    So a ``run_experiment`` row must equal the public driver's record for the same theta and
    generator, and every theta the runner samples must pass the drivers' input check.
    """

    @pytest.mark.parametrize("worst_case", [False, True], ids=["uniform", "worst_case"])
    @pytest.mark.parametrize("kind, d", [("full", 2), ("offdiag", 3)])
    @pytest.mark.parametrize("scheme", DRIVERS)
    def test_row_matches_driver_record(self, scheme, kind, d, worst_case):
        cfg = ExperimentConfig(model_kind=kind, d=d, scheme=scheme, delta=0.3, e_radius=2.0,
                               trials=3, master_seed=23, worst_case_grid=worst_case)
        model = make_model(kind, d)
        rows, _ = run_experiment(cfg)
        for row in rows:
            rng = runner.trial_rng(row["seed"])
            theta = runner._sample_theta(model.m, cfg.e_radius, worst_case, rng)
            rec = DRIVERS[scheme](model, theta, cfg.delta, cfg.e_radius, cfg.constants,
                                  rng=rng, seed=row["seed"])
            assert row["error"] is None
            assert ((row["theta_err"], row["total_time"], row["success"], row["stages"])
                    == (rec.error, rec.total_time, rec.success,
                        runner._format_stages(rec.stages))), row["trial"]

    @pytest.mark.parametrize("kind, d", [("phase", 2), ("full", 2), ("full", 3), ("full", 4)],
                             ids=["m=1", "m=3", "m=8", "m=15"])
    def test_sampled_theta_passes_input_check(self, kind, d):
        model, rng = make_model(kind, d), np.random.default_rng(d)
        for e_radius in (4.0 ** -100, 1.0, 4.0 ** 100):
            for worst_case in (False, True):
                for _ in range(1000):
                    theta = runner._sample_theta(model.m, e_radius, worst_case, rng)
                    _check_run_inputs(model, theta, e_radius, rng, 0)


class TestRecord:
    def test_success_definition(self):
        rec = EstimationRecord.build([0.0], [0.05], [], 1.0, delta=0.1, seed=1)
        assert rec.success and rec.error == pytest.approx(0.05)
        rec2 = EstimationRecord.build([0.0], [0.2], [], 1.0, delta=0.1, seed=1)
        assert not rec2.success
