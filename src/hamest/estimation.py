"""End-to-end estimation procedures.

Estimating theta from an entangled probe proceeds in four steps: project the
evolved probe onto the (m+1)-dimensional frame spanned by the unperturbed
probe and its first-order responses (a postselection), reconstruct the
projected state by single-copy random-basis tomography, invert the frame
coefficients to a parameter estimate, and (for the staged schemes) feed the
estimate back and halve the search radius.  The staged schemes invert to first
order: each stage only has to land inside the radius the next stage searches,
and the next stage measures the earlier bias away.  one_channel has no later
stage, so its single stage adds one Gauss-Newton step (:func:`_refine_gauss_newton`).

Three drivers are provided: :func:`run_one_channel` (fixed radius, classical
T ~ 1/delta^2 scaling), :func:`run_adaptive` (feedback staging, T ~ 1/delta),
and :func:`run_many_channel` (entangled channels in the symmetric subspace,
measurement-side counter-rotation, no feedback during evolution).  Each
driver checks its inputs and takes its stages from :func:`_plan`.  One stage
loop, :func:`_run_plan`, runs every scheme's plan in units of E; the runner
hands it each block's plan directly.  The scheme picks its probe, a d x d stage
unitary V whose collective MES Sym^r(V) is measured (the MES is r = 1), and the
stage body takes its frame coefficients from :func:`sym_frame_coefficients`.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, SLICE_PHASE, TOL, SchemeConstants, is_int, is_real
from .errors import (DegenerateProjectionError, InversionUnstableError,
                     PostselectionStarvedError, ValidationError)
from .linalg import hermitian_expm, hermitian_expm_derivatives
from .model import HamiltonianModel, hamiltonian, max_energy
from .symmetric import f2_coeff, sym_frame_coefficients, sym_frame_tangents

__all__ = [
    "EstimationRecord",
    "StageRecord",
    "reconstruct_from_projector_mean",
    "invert_theta",
    "run_one_channel",
    "run_adaptive",
    "run_many_channel",
]

# A chunk holds at most 8192 copies and 2^17 normals, so that its draws stay in a
# core's L2 cache while two chunks are in flight.
_TOMOGRAPHY_CHUNK = 1 << 13
_CHUNK_NORMALS = 1 << 17


def _aligned_basis(psi: np.ndarray) -> np.ndarray:
    """Unitary B whose first column is psi: one Householder reflector, smooth in psi."""
    return np.linalg.qr(psi[:, None], mode="complete")[0]


def _aligned_outcomes(dim: int, n: int, rng: np.random.Generator):
    """n Haar-measured outcome vectors in a basis whose first vector is the measured state.

    Returned as (x0, w), the real first coordinates >= 0 and an (n, 2 dim - 2)
    real view of the others, real and imaginary parts side by side; each row
    (x0, w) is a unit vector.  Picking a Haar basis and clicking outcome k
    with probability |<b_k|psi>|^2 gives an outcome vector o with density
    D |<o|psi>|^2 on the sphere.  In the aligned basis, o = x / |x|: x_1 ..
    x_{D-1} are iid complex Gaussians, and x_0 has their density times
    |x_0|^2, so |x_0|^2 ~ chi^2_4 = 2 (E_1 + E_2) for two standard
    exponentials; o o^dag does not see the phase of o, so x_0 is real.  Then
    |<o|psi>|^2 ~ Beta(2, D-1).  Draws: one (n, 2 dim - 2) normal block, then
    one (n, 2) exponential block.
    """
    w = rng.standard_normal((n, 2 * dim - 2))        # x_1 .. x_{D-1}
    e = rng.standard_exponential((n, 2))
    x0 = 2.0 * (e[:, 0] + e[:, 1])                   # |x_0|^2
    inv = 1.0 / np.sqrt(x0 + np.einsum("ij,ij->i", w, w))
    w *= inv[:, None]
    return np.sqrt(x0) * inv, w


def _outcome_chunks(dim: int, n: int, rng: np.random.Generator):
    """The chunk plan of n outcomes: (copies, generator) per chunk, in chunk order.

    Chunks hold min(8192, 2^17 // (2 dim - 2)) copies, the last one fewer.
    Chunk 0 draws from ``rng`` itself; chunks 1 .. k-1 draw from SFC64
    generators, whatever ``rng``'s bit-generator class, keyed by k - 1 uint64
    integers that ``rng`` draws first.  SFC64 is the fastest of numpy's bit
    generators and the class of the runner's trial streams.  So every chunk's
    draws are fixed before any chunk is drawn, and a one-chunk plan touches
    only ``rng``'s normal and exponential draws.
    """
    size = min(_TOMOGRAPHY_CHUNK, _CHUNK_NORMALS // max(1, 2 * dim - 2))
    sizes = [min(size, n - done) for done in range(0, n, size)]
    if len(sizes) <= 1:
        return [(k, rng) for k in sizes]
    keys = rng.integers(1 << 64, size=len(sizes) - 1, dtype=np.uint64)
    return [(sizes[0], rng)] + [(k, np.random.Generator(np.random.SFC64(int(key))))
                                for k, key in zip(sizes[1:], keys)]


def reconstruct_from_projector_mean(mean_projector: np.ndarray) -> np.ndarray:
    """Linear inversion: rho_hat = (D+1) * mean outcome projector - I.

    Returns the top eigenvector of the Hermitian part, the pure-state
    estimate.  Unbiased because a Haar-measured copy of rho has expected
    outcome projector (rho + I) / (D + 1).
    """
    mp = np.asarray(mean_projector)
    dim = mp.shape[0]
    rho = (dim + 1) * mp - np.eye(dim)
    rho = 0.5 * (rho + rho.conj().T)
    _, vecs = np.linalg.eigh(rho)
    return vecs[:, -1]


def _chunk_gram(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Real 2 dim x 2 dim Gram of n aligned rows (x_0, 0, w), upper block row only."""
    x0, w = _aligned_outcomes(dim, n, rng)
    gram = np.zeros((2 * dim, 2 * dim))
    gram[2:, 2:] = w.T @ w
    gram[0, 2:] = x0 @ w
    gram[0, 0] = x0 @ x0
    return gram


def _lane_grams(dim: int, chunks) -> list:
    """The chunks' Grams in chunk order; this thread folds the even chunks, a helper the odd.

    A one-chunk list starts no thread.  The helper is a daemon joined before this
    returns or raises; a lane's exception reaches the caller as itself.
    """
    grams, raised = [None] * len(chunks), []

    def lane(j):
        try:
            for i in range(j, len(chunks), 2):
                grams[i] = _chunk_gram(dim, *chunks[i])
        except BaseException as exc:
            raised.append(exc)

    # daemon: an interrupt that lands in the join below must not hold up interpreter exit
    helpers = [threading.Thread(target=lane, args=(1,), daemon=True)] if len(chunks) > 1 else []
    for thread in helpers:
        thread.start()
    try:
        lane(0)
    finally:
        for thread in helpers:
            thread.join()
    if raised:
        raise raised[0]
    return grams


def _outcome_projector_mean(psi: np.ndarray, n_copies: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Mean outcome projector of n_copies Haar-measured copies of psi.

    Each chunk of :func:`_outcome_chunks` is folded into its own real Gram
    of the aligned rows, and the Grams are summed in chunk order, so the
    result depends on (rng state, n_copies, dim) alone, not on the thread
    count; chunk 0 draws from ``rng`` and every later chunk from an SFC64
    stream that ``rng`` keys.  :func:`_lane_grams` folds a stage of two or
    more chunks on two lanes, whatever the CPU count, and a one-chunk stage on
    this thread.  The sum is folded once into the complex sum S of o o^dag;
    the mean is B S B^dag / n.
    """
    dim = psi.size
    gram = sum(_lane_grams(dim, _outcome_chunks(dim, n_copies, rng)),
               np.zeros((2 * dim, 2 * dim)))
    gram[2:, 0] = gram[0, 2:]
    s = gram[0::2, 0::2] + gram[1::2, 1::2] + 1j * (gram[1::2, 0::2] - gram[0::2, 1::2])
    basis = _aligned_basis(psi)
    return basis @ s @ basis.conj().T / n_copies


def _refine_gauss_newton(model: HamiltonianModel, tau: float, reduced: np.ndarray,
                         theta0: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step fitting the MES frame coefficients of exp(-i tau H_theta) to reduced.

    reduced's global phase is fixed as :func:`invert_theta` fixes it.  With c, dc from
    :func:`sym_frame_tangents` of V = exp(-i tau H_theta0) and its Frechet derivative,
    the model is f = c / |c| with Jacobian df = dc / |c| - f Re(f^dag dc) / |c|, and the
    step is the least-squares fit of df to reduced - f at the phase that aligns the two.
    """
    target = reduced * (reduced[0].conj() / abs(reduced[0]))
    ops = model.generators
    c, dc = sym_frame_tangents(*hermitian_expm_derivatives(hamiltonian(model, theta0), tau, ops),
                               ops)
    norm = np.linalg.norm(c)
    f = c / norm
    jac = (dc - np.outer(f, np.real(f.conj() @ dc))) / norm
    phase = np.vdot(target, f)
    if abs(phase) < 1e-12:
        return theta0
    phi = phase.conj() / abs(phase)
    a = np.concatenate([np.real(phi * jac), np.imag(phi * jac)])
    b = np.concatenate([np.real(target - phi * f), np.imag(target - phi * f)])
    step, *_ = np.linalg.lstsq(a, b, rcond=None)
    return theta0 + step


def invert_theta(reduced, tau: float, norm_factor: float) -> np.ndarray:
    """First-order inversion of frame coefficients (c_0, c_1 .. c_m) to parameters.

    ``norm_factor`` is 1/sqrt(F2(d, r)) of the probe's frame, sqrt(d) for a
    single channel.  After fixing the phase of c_0 to be real positive,
    theta_j = -(norm_factor / tau) Im(c_j / c_0), exact to first order in
    tau * ||theta||.  tau and norm_factor must be finite and > 0, reduced finite.
    """
    if not all(is_real(x) and 0 < x < math.inf for x in (tau, norm_factor)):
        raise ValidationError(f"invert_theta needs finite tau > 0 and norm_factor > 0, "
                              f"got tau={tau!r}, norm_factor={norm_factor!r}")
    c = np.asarray(reduced, dtype=complex).reshape(-1)
    if c.size < 2:
        raise ValidationError(f"reduced state has dimension {c.size}; "
                              "need c_0 and at least one c_j")
    if not np.isfinite(c).all():
        raise ValidationError("reduced state must have finite entries")
    c0 = c[0]
    if abs(c0) < TOL.min_c0:
        raise InversionUnstableError(
            f"|c_0| = {abs(c0):.3f} < {TOL.min_c0}; inversion unstable, reduce tau")
    c = c * (c0.conj() / abs(c0))
    return -(norm_factor / tau) * np.imag(c[1:] / c[0].real)


@dataclass(frozen=True)
class StageRecord:
    n: int
    tau: float
    copies: int
    accept_rate: float
    failed: bool = False


@dataclass(frozen=True)
class EstimationRecord:
    """Outcome of one estimation run, in theta_true's units although the stages ran in E's."""

    theta_true: tuple[float, ...]
    theta_hat: tuple[float, ...]
    error: float
    stages: tuple[StageRecord, ...]
    total_time: float
    success: bool
    delta: float
    seed: int

    @staticmethod
    def build(theta_true, theta_hat, stages, total_time, delta, seed, e_radius=1.0):
        """The record of theta_hat; error and success are taken in units of e_radius."""
        err = float(np.linalg.norm((np.asarray(theta_hat) - np.asarray(theta_true)) / e_radius))
        return EstimationRecord(
            theta_true=tuple(float(x) for x in theta_true),
            theta_hat=tuple(float(x) for x in theta_hat),
            error=err * e_radius,
            stages=tuple(stages),
            total_time=float(total_time),
            success=bool(err <= delta / e_radius),
            delta=float(delta),
            seed=int(seed),
        )


def _check_run_inputs(model, theta_true, e_radius, rng, seed):
    """Validated theta_true as a flat array, and the run's generator; ||theta / E|| <= 1.

    seed is an int in [0, 2^64) as ``ExperimentConfig.master_seed``, rng None or a Generator.
    """
    if not (is_int(seed) and 0 <= seed < 2 ** 64):
        raise ValidationError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    if not (rng is None or isinstance(rng, np.random.Generator)):
        raise ValidationError(f"rng must be None or a numpy Generator, got {rng!r}")
    theta_true = np.asarray(theta_true, dtype=float).reshape(-1)
    if theta_true.size != model.m:
        raise ValidationError(f"theta_true has length {theta_true.size}, m = {model.m}")
    if not np.linalg.norm(theta_true / e_radius) <= 1 + 1e-12:    # NaN and inf fail too
        raise ValidationError("theta_true must be finite and lie in the search radius")
    return theta_true, np.random.default_rng(seed) if rng is None else rng


def _stage_estimate(reduced_exact, p, copies, rng: np.random.Generator):
    """Postselect `copies` prepared copies and reconstruct; returns (state, accept rate)."""
    n_accepted = int(rng.binomial(copies, p))
    rate = n_accepted / copies if copies else 0.0
    if rate < TOL.starvation_rate or n_accepted < reduced_exact.size:
        raise PostselectionStarvedError(
            f"postselection starved: accepted {n_accepted} of {copies}")
    mean = _outcome_projector_mean(reduced_exact, n_accepted, rng)
    return reconstruct_from_projector_mean(mean), rate


# r: channels; radius: the search ball; capped: r_max holds r < 2^(n0-n) d; slices: 0 = exact
_Stage = namedtuple("_Stage", "n tau r copies radius capped slices", defaults=(math.inf, False, 0))
SCHEMES = ("one_channel", "adaptive", "many_channel")    # the schemes _plan dispatches on


def _admit(scheme: str, delta: float, e_radius: float) -> None:
    """The run domain, one message per rule; :func:`_plan` and ``ExperimentConfig`` admit here.

    scheme in SCHEMES; delta, E finite real numbers, not bools, E > 0; 2^-40 <= delta / E
    <= 1/5 (1e-12 slack on 1/5, a fixed domain choice of the initial commit).  The floor is
    2^12 ulp(1): in units of E, theta lies in the unit ball and theta*, a sum of increments
    clipped to the radii, below 4, so a float grid of spacing <= 2^-51 moves the error by at
    most sqrt(m) 2^-11 delta; near ulp(1) (delta = 1e-17 at E = 1) theta* snaps to the float
    nearest theta: vacuous success.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; valid schemes: {', '.join(SCHEMES)}")
    if not (is_real(delta) and is_real(e_radius) and 0 < delta <= e_radius / 5 * (1 + 1e-12)
            < math.inf):
        raise ValidationError(f"delta/E must lie in (0, 1/5] with E finite, "
                              f"got delta={delta}, E={e_radius}")
    if not delta / e_radius >= 2.0 ** -40:
        raise ValidationError(f"delta/E must be at least 2^-40, got delta/E={delta / e_radius!r}")


def _total_time(plan) -> float:
    """The time resource T = sum N r tau of a plan, rejected copies and failed stages included."""
    return sum(s.copies * s.r * s.tau for s in plan)


def _plan(scheme: str, model: HamiltonianModel, delta: float, e_radius: float,
          constants: SchemeConstants) -> list[_Stage]:
    """The stages of a scheme in run order; they fix T = sum N r tau before any draw.

    A stage searching radius R (its ``radius``) evolves for tau = kappa / max_energy(R),
    so tau ||H_theta|| <= kappa on that ball.  one_channel: one stage n = 0, R = E,
    r = 1, N = ceil(alpha m d / (delta / E)^2) copies to resolve the tomography
    noise at scale delta.  Staged: n = n0 .. 1, n0 = ceil(log2(E / delta)) >= 3,
    N_n = ceil(alpha m (1 + n)); the (1 + n) is meant to cover a per-stage failure
    budget ``constants.P_CRIT`` / 2^n, but N_n does not read P_CRIT yet (ROADMAP item 1).
    adaptive: r = 1 and R = 2^n delta, so tau grows as the radius shrinks; ``trotter_slices``
    gives stage n k_n = ceil(tau_n max_energy(E) / SLICE_PHASE) feedback slices, at any delta.
    many_channel: R = 2^n delta too, but every stage keeps the tau of 2^n0 delta and entangles
    r_n = min(2^(n0-n) d, r_max) channels instead; a stage is capped where r_n < 2^(n0-n) d.

    First, :func:`_admit` rejects a (scheme, delta, E) outside the domain it states.  Each
    stage then needs a finite tau > 0, N < 2^63 (an N past the float range counts as inf) and
    k_n < 2^63, and the plan a finite T (tau and T are physical).  Last, no norm a trial takes
    may overflow.  The longest vector is a stage's unclipped increment (norm_factor / tau E)
    Im(c_j / c_0) in units of E: |c_0| >= TOL.min_c0 = 0.1 and |c| = 1 bound Im(c / c_0) by
    10, norm_factor <= sqrt(d), and 1 / (tau E) = sqrt(c) (R / E) / kappa with R < 2E.  So it
    is at most 20 sqrt(d c) / kappa, whose square stays finite while that is below 2^512.
    """
    _admit(scheme, delta, e_radius)
    if not isinstance(constants, SchemeConstants):
        raise ValidationError(f"constants must be a SchemeConstants, got {constants!r}")
    r_max = constants.effective_r_max(model.d)
    sliced = scheme == "adaptive" and constants.trotter_slices

    def stage(n, radius, tau_radius, doubling, copies):
        tau = constants.kappa / max_energy(model, tau_radius)
        slices = tau * max_energy(model, e_radius) / SLICE_PHASE if sliced else 0
        if not (0 < tau < math.inf and copies < 2 ** 63 and slices < 2 ** 63):
            raise ValidationError(f"stage {n} cannot run: need 0 < tau < inf and fewer than "
                                  f"2^63 copies and slices, got tau={tau!r}, "
                                  f"copies={copies!r}, slices={slices!r}")
        return _Stage(n, tau, min(doubling, r_max), math.ceil(copies), radius, r_max < doubling,
                      math.ceil(slices))

    if scheme == "one_channel":
        plan = [stage(0, e_radius, e_radius, 1,
                      constants.alpha * model.m * model.d / (delta / e_radius) ** 2)]
    else:
        many = scheme == "many_channel"
        n0 = math.ceil(math.log2(e_radius / delta))
        plan = [stage(n, 2.0 ** n * delta, 2.0 ** (n0 if many else n) * delta,
                      2 ** (n0 - n) * model.d if many else 1,
                      constants.alpha * model.m * (1.0 + n))
                for n in range(n0, 0, -1)]
    if not _total_time(plan) < math.inf:
        raise ValidationError(f"the planned T must be finite, got T={_total_time(plan)!r}")
    increment = 20 * math.sqrt(model.d * model.c) / constants.kappa
    if not increment < 2.0 ** 512:
        raise ValidationError(f"the increment bound 20 sqrt(d c) / kappa must be below 2^512, "
                              f"got {increment!r} (kappa={constants.kappa!r})")
    return plan


def _mes_probe(model: HamiltonianModel, theta_true: np.ndarray):
    """(stage, theta*) -> V_true of the MES (r = 1), V = exp(-i tau H_{theta - theta*}).

    A stage the plan slices, k = stage.slices > 0, has V_true = half (U_s full)^(k-1) U_s half,
    s = tau / k, half = exp(+i (s/2) H*), full = half^2, U_s = exp(-i s H_theta): feedback
    kicks between slices; ``constants.SLICE_PHASE`` bounds the first-order response.
    """
    def probe(stage: _Stage, theta_star: np.ndarray):
        if stage.slices == 0:
            return hermitian_expm(hamiltonian(model, theta_true - theta_star), stage.tau)
        s = stage.tau / stage.slices
        half = hermitian_expm(hamiltonian(model, theta_star), -0.5 * s)
        u_s = hermitian_expm(hamiltonian(model, theta_true), s)
        steps = np.linalg.matrix_power(u_s @ half @ half, stage.slices - 1)
        return half @ steps @ u_s @ half

    return probe


def _symmetric_probe(model: HamiltonianModel, theta_true: np.ndarray):
    """(stage, theta*) -> V_true of the collective MES, V = exp(+i tau H*) exp(-i tau H_theta).

    Sym^r(V) is exp(+i tau {H_theta*}_r) exp(-i tau {H_theta}_r).  exp(-i tau H_theta)
    is computed once per tau, which all stages share.
    """
    @functools.cache
    def truth(tau):
        return hermitian_expm(hamiltonian(model, theta_true), tau)

    def probe(stage: _Stage, theta_star: np.ndarray):
        return hermitian_expm(hamiltonian(model, theta_star), -stage.tau) @ truth(stage.tau)

    return probe


def _run_stage(model, stage: _Stage, probe, theta_star, rng):
    """Stage unitary -> frame coefficients -> estimate; returns (increment, accept rate).

    Every stage inverts to first order.  The n = 0 stage, which :func:`_plan` gives to
    one_channel alone, has no later stage to measure its O(kappa^2) bias away, so it adds
    the Gauss-Newton step of :func:`_refine_gauss_newton`, which models the unsliced MES probe.
    """
    c = sym_frame_coefficients(probe(stage, theta_star), model.generators, stage.r)
    p = float(np.real(np.vdot(c, c)))          # the postselection probability
    if p < TOL.min_postselect_p:
        raise DegenerateProjectionError(f"projection probability {p:.3e} is degenerate")
    reduced, rate = _stage_estimate(c / math.sqrt(p), min(p, 1.0), stage.copies, rng)
    increment = invert_theta(reduced, stage.tau, 1.0 / math.sqrt(f2_coeff(model.d, stage.r)))
    if stage.n == 0:
        increment = _refine_gauss_newton(model, stage.tau, reduced, increment)
    return increment, rate


def _run_plan(scheme, plan, model, theta_true, delta, e_radius, rng, seed):
    """Run the scheme's ``plan`` on a checked theta_true in units of E, on the scheme's probe.

    A stage sees theta / E, tau E and its search radius / E, so every norm a trial takes is
    O(1) for any E.  A failed stage is recorded and skipped.  An increment longer than the
    stage's search radius is projected onto that ball, so that no stage throws theta* out
    of the region the later stages search; one_channel's estimate stays in the E-ball.
    """
    theta = theta_true / e_radius
    probe = (_symmetric_probe if scheme == "many_channel" else _mes_probe)(model, theta)
    theta_star, records = np.zeros(theta_true.size), []
    for stage in plan:
        unit = stage._replace(tau=stage.tau * e_radius, radius=stage.radius / e_radius)
        try:
            increment, rate = _run_stage(model, unit, probe, theta_star, rng)
            norm = np.linalg.norm(increment)
            if norm > unit.radius:
                increment = increment * (unit.radius / norm)
            theta_star, failed = theta_star + increment, False
        except (DegenerateProjectionError, PostselectionStarvedError,
                InversionUnstableError):
            rate, failed = 0.0, True
        records.append(StageRecord(stage.n, stage.tau, stage.copies, rate, failed))
    return EstimationRecord.build(theta_true, theta_star * e_radius, records,
                                  total_time=_total_time(plan), delta=delta, seed=seed,
                                  e_radius=e_radius)


def _run_checked(scheme, model, theta_true, delta, e_radius, constants, rng, seed):
    """The drivers' entry: plan the scheme (admitting delta and E), check theta, run."""
    plan = _plan(scheme, model, delta, e_radius, constants)
    theta_true, rng = _check_run_inputs(model, theta_true, e_radius, rng, seed)
    return _run_plan(scheme, plan, model, theta_true, delta, e_radius, rng, seed)


def run_one_channel(model: HamiltonianModel, theta_true, delta: float,
                    e_radius: float, constants: SchemeConstants = DEFAULT_CONSTANTS,
                    rng: np.random.Generator | None = None,
                    seed: int = 0) -> EstimationRecord:
    """Single-radius estimation: one MES stage, fixed tau, N ~ (E / delta)^2 copies.

    No feedback, so T = N tau ~ 1 / delta^2.  The first-order estimate always gets one
    Gauss-Newton step, since no later stage measures its O(kappa^2) bias away.  The
    estimate is projected onto the ball of radius E, and a failed stage is recorded, not
    raised: theta_hat = 0.  Inputs outside :func:`_admit`'s domain raise before any draw.
    """
    return _run_checked("one_channel", model, theta_true, delta, e_radius, constants, rng, seed)


def run_adaptive(model: HamiltonianModel, theta_true, delta: float,
                 e_radius: float, constants: SchemeConstants = DEFAULT_CONSTANTS,
                 rng: np.random.Generator | None = None,
                 seed: int = 0) -> EstimationRecord:
    """Feedback-staged estimation: halve the search radius each stage.

    Stage n drives the MES with the simulated external field -H_theta*, so the
    driven Hamiltonian is H_{theta-theta*} (kicks between planned slices if ``trotter_slices``
    is on).  Stage failures are recorded, not raised; inputs outside :func:`_admit`'s domain raise.
    """
    return _run_checked("adaptive", model, theta_true, delta, e_radius, constants, rng, seed)


def run_many_channel(model: HamiltonianModel, theta_true, delta: float,
                     e_radius: float, constants: SchemeConstants = DEFAULT_CONSTANTS,
                     rng: np.random.Generator | None = None,
                     seed: int = 0) -> EstimationRecord:
    """Entanglement-staged estimation without feedback during evolution.

    Stage n entangles r_n channels through the symmetric subspace, and the preceding
    estimate enters only as the measurement-side counter-rotation exp(+i tau {H_theta*}_r).
    Stage failures are recorded, not raised; inputs outside :func:`_admit`'s domain raise.
    """
    return _run_checked("many_channel", model, theta_true, delta, e_radius, constants, rng, seed)
