"""Probe preparation, feedback-schedule evolution, and Fisher information.

A :class:`Schedule` alternates free evolution under the unknown Hamiltonian
(acting identically on each of r driven channels) with arbitrary
parameter-independent feedback unitaries on the total space.  The quantum
Fisher information of the evolved probe is computed exactly: m tangent
vectors are pushed forward through the schedule with the state, each
evolution step contributing the Frechet derivative of exp(-i t H_theta) slot
by slot.  :func:`growth_audit` checks the square-root growth law
Tr J(t) <= 4 c t_eff^2 on a time grid.

For r > 1 the information-bearing time is the one-channel equivalent
t_eff = r * t (an r-channel interval of length t can be reproduced by one
channel running for r t with channel-permuting feedback), and the
correlation matrix G uses the collective generators sum_slots X_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TOL, is_int, is_real
from .errors import AuditFailure, ValidationError
from .linalg import (PureState, assert_unitary, hermitian_expm,
                     hermitian_expm_derivatives)
from .model import HamiltonianModel, hamiltonian

__all__ = [
    "Schedule",
    "QfiReport",
    "mes",
    "evolve",
    "qfi_matrix",
    "growth_audit",
]


@dataclass(frozen=True, eq=False)
class Schedule:
    """Alternating evolution intervals and optional feedback unitaries.

    Each step applies its feedback unitary (if any) to the total space and
    then evolves the r driven factors for ``interval`` under the model
    Hamiltonian, so steps ``[(t0, None), (t1, V1), ..., (tn, Vn)]`` compose to
    ``U(tn) Vn ... U(t1) V1 U(t0)``.  ``r`` is an int >= 1 (not a bool) and each
    interval a finite number >= 0.
    """

    r: int
    initial: PureState
    steps: tuple[tuple[float, np.ndarray | None], ...]

    def __post_init__(self):
        if not (is_int(self.r) and 1 <= self.r <= len(self.initial.factors)):
            raise ValidationError(f"channel count must be an int in [1, number of factors], "
                                  f"got {self.r!r} for factors {self.initial.factors}")
        driven = set(self.initial.factors[:self.r])
        if len(driven) != 1:
            raise ValidationError("driven factors must share one dimension")
        steps = []
        for interval, v in self.steps:
            if not (is_real(interval) and 0 <= interval < math.inf):
                raise ValidationError(f"interval must be a finite number >= 0, got {interval!r}")
            if v is not None:
                v = assert_unitary(v, name="feedback unitary")
                if v.shape[0] != self.initial.dim:
                    raise ValidationError("feedback unitary does not act on the total space")
            steps.append((float(interval), v))
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def driven_dim(self) -> int:
        return self.initial.factors[0]

    @property
    def total_time(self) -> float:
        return sum(t for t, _ in self.steps)


def mes(d: int) -> PureState:
    """Maximally entangled state d^{-1/2} sum_j |e_j> (x) |e_j> on two d-dim factors."""
    if not (is_int(d) and d >= 2):
        raise ValidationError(f"MES requires an int d >= 2, got {d!r}")
    amps = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    return PureState(factors=(d, d), amplitudes=amps)


def _apply_to_slot(op: np.ndarray, tensor: np.ndarray, slot: int) -> np.ndarray:
    """op applied to axis ``slot`` of tensor; a stack of ops keeps its axis in front."""
    lead = op.ndim - 2
    return np.moveaxis(np.tensordot(op, tensor, axes=([-1], [slot])), lead, lead + slot)


def _check_schedule(model: HamiltonianModel, schedule: Schedule):
    if schedule.driven_dim != model.d:
        raise ValidationError(f"schedule drives dimension {schedule.driven_dim}, "
                              f"model has d = {model.d}")


def _propagate(model: HamiltonianModel, theta, schedule: Schedule, tangents: bool):
    """Evolved amplitudes and, if asked, their (m, dim) derivatives in theta.

    A feedback step maps psi -> V psi and each tangent dpsi_k -> V dpsi_k.
    An evolution step applies U = exp(-i t H_theta) slot by slot; at each slot
    the product rule gives dpsi_k -> U dpsi_k + dU_k psi, where dU_k is the
    Frechet derivative along X_k, so a tangent ends as U^(x)r dpsi_k +
    sum_slots (dU_k in that slot) psi.  theta is checked here, where every evolution
    starts, rather than in ``hamiltonian``, which every estimation stage calls.
    """
    _check_schedule(model, schedule)
    if not np.all(np.isfinite(np.asarray(theta, dtype=float))):
        raise ValidationError(f"theta must be finite, got {theta!r}")
    h = hamiltonian(model, theta)
    shape = schedule.initial.factors
    psi = schedule.initial.amplitudes.reshape(shape)
    dpsi = np.zeros((model.m,) + shape, dtype=complex) if tangents else None
    ops = model.generators
    for interval, v in schedule.steps:
        if v is not None:
            psi = (v @ psi.reshape(-1)).reshape(shape)
            if tangents:
                dpsi = (dpsi.reshape(model.m, -1) @ v.T).reshape(dpsi.shape)
        if interval > 0.0:
            if tangents:
                u, du = hermitian_expm_derivatives(h, interval, ops)
            else:
                u = hermitian_expm(h, interval)
            for slot in range(schedule.r):
                if tangents:
                    dpsi = _apply_to_slot(u, dpsi, slot + 1) + _apply_to_slot(du, psi, slot)
                psi = _apply_to_slot(u, psi, slot)
    psi = psi.reshape(-1)
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= TOL.state_norm_atol:     # a NaN norm fails too
        raise ValidationError(f"evolution lost normalization: |psi| = {nrm}")
    return psi / nrm, None if dpsi is None else dpsi.reshape(model.m, -1) / nrm


def evolve(model: HamiltonianModel, theta, schedule: Schedule) -> PureState:
    """Run the schedule: feedbacks interleaved with (e^{-i t H_theta})^{(x)r} (x) I."""
    psi, _ = _propagate(model, theta, schedule, tangents=False)
    return PureState(factors=schedule.initial.factors, amplitudes=psi)


@dataclass(frozen=True, eq=False)
class QfiReport:
    """QFI matrix J, correlation matrix G, and the growth-law bounds."""

    J: np.ndarray
    G: np.ndarray
    trace_J: float
    bound_4ct2: float

    def __post_init__(self):
        j = np.asarray(self.J, dtype=float)
        if not np.max(np.abs(j - j.T)) <= TOL.psd_atol:      # NaN and inf entries fail too
            raise ValidationError("QFI matrix is not symmetric within tolerance")
        eigs = np.linalg.eigvalsh(0.5 * (j + j.T))
        if eigs.size and eigs[0] < -TOL.psd_atol:
            raise ValidationError(f"QFI matrix has negative eigenvalue {eigs[0]:.3e}")
        g = np.asarray(self.G)
        if not np.max(np.abs(g - g.conj().T)) <= TOL.g_hermitian_atol:
            raise ValidationError("correlation matrix G is not Hermitian within tolerance")
        if not self.trace_J <= self.bound_4ct2 * (1.0 + TOL.trj_bound_slack) + 1e-12:
            raise AuditFailure(
                f"Tr J = {self.trace_J:.6e} exceeds 4 c t_eff^2 = {self.bound_4ct2:.6e}")


def _collective_apply(model, tensor, r):
    """(m,) + tensor.shape: each collective generator, sum over driven slots of X_j, applied."""
    return sum(_apply_to_slot(model.generators, tensor, slot) for slot in range(r))


def _qfi_from_tangents(amps, tangents) -> np.ndarray:
    """J_jk = 4 Re(<d_j q|d_k q> - <d_j q|q><q|d_k q>) from (m, dim) tangents."""
    overlaps = tangents.conj() @ amps
    j = 4.0 * np.real(tangents.conj() @ tangents.T - np.outer(overlaps, overlaps.conj()))
    return 0.5 * (j + j.T)


def qfi_matrix(model: HamiltonianModel, theta, schedule: Schedule) -> QfiReport:
    """QFI of the evolved probe from its exact tangent vectors.

    J_jk = 4 Re(<d_j q|d_k q> - <d_j q|q><q|d_k q>), with the m tangents
    pushed forward through the schedule alongside the state (no finite
    differences).  The gauge-invariant form makes the result insensitive to
    global phases of the evolved states.  G_jk = <q| C_j C_k |q> with C_j
    the (collective, for r > 1) generator of the theta_j dependence.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != model.m:
        raise ValidationError(f"theta has length {theta.size}, model has m = {model.m}")
    amps, tangents = _propagate(model, theta, schedule, tangents=True)

    jmat = _qfi_from_tangents(amps, tangents)
    cvecs = _collective_apply(model, amps.reshape(schedule.initial.factors),
                              schedule.r).reshape(model.m, -1)
    gmat = cvecs.conj() @ cvecs.T

    t_eff = schedule.r * schedule.total_time
    return QfiReport(J=jmat, G=gmat, trace_J=float(np.trace(jmat)),
                     bound_4ct2=4.0 * model.c * t_eff ** 2)


def _truncate(schedule: Schedule, t: float) -> Schedule:
    """Prefix of the schedule covering the first t units of evolution time."""
    remaining = t
    steps = []
    for interval, v in schedule.steps:
        if remaining <= 1e-15:
            break
        dt = min(interval, remaining)
        steps.append((dt, v))
        remaining -= dt
    if not steps:
        steps = [(0.0, None)]
    return Schedule(r=schedule.r, initial=schedule.initial, steps=tuple(steps))


def growth_audit(model: HamiltonianModel, theta, schedule: Schedule,
                 n_steps: int) -> list[tuple[float, float, float, float]]:
    """Audit Tr J(t) <= 4 c t_eff^2 and the sqrt growth law on a time grid.

    Returns rows (t, Tr J(t), 4 Tr G(t), 4 c t_eff^2).  Raises
    :class:`AuditFailure` carrying the offending grid time if either the
    quadratic bound or the discrete increment bound
    sqrt(TrJ)(t+dt) - sqrt(TrJ)(t) <= sqrt(4 max TrG) * dt_eff is violated.
    """
    if not (is_int(n_steps) and n_steps >= 2):
        raise ValidationError(f"growth audit needs an int n_steps >= 2, got {n_steps!r}")
    grid = np.linspace(0.0, schedule.total_time, n_steps)
    rows = []
    for t in grid:
        try:
            rep = qfi_matrix(model, theta, _truncate(schedule, t))
        except AuditFailure as exc:       # the report's own Tr J <= 4 c t_eff^2 check
            raise AuditFailure(f"{exc} at t = {t}", time=t) from exc
        rows.append((float(t), rep.trace_J, 4.0 * float(np.trace(rep.G).real), rep.bound_4ct2))

    max_tr_g = max(row[2] for row in rows) / 4.0
    rate = math.sqrt(4.0 * max(max_tr_g, 0.0))
    for (t0, trj0, _, _), (t1, trj1, _, _) in zip(rows, rows[1:]):
        inc = math.sqrt(max(trj1, 0.0)) - math.sqrt(max(trj0, 0.0))
        allowed = rate * schedule.r * (t1 - t0) * (1.0 + TOL.increment_slack) + 1e-9
        if inc > allowed:
            raise AuditFailure(
                f"sqrt(TrJ) increment {inc:.6e} exceeds {allowed:.6e} at t = {t1}", time=t1)
    return rows
