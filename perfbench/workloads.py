"""The benchmark's workloads: inputs made from a seed, one trial, checks on its output.

Every workload uses the model ``full`` and search radius E = 1. A trial is one
scheme-driver call on one sampled theta, or one ``qfi_matrix`` call. Inputs
come from the benchmark's own seed argument; the program receives only the
generated theta, schedule and trial RNG.

Why these four:

* ``tomography`` -- one 230 400-copy tomography per trial; outcome sampling and
  projector accumulation dominate, the symmetric layer and refinement idle.
* ``adaptive`` -- six small stages per trial at d = 3: thousands of 3x3
  ``hermitian_expm``/``eigh`` calls, so per-call overhead dominates; success
  sits below 1 - p_crit, so accuracy changes show.
* ``many_channel`` -- symmetric-subspace probes with D up to 65; D x D ``eigh``
  inside refinement and per-trial collective operators dominate.
* ``qfi_audit`` -- finite-difference QFI with feedback kicks on a Haar state:
  the probe layer as ``estimation`` never uses it, with no sampling. It runs
  by name but is not listed in BENCHMARK.json: its timings are bimodal on a
  shared host (see README.md).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import hamest
import hamest.config
import hamest.estimation
import hamest.probe
from hamest.errors import AuditFailure, HamestError

E_RADIUS = 1.0
POOL = 256          # inputs made in set-up; trial i uses input i % POOL
QFI_SLACK = 1e-4    # relative slack on Tr J <= 4 c t^2, as the library audits it
SPOT_TAU = 0.7

DRIVERS = {"one_channel": "run_one_channel", "adaptive": "run_adaptive",
           "many_channel": "run_many_channel"}

_MASK = (1 << 64) - 1


def trial_seed(seed: int, index: int) -> int:
    """splitmix64 of (seed, index): independent per-trial RNG keys."""
    z = (seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xD1B54A32D192ED03) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def digest(value) -> str:
    """Short fingerprint of a result's exact repr, for bit-identity checks."""
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def _rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def sample_ball(rng, n: int, m: int, radius: float) -> np.ndarray:
    u = rng.standard_normal((n, m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * (radius * rng.random(n) ** (1.0 / m))[:, None]


def haar_unitaries(rng, n: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def stage_plan(scheme: str, d: int, c: float, delta: float, e_radius: float,
               kappa: float, r_cap: int) -> list[tuple[int, float, int]]:
    """Closed-form (n, tau, r) of every stage of a scheme, in run order."""
    scale = math.sqrt(c)
    if scheme == "one_channel":
        return [(0, kappa / (e_radius * scale), 1)]
    n0 = max(1, math.ceil(math.log2(e_radius / delta)))
    if scheme == "adaptive":
        return [(n, kappa / (2.0 ** n * delta * scale), 1) for n in range(n0, 0, -1)]
    if scheme == "many_channel":
        tau = kappa / (2.0 ** n0 * delta * scale)
        return [(n, tau, min(2 ** (n0 - n) * d, r_cap)) for n in range(n0, 0, -1)]
    raise ValueError(f"unknown scheme {scheme!r}")


def check_total_time(record, plan) -> list[str]:
    """``total_time`` must equal sum(copies * r * tau) over the planned stages.

    Stage n and tau come from the closed-form plan, r from the plan, and the
    copy counts from the record (every prepared copy, postselected or not).
    """
    problems = []
    if len(record.stages) != len(plan):
        return [f"{len(record.stages)} stages recorded, {len(plan)} planned"]
    total = 0.0
    for stage, (n, tau, r) in zip(record.stages, plan):
        if stage.n != n or not math.isclose(stage.tau, tau, rel_tol=1e-12):
            problems.append(f"stage {stage.n} tau {stage.tau!r}, planned stage {n} "
                            f"tau {tau!r}")
        if stage.copies < 1 or int(stage.copies) != stage.copies:
            problems.append(f"stage {stage.n} has {stage.copies!r} copies")
        total += stage.copies * r * tau
    if not math.isclose(record.total_time, total, rel_tol=1e-12):
        problems.append(f"total_time {record.total_time!r} != closed form {total!r}")
    return problems


class EstimationWorkload:
    fatal_errors: tuple = ()   # errors that are counted, not correctness failures

    def __init__(self, name: str, scheme: str, d: int, delta: float,
                 runner_trials: int):
        self.name, self.scheme, self.d, self.delta = name, scheme, d, delta
        self.runner_trials = runner_trials

    def setup(self, seed: int):
        self.seed = seed
        self.model = hamest.make_model("full", self.d)
        self.constants = hamest.DEFAULT_CONSTANTS
        self.thetas = sample_ball(_rng(seed), POOL, self.model.m, E_RADIUS)
        self.plan = stage_plan(self.scheme, self.d, self.model.c, self.delta, E_RADIUS,
                               self.constants.kappa,
                               self.constants.effective_r_max(self.d))

    def prepare(self, i: int):
        key = trial_seed(self.seed, i)
        return self.thetas[i % POOL], key, _rng(key)

    def run(self, inp):
        theta, key, rng = inp
        # Looked up per call, so the traced run's wrappers are the ones called.
        driver = getattr(hamest.estimation, DRIVERS[self.scheme])
        return driver(self.model, theta, self.delta, E_RADIUS, self.constants,
                      rng=rng, seed=key)

    def check(self, inp, rec) -> tuple[bool, list[str]]:
        theta = inp[0]
        theta_hat = np.asarray(rec.theta_hat, dtype=float)
        if theta_hat.shape != theta.shape or not np.all(np.isfinite(theta_hat)):
            return False, [f"theta_hat {rec.theta_hat!r} is not a finite {theta.size}-vector"]
        problems = check_total_time(rec, self.plan)
        success = float(np.linalg.norm(theta_hat - theta)) <= self.delta
        if success != rec.success:
            problems.append(f"record success {rec.success} disagrees with the error")
        return success, problems

    @staticmethod
    def work(rec) -> dict:
        return {"copies": sum(s.copies for s in rec.stages),
                "accepted": sum(round(s.accept_rate * s.copies) for s in rec.stages),
                "stage_failures": sum(1 for s in rec.stages if s.failed),
                "T": rec.total_time}

    @staticmethod
    def key(rec) -> str:
        return digest((rec.theta_hat, rec.error, rec.total_time, rec.success,
                       [(s.n, s.tau, s.copies, s.accept_rate, s.failed) for s in rec.stages]))

    def runner_config(self, seed: int):
        return hamest.config.ExperimentConfig(
            model_kind="full", d=self.d, scheme=self.scheme, delta=self.delta,
            e_radius=E_RADIUS, trials=self.runner_trials, master_seed=seed)

    def spot_check(self) -> list[str]:
        return []


class QfiWorkload:
    fatal_errors = (AuditFailure,)   # the library's own Tr J <= 4ct^2 audit tripped

    def __init__(self, name: str, d: int):
        self.name, self.d = name, d

    def setup(self, seed: int):
        rng = _rng(seed)
        model = hamest.make_model("full", self.d)
        dim = self.d * self.d
        thetas = sample_ball(rng, POOL, model.m, E_RADIUS)
        states = haar_unitaries(rng, POOL, dim)[:, :, 0]
        intervals = rng.uniform(0.2, 1.0, size=(POOL, 3))
        kicks = haar_unitaries(rng, 2 * POOL, dim).reshape(POOL, 2, dim, dim)
        self.model = model
        self.inputs = []
        for theta, psi, (t0, t1, t2), (v1, v2) in zip(thetas, states, intervals, kicks):
            initial = hamest.PureState(factors=(self.d, self.d), amplitudes=psi)
            sched = hamest.Schedule(r=1, initial=initial,
                                    steps=((t0, None), (t1, v1), (t2, v2)))
            self.inputs.append((theta, sched))

    def prepare(self, i: int):
        return self.inputs[i % POOL]

    def run(self, inp):
        theta, sched = inp
        return hamest.probe.qfi_matrix(self.model, theta, sched)

    def bound(self, sched) -> float:
        return 4.0 * self.model.c * (sched.r * sched.total_time) ** 2

    def check(self, inp, rep) -> tuple[bool, list[str]]:
        if not np.all(np.isfinite(rep.J)):
            return False, ["J is not finite"]
        bound = self.bound(inp[1])
        ok = rep.trace_J <= bound * (1.0 + QFI_SLACK) + 1e-12
        problems = [] if ok else [f"Tr J = {rep.trace_J!r} exceeds 4ct^2 = {bound!r}"]
        return ok, problems

    @staticmethod
    def work(rep) -> dict:
        return {}

    @staticmethod
    def key(rep) -> str:
        return digest((rep.J.tobytes(), rep.G.tobytes(), rep.trace_J, rep.bound_4ct2))

    def runner_config(self, seed: int):
        # The runner is not on this workload's path; the adaptive slice stands in.
        return WORKLOADS["adaptive"].runner_config(seed)

    def spot_check(self) -> list[str]:
        """J = (4/d) tau^2 I for the MES at theta = 0."""
        sched = hamest.Schedule(r=1, initial=hamest.mes(self.d), steps=((SPOT_TAU, None),))
        try:
            rep = hamest.probe.qfi_matrix(self.model, np.zeros(self.model.m), sched)
        except HamestError as exc:
            return [f"MES spot check: {type(exc).__name__}: {exc}"]
        expect = (4.0 / self.d) * SPOT_TAU ** 2 * np.eye(self.model.m)
        dev = float(np.max(np.abs(rep.J - expect)))
        return [] if dev <= 1e-6 else [f"MES spot check: max |J - (4/d)tau^2 I| = {dev:.3e}"]


WORKLOADS = {
    "tomography": EstimationWorkload("tomography", "one_channel", 2, 0.05, runner_trials=10),
    "adaptive": EstimationWorkload("adaptive", "adaptive", 3, 0.025, runner_trials=40),
    "many_channel": EstimationWorkload("many_channel", "many_channel", 2, 0.025,
                                       runner_trials=40),
    "qfi_audit": QfiWorkload("qfi_audit", 3),
}
