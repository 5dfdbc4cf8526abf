"""Seeded invariant suites, runnable from the CLI (`hamest verify <suite>`).

Each check raises AssertionError on failure; :func:`run_suite` prints one
PASS/FAIL line per property and reports overall success.  The same checks
back the pytest suite, so the CLI and the tests cannot disagree.  The dense
Sym^r isometry, collective operators, trace moments and Magnus generator that
the d x d pipeline is checked against live here, outside the package API.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement, product

import numpy as np

from . import bounds as bd
from .config import ExperimentConfig
from .constants import TOL
from .errors import (AuditFailure, BranchCutError, DegenerateProjectionError,
                     ResourceLimitError, ValidationError)
from .estimation import _frame_family, invert_theta
from .linalg import (PureState, assert_hermitian, assert_unitary, haar_state, haar_unitary,
                     hermitian_expm, hermitian_expm_derivatives, hs_inner, unitary_eig)
from .model import HamiltonianModel, hamiltonian, make_model
from .probe import Schedule, _qfi_from_tangents, evolve, growth_audit, mes, qfi_matrix
from .runner import _sample_theta, rows_to_csv, run_experiment
from .symmetric import f2_coeff, sym_frame_coefficients

__all__ = ["SUITES", "run_suite", "random_schedule", "richardson_derivative"]

# Caps on the fitted constants of the quadratic state-distance audits,
# frozen from measured values (~0.12 and ~1.0 on the test grid).
FIRST_ORDER_DISTANCE_CAP = 1.0
LINEARIZED_DISTANCE_CAP = 3.0


# ---------------------------- dense oracles that the d x d pipeline is checked against

TENSOR_BUDGET = 4096   # max d^r for the explicit isometry


def occupations(d: int, r: int) -> list[tuple[int, ...]]:
    """All occupation vectors (n_1..n_d) with sum r, descending lexicographic.

    The sorted level words of length r come in ascending order, so their
    level counts descend.
    """
    return [tuple(word.count(level) for level in range(d))
            for word in combinations_with_replacement(range(d), r)]


@dataclass(frozen=True, eq=False)
class SymSpace:
    """Occupation basis of the r-fold symmetric subspace of (C^d)^(x)r."""

    d: int
    r: int
    D: int
    isometry: np.ndarray

    @property
    def f2(self) -> float:
        return f2_coeff(self.d, self.r)


def _build_isometry(d, r, occs):
    index = {occ: i for i, occ in enumerate(occs)}
    dim = d ** r
    iso = np.zeros((dim, len(occs)), dtype=complex)
    weights = [1.0 / math.sqrt(math.factorial(r) / math.prod(math.factorial(n) for n in occ))
               for occ in occs]
    for flat, word in enumerate(product(range(d), repeat=r)):
        occ = tuple(word.count(level) for level in range(d))
        col = index[occ]
        iso[flat, col] = weights[col]
    return iso


def sym_space(d: int, r: int) -> SymSpace:
    """Symmetric subspace with its explicit tensor-space isometry.

    Guarded by ``d^r <= 4096``; :func:`sym_frame_coefficients` needs no
    space at all.
    """
    if d < 2 or r < 1:
        raise ValidationError(f"need d >= 2 and r >= 1, got d={d}, r={r}")
    if d ** r > TENSOR_BUDGET:
        raise ResourceLimitError(
            f"d^r = {d**r} exceeds the tensor budget {TENSOR_BUDGET}; "
            "use sym_frame_coefficients for the isometry-free route")
    occs = tuple(occupations(d, r))
    iso = _build_isometry(d, r, occs)
    dev = np.max(np.abs(iso.conj().T @ iso - np.eye(len(occs))))
    if dev > TOL.isometry_atol:
        raise ValidationError(f"isometry columns not orthonormal (dev {dev:.2e})")
    return SymSpace(d=d, r=r, D=len(occs), isometry=iso)


def collective(space: SymSpace, a) -> np.ndarray:
    """r-fold collective operator {A}_r = isometry^dagger (sum_s A^(s)) isometry."""
    a = assert_hermitian(a, name="A")
    if a.shape[0] != space.d:
        raise ValidationError(f"operator dimension {a.shape[0]} != d = {space.d}")
    iso_t = space.isometry.reshape((space.d,) * space.r + (space.D,))
    acc = np.zeros_like(iso_t)
    for slot in range(space.r):
        acc += np.moveaxis(np.tensordot(a, iso_t, axes=([1], [slot])), 0, slot)
    summed = acc.reshape(space.d ** space.r, space.D)
    out = space.isometry.conj().T @ summed
    return 0.5 * (out + out.conj().T)


def f4_coeff(d: int, r: int) -> float:
    return r * (r + d) * (6 * r * r + 6 * d * r + d * d - d) / (
        d * (d + 1) * (d + 2) * (d + 3))


def f22_coeff(d: int, r: int) -> float:
    return 3 * r * (r + d) * (r - 1) * (d + r + 1) / (
        d * (d + 1) * (d + 2) * (d + 3))


def collective_trace_moments(space: SymSpace, x) -> dict:
    """Second and fourth trace moments of {X}_r against their closed forms.

    (1/D) Tr {X}_r^2 = F2 Tr X^2 and
    (1/D) Tr {X}_r^4 = F4 Tr X^4 + F22 (Tr X^2)^2 for traceless Hermitian X.
    """
    x = assert_hermitian(x, name="X")
    if abs(np.trace(x)) > TOL.generator_trace_atol:
        raise ValidationError(f"X must be traceless, got trace {np.trace(x):.3e}")
    cx = collective(space, x)
    cx2 = cx @ cx
    tr_x2 = float(np.trace(x @ x).real)
    tr_x4 = float(np.trace((x @ x) @ (x @ x)).real)
    f2, f4, f22 = space.f2, f4_coeff(space.d, space.r), f22_coeff(space.d, space.r)
    return {
        "m2_actual": float(np.trace(cx2).real) / space.D,
        "m2_predicted": f2 * tr_x2,
        "m4_actual": float(np.trace(cx2 @ cx2).real) / space.D,
        "m4_predicted": f4 * tr_x4 + f22 * tr_x2 ** 2,
        "F2": f2,
        "F4": f4,
        "F22": f22,
    }


def unitary_principal_log(u) -> np.ndarray:
    """Hermitian M with exp(-i M) = U and eigenvalues of M in (-pi, pi].

    Raises :class:`BranchCutError` when an eigenphase of U sits within
    ``TOL.branch_cut_atol`` of the branch cut at -pi, where the principal
    generator is ambiguous.
    """
    u = assert_unitary(u, name="U")
    eigs, q = unitary_eig(u)
    phases = np.angle(eigs)  # in (-pi, pi]
    if np.any(np.pi - np.abs(phases) < TOL.branch_cut_atol):
        worst = float(np.min(np.pi - np.abs(phases)))
        raise BranchCutError(
            f"eigenphase within {worst:.2e} of the -pi branch cut; "
            "principal logarithm is ambiguous")
    m = (q * (-phases)) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def magnus_operator(h_star, h_theta, tau: float) -> np.ndarray:
    """Hermitian M with exp(-i tau M) = exp(+i tau H*) exp(-i tau H_theta).

    Extracted exactly through the principal logarithm; callers must keep
    tau (||H*|| + ||H_theta||) < pi so the branch is unambiguous (a
    :class:`BranchCutError` is raised otherwise).
    """
    if tau == 0:
        raise ValidationError("Magnus generator is undefined at tau = 0")
    u = hermitian_expm(h_star, -tau) @ hermitian_expm(h_theta, tau)
    return unitary_principal_log(u) / tau


# basis: orthonormal (D^2, m+1) columns; norm_factor = 1/sqrt(F2(d, r)), sqrt(d) at r = 1
Frame = namedtuple("Frame", "basis norm_factor")


def postselection_frame(model: HamiltonianModel, space: SymSpace | None = None) -> Frame:
    """Frame spanned by the MES and its generator responses.

    With a symmetric subspace the generators are replaced by their r-fold
    collective versions; the MES trace identity makes both cases
    ``[vec(I)/sqrt(D), vec(X_1)/||X_1||_HS, ...]`` up to normalization.
    """
    if space is None:
        dim = model.d
        ops = model.generators
        f2 = f2_coeff(model.d, 1)           # = 1/d
    else:
        dim = space.D
        ops = [collective(space, x) for x in model.generators]
        f2 = space.f2
    cols = [np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)]
    norm = math.sqrt(dim * f2)
    cols += [np.asarray(op, dtype=complex).reshape(-1) / norm for op in ops]
    return Frame(basis=np.column_stack(cols), norm_factor=1.0 / math.sqrt(f2))


def frame_projection(frame: Frame, psi: np.ndarray):
    """Normalized frame coefficients of ``psi`` and the projection probability."""
    coeffs = frame.basis.conj().T @ psi
    p = float(np.real(np.vdot(coeffs, coeffs)))
    if p < TOL.min_postselect_p:
        raise DegenerateProjectionError(f"projection probability {p:.3e} is degenerate")
    return coeffs / math.sqrt(p), min(p, 1.0)


def superop_S(model: HamiltonianModel, a) -> np.ndarray:
    """Projection of A onto span{I, X_1, ..., X_m} in the HS inner product.

    S(A) = (Tr A / d) I + sum_j Tr(A X_j) X_j; satisfies
    P (A (x) I)|MES> = (S(A) (x) I)|MES> with P the frame projector.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (model.d, model.d):
        raise ValidationError(f"operator shape {a.shape} does not match d = {model.d}")
    out = (np.trace(a) / model.d) * np.eye(model.d, dtype=complex)
    for x in model.generators:
        out += np.trace(a @ x) * x
    return out


def delta_resolution(model: HamiltonianModel, tau: float, e_radius: float,
                     delta: float, n_pairs: int, rng: np.random.Generator) -> float:
    """Sampled infimum of the infidelity over parameter pairs >= delta apart.

    Pairs (theta, theta') are drawn with both inside the search ball and
    concentrated at the constraint boundary ||theta - theta'|| = delta, where
    the infimum is attained in all closed-form cases; a smaller set of
    uniform interior pairs guards against surprises away from the boundary.
    The MES probes' overlap is |<psi_theta|psi_theta'>| = |Tr(U_theta^dag U_theta')| / d.
    """
    if not (0.0 <= delta <= 2.0 * e_radius):
        raise ValidationError(f"need 0 <= delta <= 2E, got delta={delta}, E={e_radius}")
    if n_pairs < 1:
        raise ValidationError("need at least one sample pair")
    m = model.m

    def infidelity(th, th2):
        ov = np.vdot(hermitian_expm(hamiltonian(model, th), tau),
                     hermitian_expm(hamiltonian(model, th2), tau)) / model.d
        return math.sqrt(max(0.0, 1.0 - abs(ov) ** 2))

    best = math.inf
    for _ in range(n_pairs):
        direction = rng.standard_normal(m)
        direction /= np.linalg.norm(direction)
        for _ in range(200):
            theta = _sample_theta(m, e_radius, False, rng)
            theta2 = theta + delta * direction
            if np.linalg.norm(theta2) <= e_radius:
                break
        else:
            theta = -0.5 * delta * direction
            theta2 = theta + delta * direction
        best = min(best, infidelity(theta, theta2))
    for _ in range(max(1, n_pairs // 4)):
        for _ in range(200):
            theta = _sample_theta(m, e_radius, False, rng)
            theta2 = _sample_theta(m, e_radius, False, rng)
            if np.linalg.norm(theta2 - theta) >= delta:
                best = min(best, infidelity(theta, theta2))
                break
    return best

def random_schedule(model, rng, max_time: float = 3.0) -> Schedule:
    """Random feedback schedule: Haar initial state, 1-3 intervals, Haar kicks."""
    d = model.d
    dim = d * d
    init = PureState(factors=(d, d), amplitudes=haar_state(dim, rng))
    n = int(rng.integers(1, 4))
    times = rng.random(n) + 0.05
    times *= max_time * rng.random() / times.sum()
    steps = []
    for i in range(n):
        v = haar_unitary(dim, rng) if (i > 0 or rng.random() < 0.5) else None
        steps.append((float(times[i]), v))
    return Schedule(r=1, initial=init, steps=tuple(steps))


# ---------------------------------------------------------------- qfi suite

def check_qfi_saturation():
    for d in (2, 3):
        model = make_model("full", d)
        for tau in (0.5, 1.0):
            rep = qfi_matrix(model, np.zeros(model.m),
                             Schedule(r=1, initial=mes(d), steps=((tau, None),)))
            target = (4.0 / d) * tau ** 2 * np.eye(model.m)
            dev = np.max(np.abs(rep.J - target))
            assert dev < 1e-6, f"d={d} tau={tau}: deviation {dev:.2e}"


def check_qfi_zero_time():
    model = make_model("full", 2)
    rep = qfi_matrix(model, [0.1, -0.2, 0.3],
                     Schedule(r=1, initial=mes(2), steps=((0.0, None),)))
    assert np.max(np.abs(rep.J)) < 1e-12


def check_offdiag_saturation():
    for d in (2, 3):
        model = make_model("offdiag", d)
        init = np.zeros(d)
        init[d - 1] = 1.0
        sched = Schedule(r=1, initial=PureState((d, 1), init), steps=((1.3, None),))
        rows = growth_audit(model, np.zeros(model.m), sched, 6)
        for t, trj, _, bound in rows:
            if t > 0:
                assert abs(trj / bound - 1.0) < 1e-4, (d, t, trj, bound)


def check_growth_bound_random_schedules(n_schedules: int = 100, seed: int = 314):
    rng = np.random.default_rng(seed)
    for i in range(n_schedules):
        d = int(rng.choice([2, 3]))
        model = make_model("full", d)
        theta = rng.standard_normal(model.m)
        theta *= rng.random() / np.linalg.norm(theta)
        sched = random_schedule(model, rng)
        try:
            growth_audit(model, theta, sched, 4)
        except AuditFailure as exc:
            raise AssertionError(f"schedule {i}: {exc}") from exc


def check_gauge_invariance():
    model = make_model("full", 2)
    theta = [0.2, -0.1, 0.4]
    base = Schedule(r=1, initial=mes(2), steps=((0.8, None),))
    rep0 = qfi_matrix(model, theta, base)
    phased = Schedule(r=1, initial=mes(2),
                      steps=((0.8, None), (0.0, np.exp(0.73j) * np.eye(4))))
    rep1 = qfi_matrix(model, theta, phased)
    assert np.max(np.abs(rep0.J - rep1.J)) < 1e-8


def richardson_derivative(f, x, step: float) -> np.ndarray:
    """(m, ...) derivatives of f along each coordinate of x, fourth order in step.

    Richardson extrapolation of two central differences:
    [8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))] / (12 h).
    """
    x = np.asarray(x, dtype=float)
    out = []
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = step
        out.append((8 * (f(x + e) - f(x - e)) - (f(x + 2 * e) - f(x - 2 * e))) / (12 * step))
    return np.array(out)


def check_qfi_exact_vs_richardson(seed: int = 12):
    """Exact-tangent QFI against a fourth-order difference of the evolution map."""
    rng = np.random.default_rng(seed)
    cases = [(make_model("full", 2), [0.3, 0.1, -0.2],
              Schedule(r=1, initial=mes(2), steps=((1.0, None),)))]
    for d in (2, 3):
        model = make_model("full", d)
        cases.append((model, 0.3 * rng.standard_normal(model.m), random_schedule(model, rng)))
    two = PureState(factors=(2, 2, 2), amplitudes=haar_state(8, rng))   # two driven slots
    cases.append((make_model("full", 2), [0.2, -0.4, 0.1],
                  Schedule(r=2, initial=two, steps=((0.6, None), (0.4, haar_unitary(8, rng))))))
    for model, theta, sched in cases:
        amps = evolve(model, theta, sched).amplitudes
        tangents = richardson_derivative(lambda t: evolve(model, t, sched).amplitudes,
                                         theta, 1e-3)
        exact = qfi_matrix(model, theta, sched).J
        rel = np.max(np.abs(exact - _qfi_from_tangents(amps, tangents))) / np.max(np.abs(exact))
        assert rel < 1e-8, f"relative deviation {rel:.2e}"


def check_mes_correlation_identity():
    for d in (2, 3):
        model = make_model("full", d)
        rep = qfi_matrix(model, np.zeros(model.m),
                         Schedule(r=1, initial=mes(d), steps=((0.0, None),)))
        assert np.max(np.abs(rep.G - np.eye(model.m) / d)) < 1e-10


# --------------------------------------------------------- collective suite

def check_moment_identities(samples: int = 20, seed: int = 2718):
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        for r in (1, 2, 3, 4):
            space = sym_space(d, r)
            for _ in range(samples):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                x = 0.5 * (z + z.conj().T)
                x -= np.trace(x) / d * np.eye(d)
                mom = collective_trace_moments(space, x)
                assert abs(mom["m2_actual"] - mom["m2_predicted"]) < 1e-9, (d, r)
                assert abs(mom["m4_actual"] - mom["m4_predicted"]) < 1e-9, (d, r)


def check_worked_moment_values():
    space = sym_space(2, 2)
    x = np.diag([1.0, -1.0]) / math.sqrt(2)
    mom = collective_trace_moments(space, x)
    assert abs(mom["m2_actual"] - 4.0 / 3.0) < 1e-9
    assert abs(mom["m4_actual"] - 8.0 / 3.0) < 1e-9


def check_restriction_identity(seed: int = 99):
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        for r in (2, 3, 4):
            space = sym_space(d, r)
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.5 * (z + z.conj().T)
            tau = 0.4
            lhs = hermitian_expm(collective(space, h), tau)
            ur = reduce(np.kron, [hermitian_expm(h, tau)] * r)
            rhs = space.isometry.conj().T @ ur @ space.isometry
            assert np.max(np.abs(lhs - rhs)) < 1e-9, (d, r)


def check_hs_norm_scaling(seed: int = 7):
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        for r in (1, 2, 3, 4):
            space = sym_space(d, r)
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = 0.5 * (z + z.conj().T)
            x -= np.trace(x) / d * np.eye(d)
            cx = collective(space, x)
            lhs = hs_inner(cx, cx).real
            rhs = space.D * f2_coeff(d, r) * hs_inner(x, x).real
            assert abs(lhs - rhs) < 1e-9, (d, r)


def check_cross_orthogonality():
    for d in (2, 3):
        model = make_model("full", d)
        for r in (1, 2, 3, 4):
            space = sym_space(d, r)
            ops = [collective(space, x) for x in model.generators]
            f2 = f2_coeff(d, r)
            for j, a in enumerate(ops):
                for k, b in enumerate(ops):
                    val = hs_inner(a, b).real / space.D
                    expect = f2 if j == k else 0.0
                    assert abs(val - expect) < 1e-9, (d, r, j, k)


def check_frame_coefficients_match_isometry(seed: int = 11):
    rng = np.random.default_rng(seed)
    for d, r in [(2, 1), (3, 1), (2, 3), (2, 4), (3, 2), (3, 4)]:
        model = make_model("full", d)
        space = sym_space(d, r)
        frame = postselection_frame(model, space)
        for _ in range(5):
            v = haar_unitary(d, rng)
            w = space.isometry.conj().T @ reduce(np.kron, [v] * r) @ space.isometry
            dense = frame.basis.conj().T @ w.reshape(-1) / math.sqrt(space.D)
            dev = np.max(np.abs(sym_frame_coefficients(v, model.generators, r) - dense))
            assert dev < 1e-10, (d, r, dev)


def check_magnus_small_time(seed: int = 5, samples: int = 50):
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h_star = 0.5 * (z + z.conj().T)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h_theta = 0.5 * (z + z.conj().T)
        nrm = max(np.linalg.norm(h_star, 2), np.linalg.norm(h_theta, 2))
        tau = 0.2 / nrm * rng.random()
        if tau * nrm < 1e-3:
            continue
        m = magnus_operator(h_star, h_theta, tau)
        diff = m - (h_theta - h_star)
        lhs = math.sqrt(hs_inner(diff, diff).real)
        hstar_hs = math.sqrt(hs_inner(h_star, h_star).real)
        delta_hs = math.sqrt(hs_inner(h_theta - h_star, h_theta - h_star).real)
        assert lhs <= 2.0 * tau * hstar_hs * delta_hs + 1e-12


# --------------------------------------------------------- resolution suite

def check_frame_orthonormality():
    for kind, d in [("full", 2), ("full", 3), ("phase", 3), ("offdiag", 4)]:
        model = make_model(kind, d)
        for r in (1, 2, 3, 4):
            basis = postselection_frame(model, sym_space(d, r) if r > 1 else None).basis
            dev = np.max(np.abs(basis.conj().T @ basis - np.eye(model.m + 1)))
            assert dev < 1e-9, (kind, d, r, dev)


def check_superop_identity(seed: int = 21):
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        model = make_model("full", d)
        frame = postselection_frame(model)
        proj = frame.basis @ frame.basis.conj().T
        phi = mes(d).amplitudes
        eye = np.eye(d)
        for _ in range(10):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lhs = proj @ (np.kron(a, eye) @ phi)
            rhs = np.kron(superop_S(model, a), eye) @ phi
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def check_phase_closed_form(seed: int = 33):
    rng = np.random.default_rng(seed)
    model = make_model("phase", 2)
    tau, e_radius, delta = 0.5, 1.0, 0.2
    val = delta_resolution(model, tau, e_radius, delta, 200, rng)
    assert abs(val - math.sin(tau * delta / math.sqrt(2))) < 1e-8


def check_resolution_ratio_window(seed: int = 34):
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        model = make_model("full", d)
        tau, e_radius = 0.5, 1.0
        for delta in (0.1, 0.2):
            val = delta_resolution(model, tau, e_radius, delta, 250, rng)
            ratio = val * val * d / (tau * tau * delta * delta)
            assert 0.5 <= ratio <= 4.0, (d, delta, ratio)


def check_estimator_consistency(seed: int = 55):
    rng = np.random.default_rng(seed)
    for kind, d in [("full", 2), ("full", 3), ("phase", 4)]:
        model = make_model(kind, d)
        frame = postselection_frame(model)
        ops = model.generators
        tau = 0.05
        family = _frame_family(
            lambda inc: hermitian_expm_derivatives(hamiltonian(model, inc), tau, ops), ops, 1)
        for _ in range(5):
            theta = rng.standard_normal(model.m)
            theta /= np.linalg.norm(theta)
            probe = evolve(model, theta,
                           Schedule(r=1, initial=mes(d), steps=((tau, None),)))
            reduced, _ = frame_projection(frame, probe.amplitudes)
            est = invert_theta(reduced, tau, frame.norm_factor)
            assert np.linalg.norm(est - theta) <= 0.01, (kind, d)
            est2 = invert_theta(reduced, tau, frame.norm_factor, family=family)
            assert np.linalg.norm(est2 - theta) <= 1e-3, (kind, d)


def check_first_order_frame_distance(seed: int = 66):
    """Exact reduced state vs first-order prediction: quadratic in tau*E."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in (2, 3):
        model = make_model("full", d)
        frame = postselection_frame(model)
        for tau in (0.05, 0.1, 0.2, 0.4):
            for _ in range(10):
                theta = rng.standard_normal(model.m)
                theta /= np.linalg.norm(theta)
                u = hermitian_expm(hamiltonian(model, theta), tau)
                reduced, _ = frame_projection(frame, u.reshape(-1) / math.sqrt(d))
                reduced = reduced * np.exp(-1j * np.angle(reduced[0]))
                pred = np.concatenate([[1.0], -1j * tau * theta / math.sqrt(d)])
                pred /= np.linalg.norm(pred)
                worst = max(worst, np.linalg.norm(reduced - pred) / tau ** 2)
    assert worst <= FIRST_ORDER_DISTANCE_CAP, f"fitted constant {worst:.3f}"


def check_linearized_state_distance(seed: int = 67):
    """exp(-i tau {M}) vs I - i tau {H_delta} on the collective MES."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d, r in [(2, 2), (2, 4), (3, 2)]:
        model = make_model("full", d)
        space = sym_space(d, r)
        for tau in (0.05, 0.1, 0.2):
            for _ in range(10):
                theta_star = rng.standard_normal(model.m)
                theta_star /= np.linalg.norm(theta_star)
                shift = rng.standard_normal(model.m)
                shift *= 0.5 / np.linalg.norm(shift)
                mg = magnus_operator(hamiltonian(model, theta_star),
                                     hamiltonian(model, theta_star + shift), tau)
                exact = hermitian_expm(collective(space, mg), tau)
                lin = np.eye(space.D) - 1j * tau * collective(
                    space, hamiltonian(model, shift))
                diff = np.linalg.norm((lin - exact).reshape(-1)) / math.sqrt(space.D)
                worst = max(worst, diff / tau ** 2)
    assert worst <= LINEARIZED_DISTANCE_CAP, f"fitted constant {worst:.3f}"


# ------------------------------------------------------------- bounds suite

def check_schwartz_chain(seed: int = 77):
    rng = np.random.default_rng(seed)
    mats = []
    for d in (2, 3):
        model = make_model("full", d)
        mats.append(qfi_matrix(model, np.zeros(model.m),
                               Schedule(r=1, initial=mes(d), steps=((1.0, None),))).J)
        for _ in range(5):
            theta = rng.standard_normal(model.m) * 0.3
            mats.append(qfi_matrix(model, theta, random_schedule(model, rng)).J)
    for j in mats:
        eigs = np.linalg.eigvalsh(j)
        if eigs[0] < 1e-10:
            continue
        m = j.shape[0]
        assert np.trace(np.linalg.inv(j)) * np.trace(j) >= m * m * (1 - 1e-8)


def check_scalar_vs_matrix_bound(seed: int = 78):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        a = rng.standard_normal((m, m))
        j = a @ a.T + 0.1 * np.eye(m)
        d = rng.standard_normal((m, m)) * 0.3
        res = bd.biased_cr_rhs(j, d, 7)
        assert res["scalar_bound"] <= res["matrix_bound_trace"] * (1 + 1e-10)


def check_delta_homogeneity():
    m, d, delta = 3, 2, 0.1
    assert abs(bd.time_lower_bound(m, d, delta / 2) /
               bd.time_lower_bound(m, d, delta) - 2.0) < 1e-12
    assert abs(bd.nonspherical_time_lower(1.5, d, delta / 2) /
               bd.nonspherical_time_lower(1.5, d, delta) - 2.0) < 1e-12
    assert abs(bd.time_upper_general(m, d, delta / 2) /
               bd.time_upper_general(m, d, delta) - 2.0) < 1e-12
    assert abs(bd.fewparam_time_upper(m, d, delta / 2) /
               bd.fewparam_time_upper(m, d, delta) - 2.0) < 1e-12
    # the copy trade-off threshold is quadratic in 1/delta
    a = bd.qcr_chain(m, d, delta, 0.5, 100)["trV_lower"]
    b = bd.qcr_chain(m, d, delta / 2, 0.5, 400)["trV_lower"]
    assert abs(a / b - 4.0) < 1e-12


def check_unbiased_reduction(seed: int = 79):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    j = a @ a.T + 0.2 * np.eye(3)
    res = bd.biased_cr_rhs(j, 0, 11)
    assert abs(res["matrix_bound_trace"] - np.trace(np.linalg.inv(j)) / 11) < 1e-12
    # J = j I, D = -I/2  ->  m / (4 j N)
    res2 = bd.biased_cr_rhs(2.0 * np.eye(3), -0.5 * np.eye(3), 5)
    assert abs(res2["matrix_bound_trace"] - 3 / (4 * 2.0 * 5)) < 1e-14


def check_lower_below_upper():
    for kind, d in [("full", 2), ("full", 3), ("phase", 3)]:
        model = make_model(kind, d)
        rep = bd.bound_report(model, delta=0.05, e_radius=1.0)
        assert rep.time_lower <= rep.time_upper_general * (1 + 1e-9)


def check_reproducibility():
    cfg = ExperimentConfig(model_kind="full", d=2, scheme="adaptive", delta=0.1,
                           e_radius=1.0, trials=3, master_seed=424242)
    rows_a, _ = run_experiment(cfg)
    rows_b, _ = run_experiment(cfg)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)


SUITES = {
    "qfi": [
        ("qfi_saturation_full_model", check_qfi_saturation),
        ("qfi_zero_time", check_qfi_zero_time),
        ("offdiag_free_evolution_saturates", check_offdiag_saturation),
        ("growth_bound_random_schedules", check_growth_bound_random_schedules),
        ("gauge_invariance_global_phase", check_gauge_invariance),
        ("qfi_exact_vs_richardson", check_qfi_exact_vs_richardson),
        ("mes_correlation_identity", check_mes_correlation_identity),
    ],
    "collective": [
        ("collective_moment_identities", check_moment_identities),
        ("worked_moment_values", check_worked_moment_values),
        ("restriction_identity", check_restriction_identity),
        ("hs_norm_scaling", check_hs_norm_scaling),
        ("cross_orthogonality", check_cross_orthogonality),
        ("frame_coefficients_match_isometry", check_frame_coefficients_match_isometry),
        ("magnus_small_time_distance", check_magnus_small_time),
    ],
    "resolution": [
        ("frame_orthonormality", check_frame_orthonormality),
        ("superoperator_projection_identity", check_superop_identity),
        ("phase_model_closed_form", check_phase_closed_form),
        ("resolution_ratio_window", check_resolution_ratio_window),
        ("estimator_consistency", check_estimator_consistency),
        ("first_order_frame_distance", check_first_order_frame_distance),
        ("linearized_state_distance", check_linearized_state_distance),
    ],
    "bounds": [
        ("schwartz_chain", check_schwartz_chain),
        ("scalar_vs_matrix_bound", check_scalar_vs_matrix_bound),
        ("delta_homogeneity", check_delta_homogeneity),
        ("unbiased_reduction", check_unbiased_reduction),
        ("lower_below_upper", check_lower_below_upper),
    ],
}

SUITES["all"] = (SUITES["qfi"] + SUITES["collective"] + SUITES["resolution"]
                 + SUITES["bounds"] + [("reproducibility", check_reproducibility)])


def run_suite(name: str, printer=print) -> bool:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; valid: {', '.join(sorted(SUITES))}")
    all_ok = True
    for label, fn in SUITES[name]:
        try:
            fn()
        except Exception as exc:  # report, don't abort the suite
            printer(f"FAIL {label}: {exc}")
            all_ok = False
        else:
            printer(f"PASS {label}")
    return all_ok
