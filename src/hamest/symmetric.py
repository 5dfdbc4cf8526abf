"""Symmetric-subspace machinery for entangled many-channel probes.

The r-fold symmetric subspace of (C^d)^{(x)r} has dimension
D = (r+d-1)! / (r! (d-1)!); its occupation-number basis is indexed by
occupation vectors (n_1, ..., n_d) with sum r.  Collective operators
{A}_r = P sum_j A^(j) come from an explicit isometry into the full tensor
space, limited to d^r <= 4096 amplitudes: transparent, and the brute-force
oracle for the trace-moment identities.  Every estimation stage needs only
the frame coefficients of Sym^r(V) (r = 1 for the single-channel MES), which
:func:`sym_frame_coefficients` computes with d x d algebra at any r through
the MacMahon master theorem sum_k Tr Sym^k(V) z^k = 1 / det(I - z V).

The closed-form second and fourth trace moments of {X}_r and the Magnus
generator of combined forward/counter rotations live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .constants import TOL
from .errors import ResourceLimitError, ValidationError
from .linalg import assert_hermitian, hermitian_expm, unitary_eig, unitary_principal_log

__all__ = [
    "SymSpace",
    "sym_dim",
    "occupations",
    "sym_space",
    "collective",
    "sym_frame_coefficients",
    "sym_frame_tangents",
    "f2_coeff",
    "f4_coeff",
    "f22_coeff",
    "collective_trace_moments",
    "magnus_operator",
]

TENSOR_BUDGET = 4096   # max d^r for the explicit isometry


def sym_dim(d: int, r: int) -> int:
    return math.comb(r + d - 1, d - 1)


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


def sym_frame_coefficients(v, ops, r: int) -> np.ndarray:
    """Coefficients of vec(Sym^r V)/sqrt(D) in the orthonormal frame of vec(I), vec({X_j}_r).

    For a d x d unitary V with orthonormal eigenbasis Q and eigenvalues lambda_i,
    h_k = Tr Sym^k(V) is the convolution of the series lambda_i^k, and
    {X}_r is diagonal in the occupation basis of Q with entries
    sum_i (Q^dag X Q)_ii n_i.  Hence c_0 = h_r / D and
    c_j = sum_i (Q^dag X_j Q)_ii sum_{k=1..r} lambda_i^k h_{r-k} / (D sqrt(F2)).
    At r = 1, Sym^1(V) = V is the single-channel MES probe, and the trace
    form c_0 = Tr V / d, c_j = Tr(X_j V) / sqrt(d) skips the eigenbasis.
    """
    return _frame_coefficients(v, None, ops, r)[0]


def sym_frame_tangents(v, dv, ops, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame coefficients c of Sym^r(V) and the (m+1, K) Jacobian dc along dv[k].

    ``dv`` is a (K, d, d) stack of tangents of V.  At r = 1 the trace map is
    linear, so dc is that map applied to dv.  At r >= 2, with E = Q^dag dV Q
    in the eigenbasis, dh_l = sum_{i<=l} Tr(V^{i-1} dV) h_{l-i} (from the
    MacMahon generating function), dc_0 = dh_r / D and
    dc_j = [sum_ab (Q^dag X_j Q)_ba E_ab M_ab
            + sum_a (Q^dag X_j Q)_aa sum_k lambda_a^k dh_{r-k}] / (D sqrt(F2)),
    where M_ab = sum_{p+q<=r-1} lambda_a^p lambda_b^q h_{r-1-p-q} carries
    d(V^k) = sum_{p+q=k-1} V^p dV V^q without divided differences of lambda^k,
    so it stays exact at V ~ I and at degenerate spectra.  With
    g_al = sum_{j<l} lambda_a^j h_{l-1-j} (d convolutions), dh_l = sum_a E_aa g_al
    and M_ab = sum_p lambda_a^p g_b,r-p, so no r x r matrix is formed.
    """
    return _frame_coefficients(v, np.asarray(dv), ops, r)


def _frame_coefficients(v, dv, ops, r: int):
    """(c, dc) for tangents dv, or (c, None) when dv is None."""
    v, ops = np.asarray(v, dtype=complex), np.asarray(ops)
    d, m = v.shape[0], len(ops)
    if r == 1:                       # Tr(X_j V) = vec(X_j) . vec(V^T), linear in V
        stack = v[None] if dv is None else np.concatenate([v[None], dv])
        flat_t = stack.transpose(0, 2, 1).reshape(len(stack), -1)
        cols = np.vstack([np.trace(stack, axis1=1, axis2=2) / d,
                          ops.reshape(m, -1) @ flat_t.T / math.sqrt(d)])
        return cols[:, 0], None if dv is None else cols[:, 1:]
    eigs, q = unitary_eig(v)
    powers = eigs[:, None] ** np.arange(r + 1)                 # (d, r + 1)
    h = np.ones(1, dtype=complex)
    for series in powers:
        h = np.convolve(h, series)[:r + 1]
    weights = powers[:, 1:] @ h[r - 1::-1]                     # sum_k lambda_i^k h_{r-k}
    xq = q.conj().T @ ops @ q                                  # (m, d, d)
    diag = np.real(np.diagonal(xq, axis1=1, axis2=2))
    dim = sym_dim(d, r)
    scale = dim * math.sqrt(f2_coeff(d, r))
    c = np.concatenate([[h[r] / dim], diag @ weights / scale])
    if dv is None:
        return c, None
    # g[a, l-1] = sum_{j<l} lambda_a^j h_{l-1-j}: both the Toeplitz product
    # for dh and the Hankel product P Hankel(h) P^T for M reduce to it
    g = np.array([np.convolve(series, h[:r])[:r] for series in powers[:, :r]])
    e = q.conj().T @ dv @ q                                    # (K, d, d)
    dh = np.diagonal(e, axis1=1, axis2=2) @ g                  # dh_l, l = 1..r
    dweights = dh[:, r - 2::-1] @ powers[:, 1:r].T             # sum_k lambda_a^k dh_{r-k}
    mixed = powers[:, :r] @ g[:, ::-1].T                       # M_ab
    dc = np.empty((m + 1, len(e)), dtype=complex)
    dc[0] = dh[:, r - 1] / dim
    dc[1:] = (xq.transpose(0, 2, 1).reshape(m, -1) @ (e * mixed).reshape(len(e), -1).T
              + diag @ dweights.T) / scale
    return c, dc


def f2_coeff(d: int, r: int) -> float:
    return r * (d + r) / (d * (d + 1))


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
