"""Symmetric-subspace frame coefficients for entangled many-channel probes.

The r-fold symmetric subspace of (C^d)^{(x)r} has dimension
D = (r+d-1)! / (r! (d-1)!).  Every estimation stage needs only the frame
coefficients of Sym^r(V) (r = 1 for the single-channel MES), which
:func:`sym_frame_coefficients` computes with d x d algebra at any r through
the MacMahon master theorem sum_k Tr Sym^k(V) z^k = 1 / det(I - z V): one
cumulative-sum division by (1 - lambda_i z) per eigenvalue, O(d r) in time and
memory.  The dense isometry, collective operators and trace moments that this
algebra is checked against live in :mod:`hamest.verify`.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import ValidationError
from .linalg import unitary_eig

__all__ = [
    "sym_dim",
    "sym_frame_coefficients",
    "sym_frame_tangents",
    "f2_coeff",
]


def sym_dim(d: int, r: int) -> int:
    return math.comb(r + d - 1, d - 1)


def sym_frame_coefficients(v, ops, r: int) -> np.ndarray:
    """Coefficients of vec(Sym^r V)/sqrt(D) in the orthonormal frame of vec(I), vec({X_j}_r).

    For a d x d unitary V with orthonormal eigenbasis Q and eigenvalues lambda_i,
    h_k = Tr Sym^k(V) is the z^k coefficient of prod_i 1 / (1 - lambda_i z), and {X}_r
    is diagonal in the occupation basis of Q with entries sum_i (Q^dag X Q)_ii n_i.  Hence
    c_0 = h_r / D and c_j = sum_i (Q^dag X_j Q)_ii sum_{k=1..r} lambda_i^k h_{r-k} / (D sqrt(F2)).
    At r = 1, Sym^1(V) = V is the single-channel MES probe, and the trace form
    c_0 = Tr V / d, c_j = Tr(X_j V) / sqrt(d) skips the eigenbasis.  r is an integer >= 1.
    """
    return _frame_coefficients(v, None, ops, r)[0]


def sym_frame_tangents(v, dv, ops, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame coefficients c of Sym^r(V) and the (m+1, K) Jacobian dc along dv[k].

    ``dv`` is a (K, d, d) stack of tangents of V.  At r = 1 the trace map is linear, so dc is
    that map applied to dv.  At r >= 2, with E = Q^dag dV Q in the eigenbasis, the MacMahon
    generating function gives dh_l = sum_{i<=l} Tr(V^{i-1} dV) h_{l-i}, dc_0 = dh_r / D and
    dc_j = [sum_ab (Q^dag X_j Q)_ba E_ab M_ab
            + sum_a (Q^dag X_j Q)_aa sum_k lambda_a^k dh_{r-k}] / (D sqrt(F2)),
    where M_ab = sum_{p+q<=r-1} lambda_a^p lambda_b^q h_{r-1-p-q} carries
    d(V^k) = sum_{p+q=k-1} V^p dV V^q without divided differences of lambda^k, so it
    stays exact at V ~ I and at degenerate spectra.  Both read g_a = h / (1 - lambda_a z):
    dh_l = sum_a E_aa g_a,l-1 and M_ab = sum_p lambda_a^p g_b,r-1-p, with no r x r matrix.
    """
    return _frame_coefficients(v, np.asarray(dv), ops, r)


def _divide(s, powers):
    """s / (1 - lambda z) for powers = lambda^k: lambda^k sum_{j<=k} conj(lambda)^j s_j."""
    return powers * np.cumsum(powers.conj() * s, axis=-1)      # 1/lambda = conj(lambda)


def _frame_coefficients(v, dv, ops, r: int):
    """(c, dc) for tangents dv, or (c, None) when dv is None."""
    if not isinstance(r, numbers.Integral) or r < 1:
        raise ValidationError(f"r must be an integer >= 1, got {r!r}")
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
    h = functools.reduce(_divide, powers[1:], powers[0])       # 1 / (1 - lambda_0 z) = lambda_0^k
    g = _divide(h[:r], powers[:, :r])                          # g_a = h / (1 - lambda_a z)
    weights = eigs * g[:, r - 1]                               # sum_k lambda_i^k h_{r-k}
    xq = q.conj().T @ ops @ q                                  # (m, d, d)
    diag = np.real(np.diagonal(xq, axis1=1, axis2=2))
    dim = sym_dim(d, r)
    scale = dim * math.sqrt(f2_coeff(d, r))
    c = np.concatenate([[h[r] / dim], diag @ weights / scale])
    if dv is None:
        return c, None
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
