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

import numpy as np

from .constants import is_int
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
    if not (is_int(r) and r >= 1):
        raise ValidationError(f"r must be an integer >= 1, got {r!r}")
    v, ops = np.asarray(v, dtype=complex), np.asarray(ops)
    if r == 1:
        return _trace_frame(v[None], ops)[:, 0]
    d = v.shape[0]
    eigs, q = unitary_eig(v)
    powers = eigs[:, None] ** np.arange(r + 1)                 # (d, r + 1)
    h = functools.reduce(_divide, powers[1:], powers[0])       # 1 / (1 - lambda_0 z) = lambda_0^k
    weights = eigs * _divide(h[:r], powers[:, :r])[:, r - 1]  # sum_k lambda_i^k h_{r-k}
    diag = np.real(np.diagonal(q.conj().T @ ops @ q, axis1=1, axis2=2))
    dim = sym_dim(d, r)
    return np.concatenate([[h[r] / dim], diag @ weights / (dim * math.sqrt(f2_coeff(d, r)))])


def sym_frame_tangents(v, dv, ops) -> tuple[np.ndarray, np.ndarray]:
    """Frame coefficients c of the MES probe V (r = 1) and the (m+1, K) Jacobian dc along dv[k].

    ``dv`` is a (K, d, d) stack of tangents of V.  The trace map is linear, so dc is that
    map applied to dv.
    """
    cols = _trace_frame(np.concatenate([np.asarray(v, dtype=complex)[None], dv]),
                        np.asarray(ops))
    return cols[:, 0], cols[:, 1:]


def _divide(s, powers):
    """s / (1 - lambda z) for powers = lambda^k: lambda^k sum_{j<=k} conj(lambda)^j s_j."""
    return powers * np.cumsum(powers.conj() * s, axis=-1)      # 1/lambda = conj(lambda)


def _trace_frame(stack, ops):
    """Columns (Tr V / d, Tr(X_j V) / sqrt(d)) of a (K, d, d) stack of V.

    Tr(X_j V) = vec(X_j) . vec(V^T), linear in V.
    """
    d, m = stack.shape[1], len(ops)
    flat_t = stack.transpose(0, 2, 1).reshape(len(stack), -1)
    return np.vstack([np.trace(stack, axis1=1, axis2=2) / d,
                      ops.reshape(m, -1) @ flat_t.T / math.sqrt(d)])


def f2_coeff(d: int, r: int) -> float:
    return r * (d + r) / (d * (d + 1))
