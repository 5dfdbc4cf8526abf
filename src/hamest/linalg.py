"""Dense complex linear algebra for small Hermitian/unitary matrices.

Matrices are plain ``numpy.ndarray`` values; the functions here validate the
structural invariants (Hermiticity, unitarity, unit norm) instead of wrapping
arrays in dedicated classes.  Pure states carry their tensor-factor structure
in :class:`PureState`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import TOL, is_int, is_real
from .errors import ValidationError

__all__ = [
    "PureState",
    "assert_hermitian",
    "assert_unitary",
    "hermitian_expm",
    "hermitian_expm_derivatives",
    "unitary_eig",
    "su_basis",
    "hs_inner",
    "haar_unitary",
    "haar_state",
]


def _as_square(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def assert_hermitian(h, atol: float = TOL.hermitian_atol, name="matrix") -> np.ndarray:
    h = _as_square(h, name)
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if not dev <= atol:                  # NaN and inf entries fail too
        raise ValidationError(f"{name} is not Hermitian (max deviation {dev:.3e} > {atol:.1e})")
    return h


def assert_unitary(u, atol: float = TOL.unitary_atol, name="matrix") -> np.ndarray:
    u = _as_square(u, name)
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not dev <= atol:
        raise ValidationError(f"{name} is not unitary (max deviation {dev:.3e} > {atol:.1e})")
    return u


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on a tensor product of finite factors."""

    factors: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "amplitudes", amps)
        if not all(is_int(f) and f >= 1 for f in self.factors):
            raise ValidationError(f"factor dimensions must be ints >= 1: {self.factors}")
        if math.prod(self.factors) != amps.size:
            raise ValidationError(
                f"amplitude length {amps.size} does not match factors {self.factors}")
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= TOL.state_norm_atol:
            raise ValidationError(f"state norm {nrm} deviates from 1 beyond tolerance")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _spectrum(h, t) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian H, once every t w and w_a - w_b, so t (w_a - w_b) / 2, is finite."""
    w, v = np.linalg.eigh(assert_hermitian(h, name="H"))
    lo, hi = (float(w[0]), float(w[-1])) if w.size else (0.0, 0.0)
    if not (is_real(t) and math.isfinite(float(t) * max(hi, -lo)) and math.isfinite(hi - lo)):
        raise ValidationError(f"exp(-i t H) needs finite t w and w_a - w_b, got t={t!r}, "
                              f"w in [{lo!r}, {hi!r}]")
    return w, v


def hermitian_expm(h, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, via spectral decomposition.

    Eigendecomposition keeps the result unitary to machine precision, which
    matters more than speed at the dimensions used here.
    """
    w, v = _spectrum(h, t)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def hermitian_expm_derivatives(h, t: float, directions) -> tuple[np.ndarray, np.ndarray]:
    """U = exp(-i t H) and its derivatives dU_k along the Hermitian directions[k].

    Daleckii-Krein form in the eigenbasis W of H: dU_k = W [(W^dag X_k W) o G] W^dag
    with G_ab = -i t exp(-i t (w_a + w_b) / 2) sinc(t (w_a - w_b) / 2), the
    divided difference of exp(-i t w) written with no difference quotient of
    exponentials, so it stays exact at degenerate and nearly degenerate
    spectra.  ``directions`` is an (m, d, d) stack; dU is too.
    """
    w, v = _spectrum(h, t)
    phases = np.exp(-0.5j * t * w)
    x = 0.5 * t * np.subtract.outer(w, w)
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    gamma = (-1j * t) * np.outer(phases, phases) * sinc
    vh = v.conj().T
    du = v @ ((vh @ np.asarray(directions) @ v) * gamma) @ vh
    return (v * np.exp(-1j * t * w)) @ vh, du


def unitary_eig(v) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam and an orthonormal eigenbasis Q of a unitary V: V = Q diag(lam) Q^dag.

    The point w of the unit circle at the middle of the widest gap between
    the eigenphases lies at least pi/d from each of them, so the Cayley
    transform K = i (w + V)(w - V)^-1 is Hermitian with the eigenvectors of
    V and eigenvalues kappa = cot((arg w - phi)/2), |kappa| <= cot(pi/2d).
    ``eigh`` of its Hermitian part gives a Q that is orthonormal whatever
    the degeneracy, and lam = w (kappa - i)/(kappa + i).
    """
    v = np.asarray(v, dtype=complex)
    phases = sorted(np.angle(np.linalg.eigvals(v)).tolist())
    gaps = [b - a for a, b in zip(phases, phases[1:] + [phases[0] + 2.0 * math.pi])]
    k = gaps.index(max(gaps))
    w = cmath.exp(1j * (phases[k] + 0.5 * gaps[k]))
    # K = 2a - i I with a = i w (w - V)^-1, so the Hermitian part of K is a + a^dag
    a = (1j * w) * np.linalg.inv(w * np.eye(len(v)) - v)
    kappa, q = np.linalg.eigh(a + a.conj().T)
    return w * (kappa - 1j) / (kappa + 1j), q


def su_basis(d: int) -> list[np.ndarray]:
    """Orthonormal traceless Hermitian basis of su(d), Tr X_j X_k = delta_jk.

    Generalized Gell-Mann construction: symmetric pairs, antisymmetric pairs,
    then the diagonal ladder.  For d = 2 this returns the Pauli matrices
    divided by sqrt(2).
    """
    if not (is_int(d) and d >= 2):
        raise ValidationError(f"su basis requires an int d >= 2, got {d!r}")
    basis = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j / math.sqrt(2.0)
            asym[k, j] = 1j / math.sqrt(2.0)
            basis.append(asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        basis.append(np.diag(diag / math.sqrt(l * (l + 1))).astype(complex))
    return basis


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dagger B)."""
    a = _as_square(a, "A")
    b = _as_square(b, "B")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^dim."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)
