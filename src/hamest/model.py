"""Linear Hamiltonian models H_theta = sum_j theta_j X_j.

A model is a set of m orthonormal traceless Hermitian generators on a
d-level system, stacked once into a read-only (m, d, d) array, together
with ``c``, the operator norm of sum X_j^2.  ``c`` controls the
Fisher-information growth bound; models whose sum X_j^2 is proportional to
the identity are *spherical* and obey the tighter ``4 m tau^2 / d`` bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TOL, is_int, is_real
from .errors import ValidationError
from .linalg import su_basis

__all__ = ["HamiltonianModel", "MODEL_KINDS", "make_model", "hamiltonian", "max_energy"]

MODEL_KINDS = ("full", "phase", "offdiag", "custom")


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    kind: str
    d: int
    generators: np.ndarray               # (m, d, d), read-only
    c: float
    spherical: bool

    @property
    def m(self) -> int:
        return len(self.generators)

    def __repr__(self):
        return (f"HamiltonianModel(kind={self.kind!r}, d={self.d}, m={self.m}, "
                f"c={self.c:.6g}, spherical={self.spherical})")

    def __setstate__(self, state):       # an unpickled array comes back writeable
        self.__dict__.update(state)
        self.generators.flags.writeable = False


def _validate_generators(gens: np.ndarray, d: int):
    """Check an (m, d, d) stack: Hermitian, traceless and Hilbert-Schmidt orthonormal.

    Each test is written as ``deviation <= tolerance``, so a NaN or inf entry fails it.
    """
    if gens.ndim != 3 or gens.shape[1:] != (d, d) or len(gens) == 0:
        raise ValidationError(f"generators have shape {gens.shape}, expected (m >= 1, {d}, {d})")
    herm = np.max(np.abs(gens - gens.conj().transpose(0, 2, 1)), axis=(1, 2))
    trace = np.abs(np.trace(gens, axis1=1, axis2=2))
    bad = np.flatnonzero(~((herm <= TOL.hermitian_atol) & (trace <= TOL.generator_trace_atol)))
    if bad.size:
        j = bad[0]
        raise ValidationError(f"generator {j} is not Hermitian and traceless "
                              f"(Hermitian deviation {herm[j]:.3e}, |trace| {trace[j]:.3e})")
    gram = np.einsum("jab,kab->jk", gens.conj(), gens)
    dev = np.abs(gram - np.eye(len(gens)))
    if not np.max(dev) <= TOL.gram_atol:
        bad = [(int(j), int(k), complex(gram[j, k]))
               for j, k in zip(*np.nonzero(~(dev <= TOL.gram_atol)))]
        raise ValidationError(f"generators are not orthonormal; offending Gram entries: {bad}")


def make_model(kind: str, d: int, custom_generators=None) -> HamiltonianModel:
    """Build one of the built-in generator sets, or validate a custom one.

    full     all of su(d): m = d^2 - 1 generalized Gell-Mann matrices.
    phase    the d - 1 diagonal matrices of the Gell-Mann ladder (the
             Gram-Schmidt orthonormalization of the diagonal traceless
             patterns).
    offdiag  m = d - 1 with X_j = (|e_j><e_d| + |e_d><e_j|)/sqrt(2); the
             standard nonspherical example with c = (d - 1)/2 for d >= 3.
    custom   caller-supplied generators, validated for orthonormality.
    """
    if not (is_int(d) and d >= 2):
        raise ValidationError(f"model dimension must be an int >= 2, got {d!r}")
    if kind == "full":
        gens = np.array(su_basis(d))
    elif kind == "phase":
        gens = np.array(su_basis(d)[-(d - 1):])
    elif kind == "offdiag":
        gens = np.zeros((d - 1, d, d), dtype=complex)
        j = np.arange(d - 1)
        gens[j, j, d - 1] = gens[j, d - 1, j] = 1.0 / math.sqrt(2.0)
    elif kind == "custom":
        try:
            gens = np.array(custom_generators, dtype=complex)
        except (TypeError, ValueError) as exc:      # ragged or non-numeric input
            raise ValidationError(f"custom generators are not an (m, d, d) stack: {exc}") from None
    else:
        raise ValidationError(f"unknown model kind {kind!r}; valid kinds: {MODEL_KINDS}")
    _validate_generators(gens, d)

    x_sum = sum(x @ x for x in gens)
    x_sum = 0.5 * (x_sum + x_sum.conj().T)
    c = float(np.linalg.norm(x_sum, 2))
    m = len(gens)
    spherical = bool(np.max(np.abs(x_sum - (m / d) * np.eye(d))) <= TOL.spherical_atol)
    gens.flags.writeable = False
    return HamiltonianModel(kind=kind, d=d, generators=gens, c=c, spherical=spherical)


def hamiltonian(model: HamiltonianModel, theta) -> np.ndarray:
    """H_theta = sum_j theta_j X_j (linear in theta)."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != model.m:
        raise ValidationError(f"theta has length {theta.size}, model has m = {model.m}")
    return np.einsum("j,jab->ab", theta, model.generators)


def max_energy(model: HamiltonianModel, e_radius: float) -> float:
    """Upper bound E * sqrt(c) on ||H_theta|| over the ball ||theta|| <= E.

    Follows from ||H_theta||^2 = ||H_theta^2|| <= E^2 ||sum X_j^2||; spherical
    models give E * sqrt(m/d).
    """
    if not (is_real(e_radius) and 0 <= e_radius < math.inf):
        raise ValidationError(f"search radius must be finite and >= 0, got {e_radius!r}")
    return float(e_radius) * math.sqrt(model.c)
