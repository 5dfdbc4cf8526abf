"""Linear Hamiltonian models H_theta = sum_j theta_j X_j.

A model is a set of m orthonormal traceless Hermitian generators on a
d-level system, stacked once into a read-only (m, d, d) array, together
with the cached sum of squares ``X_sum = sum X_j^2`` and its operator norm
``c``.  ``c`` controls the Fisher-information growth bound; models with
``X_sum`` proportional to the identity are *spherical* and obey the tighter
``4 m tau^2 / d`` bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import TOL
from .errors import ValidationError
from .linalg import assert_hermitian, hs_inner, su_basis

__all__ = ["HamiltonianModel", "MODEL_KINDS", "make_model", "hamiltonian", "max_energy"]

MODEL_KINDS = ("full", "phase", "offdiag", "custom")


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    kind: str
    d: int
    generators: np.ndarray               # (m, d, d), read-only
    x_sum: np.ndarray = field(repr=False)
    c: float
    spherical: bool

    @property
    def m(self) -> int:
        return len(self.generators)

    def __repr__(self):
        return (f"HamiltonianModel(kind={self.kind!r}, d={self.d}, m={self.m}, "
                f"c={self.c:.6g}, spherical={self.spherical})")


def _validate_generators(gens, d):
    m = len(gens)
    gram = np.empty((m, m), dtype=complex)
    for j, xj in enumerate(gens):
        if xj.shape != (d, d):
            raise ValidationError(f"generator {j} has shape {xj.shape}, expected {(d, d)}")
        assert_hermitian(xj, name=f"generator {j}")
        tr = abs(np.trace(xj))
        if tr > TOL.generator_trace_atol:
            raise ValidationError(f"generator {j} has trace {tr:.3e}, expected 0")
        for k, xk in enumerate(gens):
            gram[j, k] = hs_inner(xj, xk)
    dev = np.abs(gram - np.eye(m))
    if np.max(dev) > TOL.gram_atol:
        bad = [(int(j), int(k), complex(gram[j, k]))
               for j, k in zip(*np.nonzero(dev > TOL.gram_atol))]
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
    if d < 2:
        raise ValidationError(f"model dimension must be >= 2, got {d}")
    if kind == "full":
        gens = su_basis(d)
    elif kind == "phase":
        gens = su_basis(d)[-(d - 1):]
    elif kind == "offdiag":
        gens = []
        for j in range(d - 1):
            x = np.zeros((d, d), dtype=complex)
            x[j, d - 1] = x[d - 1, j] = 1.0 / math.sqrt(2.0)
            gens.append(x)
    elif kind == "custom":
        if not custom_generators:
            raise ValidationError("custom model requires a non-empty generator list")
        gens = [np.asarray(g, dtype=complex) for g in custom_generators]
    else:
        raise ValidationError(f"unknown model kind {kind!r}; valid kinds: {MODEL_KINDS}")
    _validate_generators(gens, d)

    x_sum = sum(x @ x for x in gens)
    x_sum = 0.5 * (x_sum + x_sum.conj().T)
    c = float(np.linalg.norm(x_sum, 2))
    m = len(gens)
    spherical = bool(np.max(np.abs(x_sum - (m / d) * np.eye(d))) <= TOL.spherical_atol)
    stacked = np.array(gens)
    stacked.flags.writeable = False
    return HamiltonianModel(kind=kind, d=d, generators=stacked,
                            x_sum=x_sum, c=c, spherical=spherical)


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
    if e_radius < 0:
        raise ValidationError("search radius must be nonnegative")
    return float(e_radius) * math.sqrt(model.c)
