"""Closed-form metrological bounds and the biased Cramer-Rao evaluator.

Order relations are frozen into explicit constants so that simulation output
can be audited numerically: the covariance chain carries its 1/4, the time
lower bound its 1/2, and the upper bounds the kappa/alpha/beta constants of
the estimation schemes.  All constants in force are echoed in
``BoundReport.constants_used``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, SchemeConstants
from .errors import ValidationError
from .estimation import _plan
from .model import HamiltonianModel

__all__ = [
    "BoundReport",
    "qcr_chain",
    "time_lower_bound",
    "nonspherical_time_lower",
    "fewparam_time_upper",
    "time_upper_general",
    "biased_cr_rhs",
    "bound_report",
]

EQ_CHAIN_CONSTANT = 0.25   # Tr V >= m d / (4 N tau^2)
EQ_TIME_CONSTANT = 0.5     # T >= sqrt(m d) / (2 delta)


def qcr_chain(m: int, d: int, delta: float, tau: float, n_copies: int) -> dict:
    """Covariance lower bound m d / (4 N tau^2) and the time-energy trade-off.

    ``tradeoff_ok`` records whether N tau^2 >= m d / (4 delta^2), i.e. whether
    the budget is large enough that delta^2 can dominate the covariance bound.
    """
    if min(m, d, delta, tau, n_copies) <= 0:
        raise ValidationError("qcr_chain requires positive arguments")
    trv_lower = m * d / (4.0 * n_copies * tau * tau)
    return {
        "trV_lower": trv_lower,
        "tradeoff_ok": bool(n_copies * tau * tau >= m * d / (4.0 * delta * delta)),
    }


def time_lower_bound(m: int, d: int, delta: float) -> float:
    """sqrt(m d) / (2 delta): chain the covariance bound with N >= 1."""
    if min(m, d, delta) <= 0:
        raise ValidationError("time_lower_bound requires positive arguments")
    return math.sqrt(m * d) / (2.0 * delta)


def nonspherical_time_lower(c: float, d: int, delta: float) -> float:
    """Growth-law time bound for models with sum X_j^2 not proportional to I.

    Substitutes the operator norm c for m/d in the spherical chain, giving
    d sqrt(c) / (2 delta); at c = m/d this reduces exactly to
    :func:`time_lower_bound`.  The delta exponent is 1 by that consistency
    requirement; a delta^-2 variant of this bound circulates but does not
    reduce to the spherical value.
    """
    if min(c, d, delta) <= 0:
        raise ValidationError("nonspherical_time_lower requires positive arguments")
    return d * math.sqrt(c) / (2.0 * delta)


def time_upper_general(m: int, d: int, delta: float,
                       constants: SchemeConstants = DEFAULT_CONSTANTS) -> float:
    """Adaptive-scheme upper bound: alpha kappa (1 + 2 beta) m d / delta.

    The constant is the infinite-stage sum of the artifact's per-stage time
    alpha m (1 + beta n) * kappa / (2^n delta * scale), evaluated at the
    generic scale normalization.
    """
    if min(m, d, delta) <= 0:
        raise ValidationError("time_upper_general requires positive arguments")
    prefactor = constants.alpha * constants.kappa * (1.0 + 2.0 * constants.beta)
    return prefactor * m * d / delta


def fewparam_time_upper(m: int, d: int, delta: float,
                        constants: SchemeConstants = DEFAULT_CONSTANTS) -> float:
    """Spherical few-parameter upper bound: alpha kappa (1 + 2 beta) m^{3/2} sqrt(d) / delta.

    Valid for spherical models.  They have c = m / d, so the stage time
    tau = kappa sqrt(d) / (sqrt(m) E) equals kappa / (E sqrt(c)), the tau
    that the stage plan already uses at radius E; adaptive's planned time
    sits under this bound.  Independent of the search radius (the adaptive
    staging consumes its time at radii comparable to delta).
    Tighter than :func:`time_upper_general` only for m <= d; callers should
    prefer the general bound when this one exceeds it.
    """
    if min(m, d, delta) <= 0:
        raise ValidationError("fewparam_time_upper requires positive arguments")
    prefactor = constants.alpha * constants.kappa * (1.0 + 2.0 * constants.beta)
    return prefactor * m ** 1.5 * math.sqrt(d) / delta


def biased_cr_rhs(j_matrix, d_matrix, n_copies: int) -> dict:
    """Right-hand sides of the biased Cramer-Rao inequality.

    matrix_bound_trace = Tr[(I+D) J^{-1} (I+D)^T] / N and the weaker scalar
    form (Tr[I+D])^2 / (N Tr J).  D = 0 recovers the unbiased Tr[J^{-1}] / N.
    """
    j = np.asarray(j_matrix, dtype=float)
    m = j.shape[0]
    d = np.zeros_like(j) if np.isscalar(d_matrix) and d_matrix == 0 \
        else np.asarray(d_matrix, dtype=float)
    if j.shape != (m, m) or d.shape != (m, m):
        raise ValidationError("J and D must be square matrices of equal size")
    if n_copies < 1:
        raise ValidationError("need at least one copy")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (j + j.T))
    if eigvals[0] <= 1e-14 * max(1.0, eigvals[-1]):
        null = np.array2string(eigvecs[:, 0], precision=4)
        raise ValidationError(f"QFI matrix is singular along direction {null}")
    bias_factor = np.eye(m) + d
    mat = bias_factor @ np.linalg.solve(j, bias_factor.T)
    return {
        "matrix_bound_trace": float(np.trace(mat)) / n_copies,
        "scalar_bound": float(np.trace(bias_factor)) ** 2 / (n_copies * float(np.trace(j))),
    }


@dataclass(frozen=True)
class BoundReport:
    """Bound values for one (model, delta, E) configuration."""

    qfi_upper: float
    copies_lower: float
    time_lower: float
    time_upper_general: float
    time_upper_fewparam: float
    constants_used: dict


def bound_report(model: HamiltonianModel, delta: float, e_radius: float,
                 constants: SchemeConstants = DEFAULT_CONSTANTS) -> BoundReport:
    """Assemble the bound values at the evolution time tau of the one_channel plan.

    ``preferred_upper`` names the few-parameter bound only where it holds,
    for spherical models, and only where it is the tighter of the two.
    """
    if not (0 < delta < math.inf and 0 < e_radius < math.inf):
        raise ValidationError(f"delta and E must be positive and finite, got {delta}, {e_radius}")
    m, d = model.m, model.d
    tau = _plan("one_channel", model, delta, e_radius, constants)[0].tau
    qfi_upper = 4.0 * m * tau ** 2 / d if model.spherical else 4.0 * model.c * tau ** 2
    lower = time_lower_bound(m, d, delta) if model.spherical \
        else nonspherical_time_lower(model.c, d, delta)
    upper = time_upper_general(m, d, delta, constants)
    few = fewparam_time_upper(m, d, delta, constants)
    return BoundReport(
        qfi_upper=qfi_upper,
        copies_lower=m * d / (4.0 * delta ** 2 * tau ** 2),
        time_lower=lower,
        time_upper_general=upper,
        time_upper_fewparam=few,
        constants_used={
            "chain_constant": EQ_CHAIN_CONSTANT,
            "time_constant": EQ_TIME_CONSTANT,
            "kappa": constants.kappa,
            "alpha": constants.alpha,
            "beta": constants.beta,
            "tau": tau,
            "spherical": model.spherical,
            "preferred_upper": "fewparam" if model.spherical and few < upper else "general",
            "time_lower_delta_exponent": 1,
        },
    )
