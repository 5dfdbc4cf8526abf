"""Closed-form metrological bounds and the biased Cramer-Rao evaluator.

Order relations are frozen into explicit constants so that simulation output
can be audited numerically: the covariance chain carries its 1/4, the time
lower bound its 1/2, and the upper bounds the prefactor 3 alpha kappa of the
estimation schemes, where 3 = sum_{n>=1} (1 + n) / 2^n sums the staged copy
growth.  All constants in force are echoed in ``BoundReport.constants_used``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, SchemeConstants, is_real
from .errors import ValidationError
from .estimation import _plan
from .model import HamiltonianModel

__all__ = [
    "BoundReport",
    "qcr_chain",
    "nonspherical_time_lower",
    "fewparam_time_upper",
    "time_upper_general",
    "biased_cr_rhs",
    "bound_report",
]

EQ_CHAIN_CONSTANT = 0.25   # Tr V >= m d / (4 N tau^2)
EQ_TIME_CONSTANT = 0.5     # T >= d sqrt(c) / (2 delta)


def _require_finite_positive(function: str, *args) -> None:
    if not all(is_real(x) and 0 < x < math.inf for x in args):
        raise ValidationError(f"{function} requires finite arguments > 0, got {args!r}")


def qcr_chain(m: int, d: int, delta: float, tau: float, n_copies: int) -> dict:
    """Covariance lower bound m d / (4 N tau^2) and the time-energy trade-off.

    ``tradeoff_ok`` records whether N tau^2 >= m d / (4 delta^2), i.e. whether
    the budget is large enough that delta^2 can dominate the covariance bound.
    """
    _require_finite_positive("qcr_chain", m, d, delta, tau, n_copies)
    return {
        "trV_lower": EQ_CHAIN_CONSTANT * m * d / (n_copies * tau * tau),
        "tradeoff_ok": bool(n_copies * tau * tau >= EQ_CHAIN_CONSTANT * m * d / (delta * delta)),
    }


def nonspherical_time_lower(c: float, d: int, delta: float) -> float:
    """Growth-law time bound d sqrt(c) / (2 delta), for any model.

    Chains the covariance bound with Tr J <= 4 c t^2 and N >= 1.  A spherical
    model has c = m/d, where the bound is sqrt(m d) / (2 delta).  The delta
    exponent is 1 by that consistency requirement; a delta^-2 variant of this
    bound circulates but does not reduce to the spherical value.
    """
    _require_finite_positive("nonspherical_time_lower", c, d, delta)
    return EQ_TIME_CONSTANT * d * math.sqrt(c) / delta


def time_upper_general(m: int, d: int, delta: float,
                       constants: SchemeConstants = DEFAULT_CONSTANTS) -> float:
    """Adaptive-scheme upper bound: 3 alpha kappa m d / delta.

    The constant is the infinite-stage sum of the per-stage time
    alpha m (1 + n) * kappa / (2^n delta * scale), with sum_{n>=1} (1 + n) / 2^n = 3,
    evaluated at the generic scale normalization.
    """
    _require_finite_positive("time_upper_general", m, d, delta)
    prefactor = constants.alpha * constants.kappa * 3.0
    return prefactor * m * d / delta


def fewparam_time_upper(m: int, d: int, delta: float,
                        constants: SchemeConstants = DEFAULT_CONSTANTS) -> float:
    """Spherical few-parameter upper bound: 3 alpha kappa m^{3/2} sqrt(d) / delta.

    Valid for spherical models.  They have c = m / d, so the stage time
    tau = kappa sqrt(d) / (sqrt(m) E) equals kappa / (E sqrt(c)), the tau
    that the stage plan already uses at radius E; adaptive's planned time
    sits under this bound.  Independent of the search radius (the adaptive
    staging consumes its time at radii comparable to delta).
    Tighter than :func:`time_upper_general` only for m <= d; callers should
    prefer the general bound when this one exceeds it.
    """
    _require_finite_positive("fewparam_time_upper", m, d, delta)
    prefactor = constants.alpha * constants.kappa * 3.0
    return prefactor * m ** 1.5 * math.sqrt(d) / delta


def biased_cr_rhs(j_matrix, d_matrix, n_copies: int) -> dict:
    """Right-hand sides of the biased Cramer-Rao inequality.

    matrix_bound_trace = Tr[(I+D) J^{-1} (I+D)^T] / N and the weaker scalar
    form (Tr[I+D])^2 / (N Tr J).  D = 0 recovers the unbiased Tr[J^{-1}] / N.
    N must be finite and >= 1, and J and D finite.
    """
    j = np.asarray(j_matrix, dtype=float)
    m = j.shape[0]
    d = np.zeros_like(j) if np.isscalar(d_matrix) and d_matrix == 0 \
        else np.asarray(d_matrix, dtype=float)
    if j.shape != (m, m) or d.shape != (m, m):
        raise ValidationError("J and D must be square matrices of equal size")
    if not (np.all(np.isfinite(j)) and np.all(np.isfinite(d))):
        raise ValidationError("J and D must have finite entries")
    _require_finite_positive("biased_cr_rhs", n_copies)
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

    That plan admits (delta, E) by ``estimation._admit``.  ``qfi_upper`` (4 c tau^2) and
    ``time_lower`` take the growth-law constant c alone; a spherical model has c = m/d.
    ``copies_lower`` reads delta tau, free of E.  ``preferred_upper`` names the few-parameter
    bound only where it holds, for spherical models, and only where it is the tighter of the
    two.  tau scales as 1 / E, so a ``qfi_upper`` below the smallest normal float (E above
    about 1e154 at c = 1) raises rather than reading as a subnormal or 0.
    """
    m, d = model.m, model.d
    tau = _plan("one_channel", model, delta, e_radius, constants)[0].tau
    qfi_upper = 4.0 * model.c * tau ** 2
    if qfi_upper < sys.float_info.min:
        raise ValidationError(f"the QFI bound 4 c tau^2 underflows the float range at "
                              f"E={e_radius!r}: got {qfi_upper!r}")
    upper = time_upper_general(m, d, delta, constants)
    few = fewparam_time_upper(m, d, delta, constants)
    return BoundReport(
        qfi_upper=qfi_upper,
        copies_lower=EQ_CHAIN_CONSTANT * m * d / (delta * tau) ** 2,
        time_lower=nonspherical_time_lower(model.c, d, delta),
        time_upper_general=upper,
        time_upper_fewparam=few,
        constants_used={
            "chain_constant": EQ_CHAIN_CONSTANT,
            "time_constant": EQ_TIME_CONSTANT,
            "kappa": constants.kappa,
            "alpha": constants.alpha,
            "tau": tau,
            "spherical": model.spherical,
            "preferred_upper": "fewparam" if model.spherical and few < upper else "general",
            "time_lower_delta_exponent": 1,
        },
    )
