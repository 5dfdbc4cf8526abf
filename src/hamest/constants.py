"""Central numeric tolerances and overridable scheme constants.

Every tolerance used by both the library and its tests lives in ``TOL`` so the two can never
drift apart.  Estimation-scheme constants (evolution-time scale, copy prefactor, many-channel
cap, feedback slicing) live in :class:`SchemeConstants`; callers override them through one
record rather than scattered keyword arguments.  ``SLICE_PHASE`` and ``P_CRIT`` are fixed.
Every public entry checks a count with :func:`is_int` and a real number with :func:`is_real`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances, grouped in one place."""

    hermitian_atol: float = 1e-12      # max-abs deviation from A == A^dagger
    unitary_atol: float = 1e-10        # max-abs deviation of U^dagger U from I
    state_norm_atol: float = 1e-10     # deviation of a pure state from unit norm
    generator_trace_atol: float = 1e-10  # model generators: |Tr X_j|
    gram_atol: float = 1e-8            # model generator Gram matrix vs identity
    spherical_atol: float = 1e-8       # max-abs of sum X_j^2 - (m/d) I
    branch_cut_atol: float = 1e-8      # eigenphase distance from -pi
    psd_atol: float = 1e-8             # QFI matrix positive semidefiniteness
    g_hermitian_atol: float = 1e-10    # correlation matrix Hermiticity
    trj_bound_slack: float = 1e-4      # relative slack on Tr J <= 4 c t^2
    increment_slack: float = 1e-3      # relative slack on the growth-rate audit
    isometry_atol: float = 1e-10       # symmetric-subspace isometry orthonormality
    min_postselect_p: float = 1e-12    # below this the projection is degenerate
    starvation_rate: float = 0.01      # acceptance rate treated as starvation
    min_c0: float = 0.1                # minimum |c_0| for parameter inversion


TOL = Tolerances()

# Per-slice phase sigma of sliced adaptive feedback: estimation._plan slices each stage so that
# s ||H_theta|| <= sigma.  At theta* = theta a residual drives X_j averaged over the slice,
# (1/s) int_{-s/2}^{s/2} e^{iuH} X_j e^{-iuH} du: H's eigen-units |a><b| scale by sinc(s w_ab / 2),
# |w_ab| <= 2 ||H||.  The first-order increment's Jacobian is that average compressed onto
# span{X_j}, so its singular values lie in [sin(sigma) / sigma, 1], about 1 - sigma^2 / 6.
SLICE_PHASE = 0.5

# Failure budget of a staged run: the success claim is stated against 1 - P_CRIT.  No copy
# budget reads it yet; ROADMAP item 1 derives the staged copies from it (see estimation._plan).
P_CRIT = 0.05


def is_real(x) -> bool:
    """Whether x is a real number; a bool is none."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def is_int(x) -> bool:
    """Whether x is a count: a Python int, so no bool and no numpy integer."""
    return type(x) is int


@dataclass(frozen=True)
class SchemeConstants:
    """Tunable constants of the estimation procedures; the failure budget ``P_CRIT`` is fixed.

    kappa   dimensionless evolution-time budget: each stage's tau keeps
            tau ||H|| <= kappa over its search ball (``estimation._plan``).
            Calibrated so the first-order frame expansion stays accurate
            while tomography noise remains resolvable.
    alpha   copy prefactor: alpha m d / (delta/E)^2, staged alpha m (1 + n) (``estimation._plan``).
    r_max   cap on the many-channel r_n of ``estimation._plan``; ``None``
            means 2048 // d.  A cap below the plan's largest r keeps every
            later stage at the cap, so those stages stop sharpening the estimate.
            The default bounds a plan's series length r d: the frame series
            cost O(d r) per call, but lifting the cap needs a plan-time
            memory rule first (ROADMAP item 11).
    trotter_slices  adaptive only.  False = exact feedback, V = exp(-i tau H_{theta-theta*});
            True = kicks exp(+i s H_theta*) between slices exp(-i s H_theta) in the symmetric
            d x d splitting, with s ||H_theta|| <= SLICE_PHASE in the slices _plan derives.
    """

    kappa: float = 0.5
    alpha: float = 96.0
    r_max: int | None = None
    trotter_slices: bool = False

    def __post_init__(self):
        for name, ok, need in (
                ("kappa", is_real(self.kappa) and 0 < self.kappa < math.inf, "a finite number > 0"),
                ("alpha", is_real(self.alpha) and 0 < self.alpha < math.inf, "a finite number > 0"),
                ("r_max", self.r_max is None or is_int(self.r_max) and self.r_max >= 1,
                 "None or an integer >= 1"),
                ("trotter_slices", type(self.trotter_slices) is bool, "a bool")):
            if not ok:
                raise ValidationError(f"{name} must be {need}, got {getattr(self, name)!r}")

    def effective_r_max(self, d: int) -> int:
        return self.r_max if self.r_max is not None else max(1, 2048 // d)


DEFAULT_CONSTANTS = SchemeConstants()
