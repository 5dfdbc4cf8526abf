"""Multiparameter Hamiltonian estimation at desk scale.

Evolves entangled probes under linear Hamiltonian models, computes quantum
Fisher information and its growth-law bounds, and runs the one-channel,
adaptive-feedback, and many-channel estimation procedures end to end.
"""

from .bounds import (BoundReport, biased_cr_rhs, bound_report, fewparam_time_upper,
                     nonspherical_time_lower, qcr_chain, time_upper_general)
from .config import ExperimentConfig, parse_config
from .constants import DEFAULT_CONSTANTS, TOL, SchemeConstants, Tolerances
from .estimation import (EstimationRecord, invert_theta, run_adaptive,
                         run_many_channel, run_one_channel)
from .linalg import PureState, hermitian_expm, hs_inner, su_basis
from .model import HamiltonianModel, hamiltonian, make_model, max_energy
from .probe import QfiReport, Schedule, evolve, growth_audit, mes, qfi_matrix

__version__ = "0.1.0"
