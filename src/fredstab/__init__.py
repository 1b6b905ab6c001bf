"""Spectral rapid-stabilization toolkit.

From the eigenvalue and control-coefficient data of a diagonalizable
evolution system, synthesize the shifted-spectrum feedback law, certify
the finite-truncation transformation identities, and simulate the
closed-loop dynamics (including the semilinear torus example).
"""

from .errors import (AssumptionError, ConfigError, FredstabError,
                     IntegratorError, IterationDiverged, SolverError)
from .models import (SturmLiouvilleProblem, gribov_model, heat_torus_model,
                     liouville_transform, schrodinger_model,
                     sturm_liouville_eigs_direct, sturm_liouville_model)
from .simulate import (DecayFit, SimulationTrace, fit_decay, random_state,
                       simulate_burgers, simulate_closed_loop)
from .spectral_core import (AssumptionVerdict, SpectralBranch, SpectralSystem,
                            admissible_r_interval, classify_controllability,
                            sobolev_norm, system_from_json, system_to_json,
                            verify_assumptions, verify_control, verify_gap,
                            verify_growth)
from .synthesis import (BranchGains, BranchKernel, FeedbackLaw, beta_reduced_gains,
                        inverse_gap_sum_profile, select_shift, solve_gains_direct,
                        solve_gains_iterative, synthesize_feedback)
from .transform import (BranchCertificate, ClosedLoopMatrix, build_transform,
                        closed_loop_matrix, conditioning_profile,
                        conditioning_vs_truncation, transform_matrix)
from .diagnostics import (compactness_proxy, gain_trend, make_report,
                          secular_match_error, spectrum_match_error)

__version__ = "0.1.0"
