"""Nonequilibrium diffusions: entropy production, decay certificates,
work-based free-energy estimation, and reversal/steering equivalence."""

from .errors import (BlowUpError, CertificateInfeasible, ConfigError, PositivityError,
                     QuadratureError, SpecError)
from .model import (BrownianSpec, Constant, DiffusionFactor, GibbsSnapshot, LangevinSpec,
                    Linear, NoCirculation, PiecewiseFrozen, QuadraticPotential,
                    RadialLinearCirculation, RotationCirculation, Schedule, Sine,
                    TanhPerturbedPotential, ValidationReport, free_energy_difference,
                    gibbs_gaussian, gibbs_logpdf, gibbs_sampler, partition_function,
                    spec_from_config, validate_spec)
from .gaussian_oracle import (BrownianRiccati, FundamentalMatrix, GaussianLaw,
                              LangevinPropagator, gaussian_kl, gaussian_modified_functional,
                              gaussian_tv_1d, gaussian_w2, gaussian_weighted_fisher,
                              langevin_propagator, ou_moments, ou_moments_path,
                              riccati_value_function)
from .sde import TrajectoryEnsemble, simulate_forward, simulate_langevin
from .fokker_planck import (FPSolution1D, FPSolution2D, GridDensity1D, GridDensity2D,
                            fisher_and_rate_terms, gibbs_grid, relative_entropy_grid,
                            solve_fp_1d, solve_kinetic_fp_2d)
from .entropy import (DecayBound, EntropyTrace, HypocoercivityCertificate, InequalityReport,
                      bakry_emery_kappa, decay_bound_lipschitz, decay_bound_supremum,
                      hypocoercivity_certificate, kinetic_decay_bound,
                      kinetic_decay_bound_time_dependent, modified_functional_trace,
                      optimize_omega, pinsker_talagrand_report, production_rate_check)
from .control import (GridControl1D, LangevinRiccati, feynman_kac_g,
                      langevin_control_solution, solve_g_pde_1d)
from .reversal import (DriftIdentityReport, LawEquivalenceReport, ReverseDensityReport,
                       drift_identity_check, grid_drift_identity_check,
                       kinetic_drift_identity_check, kinetic_law_equivalence_test,
                       law_equivalence_test, reverse_density_check)
from .jarzynski import (EstimatorReport, VarianceReport, estimate_free_energy_is,
                        estimate_free_energy_vanilla, variance_report)

__version__ = "0.1.0"
