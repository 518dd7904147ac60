"""Nonequilibrium diffusions: entropy production, decay certificates,
work-based free-energy estimation, and reversal/steering equivalence.

The names below are loaded on first access (PEP 562): ``import noneq`` reads
no numerical module, and ``noneq.simulate_forward`` imports ``noneq.sde``
when it is first asked for.  ``from noneq import *`` loads every module.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BlowUpError", "CertificateInfeasible", "ConfigError", "PositivityError",
               "QuadratureError", "SpecError"),
    "model": ("BrownianSpec", "Constant", "DiffusionFactor", "GibbsSnapshot", "LangevinSpec",
              "Linear", "NoCirculation", "PiecewiseFrozen", "QuadraticPotential",
              "RadialLinearCirculation", "RotationCirculation", "Schedule", "Sine",
              "TanhPerturbedPotential", "ValidationReport", "free_energy_difference",
              "gibbs_gaussian", "gibbs_logpdf", "gibbs_sampler", "partition_function",
              "spec_from_config", "validate_spec"),
    "gaussian_oracle": ("FundamentalMatrix", "GaussianLaw", "LangevinPropagator",
                        "QuadraticValueFunction", "gaussian_kl", "gaussian_modified_functional",
                        "gaussian_tv_1d", "gaussian_w2", "gaussian_weighted_fisher",
                        "langevin_propagator", "ou_moments", "ou_moments_path",
                        "riccati_value_function"),
    "sde": ("TrajectoryEnsemble", "simulate_forward"),
    "fokker_planck": ("FPSolution", "GridDensity", "fisher_and_rate_terms", "gibbs_grid",
                      "relative_entropy_grid", "solve_fp_1d", "solve_kinetic_fp_2d"),
    "entropy": ("DecayBound", "EntropyTrace", "HypocoercivityCertificate", "InequalityReport",
                "bakry_emery_kappa", "decay_bound_lipschitz", "decay_bound_supremum",
                "hypocoercivity_certificate", "kinetic_decay_bound",
                "kinetic_decay_bound_time_dependent", "modified_functional_trace",
                "optimize_omega", "pinsker_talagrand_report", "production_rate_check"),
    "control": ("GridControl1D", "feynman_kac_g", "solve_g_pde_1d"),
    "reversal": ("DriftIdentityReport", "LawEquivalenceReport", "ReverseDensityReport",
                 "drift_identity_check", "grid_drift_identity_check",
                 "law_equivalence_test", "reverse_density_check"),
    "jarzynski": ("EstimatorReport", "VarianceReport", "estimate_free_energy_is",
                  "estimate_free_energy_vanilla", "variance_report"),
}

# exported name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("cli", "control", "entropy", "errors", "fokker_planck", "gaussian_oracle",
            "jarzynski", "model", "odes", "reversal", "rng", "sde")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
