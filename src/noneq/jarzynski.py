"""Free-energy differences from nonequilibrium work ensembles.

The identity Delta F = -(1/beta) ln E[exp(-beta W)] holds for forward
ensembles started in the initial Gibbs law, for both overdamped and kinetic
dynamics.  Reweighting by an initial-density ratio and the Girsanov factor
extends it to ensembles generated under a feedback control from an arbitrary
start; driving with the value-function feedback from its matching tilted
start makes the per-path estimator constant, so its variance collapses to
the time-discretisation floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .fokker_planck import GridDensity1D
from .gaussian_oracle import GaussianLaw
from .model import gibbs_logpdf
from .sde import TrajectoryEnsemble


@dataclass
class EstimatorReport:
    """Point estimate with per-path exponents retained for diagnostics."""

    value: float
    stderr: float
    n_paths: int
    kind: str               # "vanilla" | "importance-sampled"
    beta: float
    log_values: np.ndarray  # per-path total log weight (finite paths only)
    dt: float
    seed: int


@dataclass
class VarianceReport:
    variance: float
    cv: float
    ess: float
    n_paths: int


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a) of a 1-D float array with the arithmetic of
    scipy.special.logsumexp (scipy 1.17): the m terms at the maximum are
    split out of the shifted sum s, then ln(1 + s/m) + ln m + max; where that
    is not finite, ln sum exp(a) directly."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        at_max = a == a_max
        m = np.count_nonzero(at_max)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
        out = float(np.log1p(s / m) + np.log(m) + a_max)
        return out if math.isfinite(out) else float(np.log(np.exp(a).sum()))


def _finalize_report(log_vals: np.ndarray, beta: float, kind: str, dt: float,
                     seed: int) -> EstimatorReport:
    n = len(log_vals)
    if n < 2:
        raise SpecError("need at least two finite paths")
    log_mean = _logsumexp(log_vals) - math.log(n)
    if not math.isfinite(log_mean):
        raise SpecError("all path weights vanished; rescale beta*W or check the run")
    ratios = np.exp(log_vals - log_mean)
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(n) / beta)
    return EstimatorReport(value=-log_mean / beta, stderr=stderr, n_paths=n,
                           kind=kind, beta=beta, log_values=log_vals, dt=dt, seed=seed)


def estimate_free_energy_vanilla(spec, ensemble: TrajectoryEnsemble) -> EstimatorReport:
    """-(1/beta) ln mean(exp(-beta W)) over an uncontrolled Gibbs-start ensemble."""
    mask = ensemble.finite()
    log_vals = -spec.beta * ensemble.terminal_work[mask]
    return _finalize_report(log_vals, spec.beta, "vanilla", ensemble.dt, ensemble.seed)


def _initial_logpdf(initial_law, x0: np.ndarray) -> np.ndarray:
    if isinstance(initial_law, GaussianLaw):
        return initial_law.logpdf(x0)
    if isinstance(initial_law, GridDensity1D):
        if x0.shape[1] != 1:
            raise SpecError("grid initial laws are one-dimensional")
        return initial_law.logpdf_interp(x0[:, 0])
    if hasattr(initial_law, "logpdf"):
        return np.asarray(initial_law.logpdf(x0), dtype=float)
    raise SpecError("initial law must expose a log density")


def estimate_free_energy_is(spec, ensemble: TrajectoryEnsemble,
                            initial_law=None) -> EstimatorReport:
    """Reweighted estimator for controlled ensembles from an arbitrary start.

    Per-path weight: exp(-beta W) * (Gibbs density / start density)(x_0) *
    exp(Girsanov log-weight).  With ``initial_law`` None the start is taken
    to be the Gibbs law itself and the density ratio is identically zero in
    the log, so an uncontrolled ensemble reproduces the vanilla estimator
    bit for bit.
    """
    mask = ensemble.finite()
    log_vals = -spec.beta * ensemble.terminal_work[mask]
    log_vals = log_vals + ensemble.terminal_log_weight[mask]
    if initial_law is not None:
        x0 = ensemble.states_at(0.0)[mask]
        start_log = _initial_logpdf(initial_law, x0)
        if np.any(~np.isfinite(start_log)):
            raise SpecError("start density vanishes at a sampled initial state")
        log_vals = log_vals + gibbs_logpdf(spec, x0, 0.0) - start_log
    return _finalize_report(log_vals, spec.beta, "importance-sampled",
                            ensemble.dt, ensemble.seed)


def variance_report(report: EstimatorReport) -> VarianceReport:
    """Sample variance, coefficient of variation, and (sum w)^2 / sum w^2."""
    log_vals = report.log_values
    n = len(log_vals)
    shift = float(np.max(log_vals))
    w = np.exp(log_vals - shift)
    total = float(np.sum(w))
    ess = total * total / float(np.sum(w * w))
    mean = total / n
    sd = float(np.std(w, ddof=1))
    cv = sd / mean
    variance = (sd * math.exp(shift)) ** 2
    return VarianceReport(variance=variance, cv=cv, ess=ess, n_paths=n)
