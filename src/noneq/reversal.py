"""Equivalence between the re-reversed reverse process and steered dynamics.

Running the reverse process and then flipping its time axis produces a
forward-time diffusion whose drift is the reverse drift negated plus a score
correction (2/beta) gamma grad ln rho, with rho the reverse-process law at
the mirrored instant.  That law factorises as exp(-beta V) g / Z(T), so the
correction collapses to -2 gamma grad U: the re-reversed process IS the
forward process driven by the optimal feedback, started from the tilted
initial law.  This module checks the statement three ways: pointwise on
drifts (analytic Gaussian laws), distributionally on simulated marginals
(moments + Kolmogorov-Smirnov), and pointwise on grid densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import GridControl1D
from .errors import SpecError
from .fokker_planck import _centers, solve_fp_1d
from .gaussian_oracle import QuadraticValueFunction, ou_moments_path
from .model import BrownianSpec, LangevinSpec, gibbs_gaussian, partition_function
from .odes import _step_count
from .sde import simulate_forward


def _sidak_ks_coefficient(level: float, rows: int) -> float:
    """Asymptotic two-sample KS coefficient c, so that D > c sqrt((n1+n2)/(n1 n2))
    rejects with family-wise probability ``level`` across ``rows`` tests."""
    alpha = 1.0 - (1.0 - level) ** (1.0 / rows)
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


# One 1% family-wise level (Sidak) across the 15 KS rows of reversal-test:
# five times x {overdamped x, kinetic q, kinetic p}.  Gives 2.0002; one row
# alone would give the familiar 1.6276.
KS_CRITICAL = _sidak_ks_coefficient(0.01, 15)


# ---------------------------------------------------------------------------
# drift-level identity
# ---------------------------------------------------------------------------

@dataclass
class DriftIdentityReport:
    times: np.ndarray
    residuals: np.ndarray  # per-time max over the probe cloud

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def rereversed_drift(spec, score_fn, x, s: float) -> np.ndarray:
    """Drift of the time-flipped reverse process at forward time s.

    ``score_fn(x, u)`` must return grad ln of the reverse-process law at
    reverse time u.  The formula is -b_R(x, T-s) + (2/beta) B B^T score with
    B = B(s) the noise factor, so for a Langevin spec only the momentum block
    receives the score correction.
    """
    u = spec.horizon - s
    b = spec.noise_factor(s)
    score = np.asarray(score_fn(x, u), dtype=float)
    return -spec.reversed().drift(x, u) + (2.0 / spec.beta) * score @ (b @ b.T).T


def steered_drift(spec, control_fn, x, s: float) -> np.ndarray:
    """Drift b + B u of the forward process steered by the control u."""
    u = np.asarray(control_fn(x, s), dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    return spec.drift(x, s) + u @ spec.noise_factor(s).T


def _drift_residuals(spec, times, reverse_laws, gap) -> DriftIdentityReport:
    """Per forward time s, the max over a probe cloud of |re-reversed - steered|
    drift given by ``gap(law, s)``, where ``law`` is the reverse-process law
    (Gaussian or grid) at reverse time T - s, one of ``reverse_laws(rev_times)``
    on the sorted reverse times 0 and every T - s."""
    times = np.asarray(times, dtype=float)
    rev_times = np.sort(np.unique(np.concatenate([[0.0], spec.horizon - times])))
    law_at = {float(t): law for t, law in zip(rev_times, reverse_laws(rev_times))}
    resid = np.empty(len(times))
    for i, s in enumerate(times):
        s = float(s)
        resid[i] = float(np.max(np.abs(gap(law_at[spec.horizon - s], s))))
    return DriftIdentityReport(times=times, residuals=resid)


def drift_identity_check(spec: BrownianSpec | LangevinSpec, riccati: QuadraticValueFunction,
                         times) -> DriftIdentityReport:
    """Analytic check for quadratic dynamics of either kind.

    The reverse-process law is transported exactly (Gaussian moments), its
    score is closed-form, and the steering field comes from the quadratic
    value flow.  At each time s the probes form a tensor grid over the Gibbs
    law's mean +- 6 standard deviations on each stacked coordinate; the
    residual is affine in the state, so 5 points per coordinate reach its
    maximum.
    """

    def reverse_laws(rev_times):
        return ou_moments_path(spec.reversed(), gibbs_gaussian(spec, spec.horizon), rev_times,
                               substeps=64)

    def gap(law, s):
        gibbs = gibbs_gaussian(spec, s)
        axes = [np.linspace(m - 6.0 * sd, m + 6.0 * sd, 5)
                for m, sd in zip(gibbs.mean, np.sqrt(np.diag(gibbs.cov)))]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        return (rereversed_drift(spec, lambda x, _u: law.score(x), pts, s)
                - steered_drift(spec, riccati.control, pts, s))

    return _drift_residuals(spec, times, reverse_laws, gap)


# ---------------------------------------------------------------------------
# marginal-law equivalence on simulated ensembles
# ---------------------------------------------------------------------------

@dataclass
class MatchedMarginalRow:
    time: float
    coordinate: int
    mean_gap: float
    mean_tol: float
    var_gap: float
    var_tol: float
    ks_stat: float
    ks_crit: float

    @property
    def ok(self) -> bool:
        return (self.mean_gap <= self.mean_tol and self.var_gap <= self.var_tol
                and self.ks_stat <= self.ks_crit)

    def line(self) -> str:
        flag = "ok " if self.ok else "FAIL"
        return (f"[{flag}] s={self.time:6.3f} coord={self.coordinate} "
                f"mean gap {self.mean_gap:.3e} (tol {self.mean_tol:.3e}) "
                f"var gap {self.var_gap:.3e} (tol {self.var_tol:.3e}) "
                f"KS {self.ks_stat:.4f} (crit {self.ks_crit:.4f})")


@dataclass
class LawEquivalenceReport:
    rows: list = field(default_factory=list)
    n_forward: int = 0
    n_reverse: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def summary(self) -> str:
        head = (f"matched marginals: {self.n_forward} steered forward paths vs "
                f"{self.n_reverse} reverse paths\n")
        return head + "\n".join(r.line() for r in self.rows)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b| (ties allowed)."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    d = (np.searchsorted(a, both, side="right") / len(a)
         - np.searchsorted(b, both, side="right") / len(b))
    return float(max(np.max(d), np.clip(-np.min(d), 0, 1)))


def _compare_samples(rows, t, fwd: np.ndarray, rev: np.ndarray):
    n1, n2 = len(fwd), len(rev)
    ks_crit = KS_CRITICAL * math.sqrt((n1 + n2) / (n1 * n2))
    for c in range(fwd.shape[1]):
        a, b = fwd[:, c], rev[:, c]
        m1, m2 = a.mean(), b.mean()
        v1, v2 = a.var(ddof=1), b.var(ddof=1)
        mean_tol = 4.0 * math.sqrt(v1 / n1 + v2 / n2)
        m4_1 = np.mean((a - m1) ** 4)
        m4_2 = np.mean((b - m2) ** 4)
        var_tol = 4.0 * math.sqrt(max(m4_1 - v1 ** 2, 0.0) / n1
                                  + max(m4_2 - v2 ** 2, 0.0) / n2)
        ks = _ks_statistic(a, b)
        rows.append(MatchedMarginalRow(time=float(t), coordinate=c,
                                       mean_gap=abs(m1 - m2), mean_tol=mean_tol,
                                       var_gap=abs(v1 - v2), var_tol=var_tol,
                                       ks_stat=ks, ks_crit=ks_crit))


def law_equivalence_test(spec: BrownianSpec | LangevinSpec, riccati: QuadraticValueFunction,
                         n_paths: int, dt: float, seed: int = 0) -> LawEquivalenceReport:
    """Steered forward ensemble vs time-flipped reverse ensemble, of either kind.

    The forward run (stream ``seed``) starts from the tilted initial law and
    follows the optimal feedback; the reverse run (stream ``seed + 104729``)
    starts from the horizon Gibbs law and is uncontrolled.  The finite paths
    at forward times s = T/5, 2T/5, ..., T are matched against the reverse
    ones at T - s, coordinate by coordinate of the stacked state.
    """
    T = spec.horizon
    times = np.linspace(0.0, T, 6)[1:]
    fwd = simulate_forward(spec, n_paths, dt, seed=seed, init=riccati.tilted_initial_law(),
                           store_times=list(times), control=riccati.control)
    rev = simulate_forward(spec.reversed(), n_paths, dt, seed=seed + 104729,
                           store_times=[T - t for t in times])
    report = LawEquivalenceReport(n_forward=int(fwd.finite().sum()),
                                  n_reverse=int(rev.finite().sum()))
    for t in times:
        a = fwd.states_at(float(t))[fwd.finite()]
        b = rev.states_at(float(T - t))[rev.finite()]
        _compare_samples(report.rows, t, a, b)
    return report


# ---------------------------------------------------------------------------
# density-level check on grids
# ---------------------------------------------------------------------------

@dataclass
class ReverseDensityReport:
    times: np.ndarray        # reverse times that were compared
    l1_errors: np.ndarray

    @property
    def max_l1(self) -> float:
        return float(np.max(self.l1_errors))


def _reverse_march(spec: BrownianSpec, dt: float, cells: int):
    """March rho^R from exp(-beta V(., T)) / Z(T) on the reversed spec's box,
    recording about 20 slices; the grid checks share this march.

    Returns the solution, Z(T), the recorded reverse times nearest to 5
    evenly spaced ones, and for each of them the forward time s = T - u with
    the slice recorded there.
    """
    if spec.dimension != 1:
        raise SpecError("the reverse grid march is one-dimensional")
    z_t = partition_function(spec, spec.horizon).z

    def init(x):
        return np.exp(-spec.beta * spec.potential.v(x[:, None], spec.horizon)) / z_t

    sol = solve_fp_1d(spec.reversed(), init, dt, cells=cells, radius_std=10.0,
                      record_every=max(1, _step_count(spec.horizon, dt) // 20))
    check_times = np.linspace(0.0, spec.horizon, 6)[1:]
    idx = [int(np.argmin(np.abs(sol.times - u))) for u in check_times]
    slices = [(spec.horizon - float(sol.times[i]), sol.snapshots[i]) for i in idx]
    return sol, z_t, sol.times[idx], slices


def reverse_density_check(spec: BrownianSpec, control: GridControl1D, dt: float,
                          cells: int = 800) -> ReverseDensityReport:
    """March the reverse-process density and compare with exp(-beta V) g / Z(T).

    Both solvers share the same box, so the comparison is pointwise in the
    cells; errors are reported in L1.  The final compared slice (reverse time
    T) doubles as a check that the reverse process ends in the tilted
    initial law.
    """
    return _density_report(spec, control, _reverse_march(spec, dt, cells))


def _density_report(spec, control, march) -> ReverseDensityReport:
    sol, z_t, rev_times, slices = march
    ((lo, hi),), cells = sol.box, sol.snapshots.shape[1]
    x = _centers(lo, hi, cells)
    errs = np.empty(len(rev_times))
    for i, (s, rho) in enumerate(slices):
        predicted = np.exp(-spec.beta * spec.potential.v(x[:, None], s)) \
            * control.g_at(x, s) / z_t
        errs[i] = float(np.sum(np.abs(rho - predicted)) * (hi - lo) / cells)
    return ReverseDensityReport(times=rev_times, l1_errors=errs)


def grid_drift_identity_check(spec: BrownianSpec, control: GridControl1D, dt: float,
                              cells: int = 800) -> DriftIdentityReport:
    """Drift-level identity along a finite-volume reverse run.

    The score is a centred difference of ln rho^R restricted to the core of
    the box; steering comes from the grid value function.  Agreement is
    limited by the spatial resolution (second-order differences), which sets
    the tolerance callers should use.
    """
    return _grid_drift_report(spec, control, _reverse_march(spec, dt, cells))


def _grid_drift_report(spec, control, march) -> DriftIdentityReport:
    sol, _, _, slices = march
    ((lo, hi),), cells = sol.box, sol.snapshots.shape[1]
    x = _centers(lo, hi, cells)
    h = (hi - lo) / cells
    steer = control.control_field()
    rho_at = {spec.horizon - s: rho for s, rho in slices}

    def gap(rho, s):
        score = np.gradient(np.log(np.maximum(rho, 1e-300)), h)
        center, std = spec.potential.envelope(s, spec.beta)
        core = np.abs(x - center) <= 4.0 * std  # away from the zero-flux walls
        pts = x[core][:, None]
        return (rereversed_drift(spec, lambda _x, _u: score[core][:, None], pts, s)
                - steered_drift(spec, steer, pts, s))

    # the reverse-time table holds the recorded slices; reverse time 0 has none
    return _drift_residuals(spec, [s for s, _ in slices],
                            lambda rev_times: [rho_at.get(float(u)) for u in rev_times], gap)


def _grid_reversal_reports(spec: BrownianSpec, control: GridControl1D, dt: float,
                           cells: int) -> tuple[DriftIdentityReport, ReverseDensityReport]:
    """:func:`grid_drift_identity_check` and :func:`reverse_density_check`
    from one reverse march."""
    march = _reverse_march(spec, dt, cells)
    return _grid_drift_report(spec, control, march), _density_report(spec, control, march)
