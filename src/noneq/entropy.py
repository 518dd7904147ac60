"""Entropy production, decay bounds and hypocoercive certificates.

The central object is the relative entropy R(s) of the evolving law against
the instantaneous Gibbs measure.  This module checks the exact production
identity

    dR/ds = beta int dV/ds d(state) - beta int dV/ds d(gibbs)
            - (1/beta) int |sigma^T grad ln(d state/d gibbs)|^2 d(state)

on analytic and grid solutions, evaluates the Gronwall envelopes implied by a
log-Sobolev constant for the overdamped dynamics, and builds/optimises the
matrix certificates that give exponential decay with an explicit rate for the
kinetic dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CertificateInfeasible, SpecError
from .fokker_planck import (FPSolution1D, FPSolution2D, GridDensity1D, _rate_terms, gibbs_grid,
                            relative_entropy_grid)
from .gaussian_oracle import (GaussianLaw, gaussian_kl, gaussian_modified_functional,
                              gaussian_tv_1d, gaussian_w2, gaussian_weighted_fisher)
from .model import BrownianSpec, LangevinSpec, gibbs_gaussian
from .odes import cumulative_simpson


# ---------------------------------------------------------------------------
# finite differences on a uniform time grid (4th order, one-sided at edges)
# ---------------------------------------------------------------------------

def derivative_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order d/ds along the first axis of a uniformly sampled array."""
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if n < 5:
        raise SpecError("need at least 5 samples for the 4th-order derivative")
    d = np.empty_like(f)
    d[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    return d


@dataclass
class EntropyTrace:
    """R(s), its numerical derivative, the production-identity right side and
    the pointwise residual between them."""

    times: np.ndarray
    r: np.ndarray
    dr_ds: np.ndarray
    rhs: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return self.dr_ds - self.rhs

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))

    @property
    def max_dr(self) -> float:
        return float(np.max(self.dr_ds))


def _uniform_spacing(times: np.ndarray) -> float:
    diffs = np.diff(times)
    if np.max(np.abs(diffs - diffs[0])) > 1e-9 * max(abs(diffs[0]), 1e-12):
        raise SpecError("entropy traces require a uniform time grid")
    return float(diffs[0])


# ---------------------------------------------------------------------------
# production-rate checks
# ---------------------------------------------------------------------------

def _trace(times, states, point: Callable) -> EntropyTrace:
    """R and the production-identity right side from ``point(s, state)`` at
    each time, with the numerical derivative of R."""
    times = np.asarray(times, dtype=float)
    h = _uniform_spacing(times)
    r = np.empty(len(times))
    rhs = np.empty(len(times))
    for i, (s, state) in enumerate(zip(times, states)):
        r[i], rhs[i] = point(float(s), state)
    return EntropyTrace(times=times, r=r, dr_ds=derivative_uniform(r, h), rhs=rhs)


def _gaussian_trace(spec, laws: Sequence[GaussianLaw], times) -> EntropyTrace:
    """All-analytic trace for quadratic dynamics against the instantaneous
    Gibbs law.  The Fisher form is weighted by B B^T, B = ``spec.noise_factor(s)``;
    dV/ds reads the first n coordinates of each law."""
    if not spec.potential.is_quadratic:
        raise SpecError("gaussian production-rate check needs a quadratic potential")
    if times is None or len(laws) != len(times):
        raise SpecError("gaussian production-rate check needs one time per law")
    pot, n, beta = spec.potential, spec.dimension, spec.beta

    def point(s, law):
        ref = gibbs_gaussian(spec, s)
        b = spec.noise_factor(s)
        k = float(pot.k.value(s))
        kd = float(pot.k.derivative(s))
        mu = float(pot.mu.value(s))
        mud = float(pot.mu.derivative(s))
        dev = law.mean[:n] - mu
        state = 0.5 * kd * (np.trace(law.cov[:n, :n]) + dev @ dev) - k * mud * np.sum(dev)
        gibbs = 0.5 * kd * (n / (beta * k))
        fisher = gaussian_weighted_fisher(law, ref, b @ b.T)
        return gaussian_kl(law, ref), beta * (state - gibbs) - fisher / beta

    return _trace(times, laws, point)


def _grid_trace(spec, solution) -> EntropyTrace:
    """Trace on the recorded slices of a grid solution, against the Gibbs
    density on the same grid."""

    def point(s, dens):
        ref = gibbs_grid(spec, s, dens)
        rhs = _rate_terms(spec, dens, s, ref.values).rhs(spec.beta)
        return relative_entropy_grid(dens, ref), rhs

    return _trace(solution.times, (solution.density(t) for t in solution.times), point)


def production_rate_check(spec, states, times=None) -> EntropyTrace:
    """Identity check on Gaussian laws at ``times`` (quadratic potentials) or
    on a grid solution: 1D for overdamped dynamics, 2D phase space for
    kinetic ones, where the Fisher form only sees the momentum block,
    weighted by xi."""
    if isinstance(states, (FPSolution1D, FPSolution2D)):
        return _grid_trace(spec, states)
    return _gaussian_trace(spec, states, times)


# ---------------------------------------------------------------------------
# overdamped decay envelopes from a log-Sobolev constant
# ---------------------------------------------------------------------------

@dataclass
class DecayBound:
    times: np.ndarray
    sqrt_bound: np.ndarray

    @property
    def bound(self) -> np.ndarray:
        """Envelope on R(s) itself."""
        return self.sqrt_bound ** 2


def _gronwall(times, y0: float, terms: Callable, tol: float) -> np.ndarray:
    """y(s) = e^{-A(s)} y0 + int_0^s f(u) e^{A(u)-A(s)} du on ``times``, where
    ``terms(grid, h)`` returns A and f on a uniform grid of spacing h over
    [0, times[-1]]; evaluated by cumulative Simpson on doubling grids until
    the result is stable to ``tol``.  ``times`` must be non-negative and
    non-decreasing, or the grid would not cover them: SpecError."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise SpecError("envelope times must be non-negative and non-decreasing")
    hi = float(times[-1])
    m = 1024
    prev = None
    for _ in range(9):
        grid = np.linspace(0.0, hi, m + 1)
        h = hi / m
        big_a, forcing = terms(grid, h)
        # shift the exponent for overflow safety: e^{A(u)-A(s)} <= 1 on u<=s
        inner = cumulative_simpson(forcing * np.exp(big_a - big_a[-1]), h)
        vals = np.exp(-big_a) * y0 + np.exp(big_a[-1] - big_a) * inner
        cur = np.interp(times, grid, vals)
        if prev is not None and np.max(np.abs(cur - prev)) <= tol:
            break
        prev = cur
        m *= 2
    return cur


def _gronwall_envelope(times, r0, beta, gamma_minus, kappa_fn, forcing_fn,
                       tol: float) -> DecayBound:
    """sqrt R(s) <= e^{-A(s)} sqrt R(0) + int_0^s f(u) e^{A(u)-A(s)} du with
    A(s) = (gamma_minus/beta) int_0^s kappa."""

    def terms(grid, h):
        kap = np.asarray(kappa_fn(grid), dtype=float)
        big_a = (gamma_minus / beta) * cumulative_simpson(kap, h)
        return big_a, np.asarray(forcing_fn(grid), dtype=float)

    return DecayBound(times=np.asarray(times, dtype=float),
                      sqrt_bound=_gronwall(times, math.sqrt(max(r0, 0.0)), terms, tol))


def decay_bound_supremum(times, r0: float, beta: float, gamma_minus: float,
                         kappa_fn: Callable, l1_fn: Callable,
                         tol: float = 1e-10) -> DecayBound:
    """Envelope driven by the supremum rate ||dV/ds||_inf <= L1(s)."""
    forcing = lambda u: (beta / math.sqrt(2.0)) * np.asarray(l1_fn(u), dtype=float)
    return _gronwall_envelope(times, r0, beta, gamma_minus, kappa_fn, forcing, tol)


def decay_bound_lipschitz(times, r0: float, beta: float, gamma_minus: float,
                          kappa_fn: Callable, l2_fn: Callable,
                          tol: float = 1e-10) -> DecayBound:
    """Envelope driven by the Lipschitz rate ||d grad V/ds||_inf <= L2(s),
    which trades a factor 1/sqrt(kappa) for boundedness of dV/ds."""

    def forcing(u):
        kap = np.asarray(kappa_fn(u), dtype=float)
        if np.any(kap <= 0):
            raise CertificateInfeasible("kappa", "log-Sobolev constant must be positive")
        return (beta / math.sqrt(2.0)) * np.asarray(l2_fn(u), dtype=float) / np.sqrt(kap)

    return _gronwall_envelope(times, r0, beta, gamma_minus, kappa_fn, forcing, tol)


def bakry_emery_kappa(spec: BrownianSpec, s: float) -> float:
    """Log-Sobolev constant beta * min eig Hessian(V) from convexity probing."""
    center, std = spec.potential.envelope(s, spec.beta)
    lo, hi = center - 10.0 * std, center + 10.0 * std
    if spec.dimension == 1:
        pts = np.linspace(lo, hi, 2001)[:, None]
    elif spec.dimension == 2:
        g = np.linspace(lo, hi, 44)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    else:
        raise SpecError("convexity probing supports n <= 2")
    hess = spec.potential.hess(pts, s)
    kappa0 = float(np.linalg.eigvalsh(hess).min())
    if kappa0 <= 0:
        raise CertificateInfeasible(
            "convexity", f"potential is not uniformly convex at s={s}: min Hessian {kappa0:.3e}")
    return spec.beta * kappa0


# ---------------------------------------------------------------------------
# kinetic decay certificates
# ---------------------------------------------------------------------------

@dataclass
class HypocoercivityCertificate:
    """Admissible quadratic-form weights (a, b, c) and the decay rate they certify."""

    a: float
    b: float
    c: float
    xi: float
    beta: float
    hessian_bound: float
    lsi_kappa: float
    lambda1_tilde: float
    lambda2: float
    omega: float


def _dissipation_matrix(a, b, c, xi, beta, hessian_bound):
    el = hessian_bound
    return np.array([
        [xi * (1.0 / beta + 2.0 * a) - 2.0 * b * (1.0 + el), -(a + b * xi + c * el)],
        [-(a + b * xi + c * el), 2.0 * b - c],
    ])


def hypocoercivity_certificate(a: float, b: float, c: float, xi: float, beta: float,
                               hessian_bound: float, lsi_kappa: float
                               ) -> HypocoercivityCertificate:
    """Validate the constraint set and assemble the certified rate.

    Raises CertificateInfeasible naming the violated constraint.
    """
    if min(a, b, c) < 0:
        raise CertificateInfeasible("positivity", f"(a, b, c)=({a}, {b}, {c}) must be >= 0")
    if not 2.0 * b > c:
        raise CertificateInfeasible("2b > c", f"2*{b} <= {c}")
    if a * c < b * b:
        raise CertificateInfeasible("ac >= b^2", f"{a}*{c} < {b}^2")
    s_mat = np.array([[a, b], [b, c]])
    s_eigs = np.linalg.eigvalsh(s_mat)
    if s_eigs[0] < 0:
        raise CertificateInfeasible("S >= 0", f"min eig S = {s_eigs[0]:.3e}")
    tilde = _dissipation_matrix(a, b, c, xi, beta, hessian_bound)
    t_eigs = np.linalg.eigvalsh(tilde)
    if t_eigs[0] <= 0:
        raise CertificateInfeasible("S~ > 0", f"min eig S~ = {t_eigs[0]:.3e}")
    if lsi_kappa <= 0:
        raise CertificateInfeasible("kappa > 0", f"kappa = {lsi_kappa}")
    lam1 = float(t_eigs[0])
    lam2 = float(s_eigs[-1])
    omega = 0.5 * lam1 / (0.5 / min(lsi_kappa, beta) + lam2)
    return HypocoercivityCertificate(a=a, b=b, c=c, xi=xi, beta=beta,
                                     hessian_bound=hessian_bound, lsi_kappa=lsi_kappa,
                                     lambda1_tilde=lam1, lambda2=lam2, omega=omega)


def kinetic_decay_bound(cert: HypocoercivityCertificate, e0: float, times,
                        l1: float = 0.0, l2: float = 0.0) -> np.ndarray:
    """Constant-rate envelope: E(0) e^{-omega s} + steady offsets from the
    driving amplitudes L1 (value rate) and L2 (gradient rate)."""
    times = np.asarray(times, dtype=float)
    off1 = cert.beta ** 2 * l1 ** 2 / (2.0 * cert.omega ** 2)
    off2 = (cert.beta ** 2 / cert.omega) * (cert.c + 0.5 * cert.b) * l2 ** 2
    return e0 * np.exp(-cert.omega * times) + off1 + off2


def kinetic_decay_bound_time_dependent(cert: HypocoercivityCertificate, e0: float,
                                       times, omega_fn: Callable,
                                       l1_fn: Callable, l2_fn: Callable,
                                       tol: float = 1e-10) -> np.ndarray:
    """Time-dependent envelope: Gronwall with rate omega(u) and forcing
    (beta^2/2) L1(u)^2 / omega(u) + beta^2 (c + b/2) L2(u)^2."""

    def terms(grid, h):
        om = np.asarray(omega_fn(grid), dtype=float)
        if np.any(om <= 0):
            raise CertificateInfeasible("omega > 0", "time-dependent rate must be positive")
        l1v = np.asarray(l1_fn(grid), dtype=float)
        l2v = np.asarray(l2_fn(grid), dtype=float)
        forcing = 0.5 * cert.beta ** 2 * l1v ** 2 / om \
            + cert.beta ** 2 * (cert.c + 0.5 * cert.b) * l2v ** 2
        return cumulative_simpson(om, h), forcing

    return _gronwall(times, e0, terms, tol)


def _omega_grid_search(xi, beta, hessian_bound, lsi_kappa, grid_points):
    logs = np.linspace(math.log(1e-6), math.log(1e2), grid_points)
    av, bv, cv = np.meshgrid(np.exp(logs), np.exp(logs), np.exp(logs), indexing="ij")
    a, b, c = av.ravel(), bv.ravel(), cv.ravel()
    el = hessian_bound
    t11 = xi * (1.0 / beta + 2.0 * a) - 2.0 * b * (1.0 + el)
    t12 = -(a + b * xi + c * el)
    t22 = 2.0 * b - c
    mean_t = 0.5 * (t11 + t22)
    rad_t = np.sqrt(0.25 * (t11 - t22) ** 2 + t12 ** 2)
    lam1 = mean_t - rad_t
    lam2 = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b)
    feasible = (2.0 * b > c) & (a * c >= b * b) & (lam1 > 0)
    omega = np.where(feasible, 0.5 * lam1 / (0.5 / min(lsi_kappa, beta) + lam2), -np.inf)
    order = np.argsort(omega)[::-1]
    return a, b, c, omega, order


def optimize_omega(xi: float, beta: float, hessian_bound: float, lsi_kappa: float,
                   grid_points: int = 25, refine_starts: int = 5
                   ) -> HypocoercivityCertificate:
    """Best certified rate over admissible (a, b, c).

    Coarse log-grid scan over [1e-6, 1e2]^3 followed by Nelder-Mead descent in
    log-parameters from the best grid points.  Raises SpecError unless
    ``grid_points`` and ``refine_starts`` are at least 1.
    """
    from scipy.optimize import minimize

    if grid_points < 1 or refine_starts < 1:
        raise SpecError(f"optimize_omega needs grid_points and refine_starts of at least 1, "
                        f"got {grid_points} and {refine_starts}")

    a, b, c, omega, order = _omega_grid_search(xi, beta, hessian_bound, lsi_kappa,
                                               grid_points)
    if not np.isfinite(omega[order[0]]):
        raise CertificateInfeasible(
            "feasible set",
            "no admissible (a, b, c) on the scan grid; consider rescaling the "
            "friction, inverse temperature, or curvature parameters")

    def neg_omega(logp):
        try:
            cert = hypocoercivity_certificate(math.exp(logp[0]), math.exp(logp[1]),
                                              math.exp(logp[2]), xi, beta,
                                              hessian_bound, lsi_kappa)
        except CertificateInfeasible:
            return 1e30
        return -cert.omega

    best = None
    for idx in order[:refine_starts]:
        if not np.isfinite(omega[idx]):
            continue
        x0 = np.log([a[idx], b[idx], c[idx]])
        res = minimize(neg_omega, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        candidates = [res.x, x0]
        for cand in candidates:
            val = neg_omega(cand)
            if val < 1e29 and (best is None or val < best[0]):
                best = (val, cand)
    cert = hypocoercivity_certificate(math.exp(best[1][0]), math.exp(best[1][1]),
                                      math.exp(best[1][2]), xi, beta,
                                      hessian_bound, lsi_kappa)
    return cert


def modified_functional_trace(spec: LangevinSpec, laws: Sequence[GaussianLaw],
                              times, a: float, b: float, c: float) -> np.ndarray:
    """E(s) along a Gaussian path: KL + anisotropic gradient form, against the
    instantaneous Gibbs law."""
    out = np.empty(len(laws))
    for i, (s, law) in enumerate(zip(np.asarray(times, dtype=float), laws)):
        ref = gibbs_gaussian(spec, float(s))
        out[i] = gaussian_modified_functional(law, ref, a, b, c)
    return out


# ---------------------------------------------------------------------------
# transport / information inequalities
# ---------------------------------------------------------------------------

@dataclass
class InequalityReport:
    tv: float
    sqrt_two_kl: float
    w2: float
    talagrand_bound: float
    pinsker_ok: bool
    talagrand_ok: bool


def pinsker_talagrand_report(p, q, kappa: float) -> InequalityReport:
    """TV <= sqrt(2 KL) and W2 <= sqrt(2 KL / kappa) for Gaussian or 1D grid pairs.

    ``kappa`` is the log-Sobolev constant of the reference measure q.
    """
    if isinstance(p, GaussianLaw) and isinstance(q, GaussianLaw):
        kl = gaussian_kl(p, q)
        w2 = gaussian_w2(p, q)
        tv = gaussian_tv_1d(p, q) if p.dim == 1 else math.nan
    elif isinstance(p, GridDensity1D) and isinstance(q, GridDensity1D):
        kl = relative_entropy_grid(p, q)
        tv = 0.5 * float(np.sum(np.abs(p.values - q.values)) * p.h)
        w2 = _grid_w2_1d(p, q)
    else:
        raise SpecError("pinsker_talagrand_report expects two Gaussian laws or two 1D grids")
    sqrt_two_kl = math.sqrt(max(2.0 * kl, 0.0))
    tal = math.sqrt(max(2.0 * kl / kappa, 0.0))
    return InequalityReport(
        tv=tv, sqrt_two_kl=sqrt_two_kl, w2=w2, talagrand_bound=tal,
        pinsker_ok=bool(not math.isnan(tv) and tv <= sqrt_two_kl + 1e-12),
        talagrand_ok=bool(w2 <= tal + 1e-12),
    )


def _grid_w2_1d(p: GridDensity1D, q: GridDensity1D, n_quantiles: int = 20001) -> float:
    u = (np.arange(n_quantiles) + 0.5) / n_quantiles
    return math.sqrt(float(np.mean((p.quantile(u) - q.quantile(u)) ** 2)))
