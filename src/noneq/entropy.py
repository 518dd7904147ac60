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
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .errors import CertificateInfeasible, QuadratureError, SpecError
from .fokker_planck import (FPSolution, GridDensity, _cubic_weights, _rate_terms, gibbs_grid,
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
    if isinstance(states, FPSolution):
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
    [0, times[-1]]; evaluated by cumulative Simpson on doubling grids and read
    at ``times`` with 4-point cubic Lagrange weights, both fourth order, until
    the result is stable to ``tol``; QuadratureError if 9 grids do not get
    there.  ``times`` must be finite, non-negative and non-decreasing, or the
    grid would not cover them: SpecError."""
    times = np.asarray(times, dtype=float)
    if not (np.all(np.isfinite(times)) and np.all(times >= 0)
            and np.all(np.diff(times) >= 0)):
        raise SpecError("envelope times must be finite, non-negative and non-decreasing")
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
        pos = times / h if h > 0 else times  # hi = 0: every time sits on node 0
        j = np.clip(np.floor(pos), 1, m - 2).astype(np.intp)
        w_m1, w_0, w_1, w_2 = _cubic_weights(pos - j)
        cur = w_m1 * vals[j - 1] + w_0 * vals[j] + w_1 * vals[j + 1] + w_2 * vals[j + 2]
        change = math.inf if prev is None else float(np.max(np.abs(cur - prev)))
        if change <= tol:
            return cur
        prev = cur
        m *= 2
    raise QuadratureError(f"Gronwall envelope did not settle to {tol:g} on "
                          f"{m // 2 + 1} points: last change {change:.3e}")


def _gronwall_envelope(times, r0, beta, gamma_minus, kappa_fn, forcing_fn,
                       tol: float) -> DecayBound:
    """sqrt R(s) <= e^{-A(s)} sqrt R(0) + int_0^s f(u) e^{A(u)-A(s)} du with
    A(s) = (gamma_minus/beta) int_0^s kappa.  A relative entropy is never
    negative, so a negative (or NaN) R(0) = ``r0`` is a wrong input: SpecError."""
    if not r0 >= 0:
        raise SpecError(f"initial relative entropy must be non-negative, got {r0}")

    def terms(grid, h):
        kap = np.asarray(kappa_fn(grid), dtype=float)
        big_a = (gamma_minus / beta) * cumulative_simpson(kap, h)
        return big_a, np.asarray(forcing_fn(grid), dtype=float)

    return DecayBound(times=np.asarray(times, dtype=float),
                      sqrt_bound=_gronwall(times, math.sqrt(r0), terms, tol))


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


def _sym2_eigs(p, q, r):
    """(largest, smallest) eigenvalue of [[p, q], [q, r]] in float arithmetic.

    The smallest is det / largest when the largest is positive, so its sign
    is the sign of the float determinant p r - q q: a boundary point with
    ac = b^2 reads exactly 0, never a rounding-level negative.
    """
    mean = 0.5 * (p + r)
    rad = math.hypot(0.5 * (p - r), q)
    big = mean + rad
    return big, ((p * r - q * q) / big if big > 0 else mean - rad)


def _certificate_terms(a, b, c, xi, beta, hessian_bound, lsi_kappa):
    """The certificate in float arithmetic: (violated, lambda1_tilde, lambda2, omega).

    ``violated`` names the first constraint that fails, checked in the order
    positivity, 2b > c, ac >= b^2, S >= 0, S~ > 0, kappa > 0, or is None;
    terms not reached before a failure are NaN.  S = [[a, b], [b, c]] is the
    weight matrix and S~ the dissipation matrix of the modified functional.
    """
    nan = math.nan
    if min(a, b, c) < 0:
        return "positivity", nan, nan, nan
    if not 2.0 * b > c:
        return "2b > c", nan, nan, nan
    if a * c < b * b:
        return "ac >= b^2", nan, nan, nan
    lam2, s_min = _sym2_eigs(a, b, c)
    if not s_min >= 0:
        return "S >= 0", nan, lam2, nan
    el = hessian_bound
    _, lam1 = _sym2_eigs(xi * (1.0 / beta + 2.0 * a) - 2.0 * b * (1.0 + el),
                         -(a + b * xi + c * el), 2.0 * b - c)
    if not lam1 > 0:
        return "S~ > 0", lam1, lam2, nan
    if lsi_kappa <= 0:
        return "kappa > 0", lam1, lam2, nan
    return None, lam1, lam2, 0.5 * lam1 / (0.5 / min(lsi_kappa, beta) + lam2)


def hypocoercivity_certificate(a: float, b: float, c: float, xi: float, beta: float,
                               hessian_bound: float, lsi_kappa: float
                               ) -> HypocoercivityCertificate:
    """Validate the constraint set and assemble the certified rate.

    Raises CertificateInfeasible naming the violated constraint.
    """
    violated, lam1, lam2, omega = _certificate_terms(a, b, c, xi, beta, hessian_bound,
                                                     lsi_kappa)
    if violated is not None:
        detail = {"positivity": f"(a, b, c)=({a}, {b}, {c}) must be >= 0",
                  "2b > c": f"2*{b} <= {c}",
                  "ac >= b^2": f"{a}*{c} < {b}^2",
                  "S >= 0": f"min eig S = {(a * c - b * b) / lam2:.3e}",
                  "S~ > 0": f"min eig S~ = {lam1:.3e}",
                  "kappa > 0": f"kappa = {lsi_kappa}"}[violated]
        raise CertificateInfeasible(violated, detail)
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
    # _sym2_eigs on arrays; the grid weights are positive, so S has largest eigenvalue > 0
    t_mean = 0.5 * (t11 + t22)
    t_rad = np.hypot(0.5 * (t11 - t22), t12)
    t_big = t_mean + t_rad
    with np.errstate(divide="ignore", invalid="ignore"):
        lam1 = np.where(t_big > 0, (t11 * t22 - t12 * t12) / t_big, t_mean - t_rad)
    lam2 = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    feasible = (2.0 * b > c) & (a * c >= b * b) & (lam1 > 0)
    omega = np.where(feasible, 0.5 * lam1 / (0.5 / min(lsi_kappa, beta) + lam2), -np.inf)
    order = np.argsort(omega)[::-1]
    return a, b, c, omega, order


# Nelder-Mead (Nelder & Mead, Comput. J. 7:308, 1965) with the coefficients,
# the initial simplex and the stopping rule of scipy's default method:
# reflection 1, expansion 2, contraction 1/2, shrink 1/2; the start plus one
# vertex per coordinate moved by 5 % (or to 0.00025 from 0); stop once every
# vertex is within _NM_XATOL of the best in each coordinate and within
# _NM_FATOL of it in value, or after _NM_MAXITER iterations.
_NM_XATOL = 1e-10
_NM_FATOL = 1e-14
_NM_MAXITER = 4000


def _nelder_mead(fun: Callable, x0: Sequence[float]) -> list:
    """The vertex with the lowest ``fun`` when the simplex stops."""
    n = len(x0)
    verts = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        verts.append(y)
    simplex = sorted(((fun(x), x) for x in verts), key=itemgetter(0))
    for _ in range(1, _NM_MAXITER):
        f_best, best = simplex[0]
        if (max(abs(v - w) for _, x in simplex[1:] for v, w in zip(x, best)) <= _NM_XATOL
                and max(abs(f_best - f) for f, _ in simplex[1:]) <= _NM_FATOL):
            break
        f_worst, worst = simplex[-1]
        total = simplex[0][1]  # summed in vertex order, as scipy does
        for _, x in simplex[1:-1]:
            total = [s + v for s, v in zip(total, x)]
        xbar = [s / n for s in total]
        xr = [2.0 * m - w for m, w in zip(xbar, worst)]
        fr = fun(xr)
        if fr < f_best:
            xe = [3.0 * m - 2.0 * w for m, w in zip(xbar, worst)]
            fe = fun(xe)
            simplex[-1] = (fe, xe) if fe < fr else (fr, xr)
        elif fr < simplex[-2][0]:
            simplex[-1] = (fr, xr)
        else:
            if fr < f_worst:
                xc = [1.5 * m - 0.5 * w for m, w in zip(xbar, worst)]
                fc = fun(xc)
                contracted = fc <= fr
            else:
                xc = [0.5 * m + 0.5 * w for m, w in zip(xbar, worst)]
                fc = fun(xc)
                contracted = fc < f_worst
            if contracted:
                simplex[-1] = (fc, xc)
            else:
                shrunk = [[v + 0.5 * (u - v) for u, v in zip(x, best)]
                          for _, x in simplex[1:]]
                simplex[1:] = [(fun(x), x) for x in shrunk]
        simplex.sort(key=itemgetter(0))
    return simplex[0][1]


def optimize_omega(xi: float, beta: float, hessian_bound: float, lsi_kappa: float,
                   grid_points: int = 25, refine_starts: int = 5
                   ) -> HypocoercivityCertificate:
    """Best certified rate over admissible (a, b, c).

    Coarse log-grid scan over [1e-6, 1e2]^3, then a float Nelder-Mead simplex
    in log-parameters from each of the ``refine_starts`` best grid points.
    The simplex reads the rate from the same float arithmetic as
    ``hypocoercivity_certificate``, which validates the returned point.
    Raises SpecError unless ``grid_points`` and ``refine_starts`` are at
    least 1.
    """
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
        violated, _, _, rate = _certificate_terms(math.exp(logp[0]), math.exp(logp[1]),
                                                  math.exp(logp[2]), xi, beta,
                                                  hessian_bound, lsi_kappa)
        return 1e30 if violated is not None else -rate

    best = None
    for idx in order[:refine_starts]:
        if not np.isfinite(omega[idx]):
            continue
        x0 = [math.log(a[idx]), math.log(b[idx]), math.log(c[idx])]
        for cand in [_nelder_mead(neg_omega, x0), x0]:
            val = neg_omega(cand)
            if val < 1e29 and (best is None or val < best[0]):
                best = (val, cand)
    return hypocoercivity_certificate(math.exp(best[1][0]), math.exp(best[1][1]),
                                      math.exp(best[1][2]), xi, beta,
                                      hessian_bound, lsi_kappa)


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
    elif isinstance(p, GridDensity) and isinstance(q, GridDensity):
        kl = relative_entropy_grid(p, q)
        tv = 0.5 * float(np.sum(np.abs(p.values - q.values)) * math.prod(p.spacings))
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


def _grid_w2_1d(p: GridDensity, q: GridDensity, n_quantiles: int = 20001) -> float:
    u = (np.arange(n_quantiles) + 0.5) / n_quantiles
    return math.sqrt(float(np.mean((p.quantile(u) - q.quantile(u)) ** 2)))
