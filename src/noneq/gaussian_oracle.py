"""Closed-form Gaussian machinery.

Quadratic potentials keep every law in play Gaussian, so moments, relative
entropies, Fisher-type integrals, fundamental matrices and the quadratic
value function of the optimal importance-sampling control are all available
in closed (or ODE-exact) form.  The rest of the package uses these results as
oracles for its grid and Monte Carlo routes.

Every ODE here is built on the affine drift and noise rate that
``spec.linear_system()`` gives for either kind of spec: the one moment
equation, the kinetic flow map and the one matrix Riccati equation of the
quadratic value function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpError, SpecError
from .model import BrownianSpec, LangevinSpec, gibbs_gaussian, partition_function
from .odes import rk4_path

RICCATI_BLOWUP = 1e8
RICCATI_MAX_STEP = 1.0 / 800  # largest RK4 step of a backward Riccati solve


# ---------------------------------------------------------------------------
# Gaussian laws and divergences
# ---------------------------------------------------------------------------

@dataclass
class GaussianLaw:
    """A nondegenerate Gaussian on R^d."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise SpecError("covariance shape does not match the mean")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise SpecError("covariance must be symmetric")
        if np.linalg.eigvalsh(self.cov).min() <= 0:
            raise SpecError("covariance must be positive definite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def precision(self) -> np.ndarray:
        return np.linalg.inv(self.cov)

    def logpdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dev = x - self.mean
        prec = self.precision()
        quad = np.einsum("...i,ij,...j->...", dev, prec, dev)
        _, logdet = np.linalg.slogdet(self.cov)
        return -0.5 * (quad + self.dim * math.log(2.0 * math.pi) + logdet)

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def score(self, x) -> np.ndarray:
        """grad log density."""
        x = np.asarray(x, dtype=float)
        return -(x - self.mean) @ self.precision().T

    def sample(self, generator: np.random.Generator, size: int) -> np.ndarray:
        chol = np.linalg.cholesky(self.cov)
        z = generator.standard_normal((size, self.dim))
        return self.mean + z @ chol.T


def gaussian_kl(p: GaussianLaw, q: GaussianLaw) -> float:
    """KL(P || Q) for Gaussians."""
    if p.dim != q.dim:
        raise SpecError("dimension mismatch")
    d = p.dim
    qprec = q.precision()
    dm = q.mean - p.mean
    _, logdet_p = np.linalg.slogdet(p.cov)
    _, logdet_q = np.linalg.slogdet(q.cov)
    return 0.5 * (np.trace(qprec @ p.cov) + dm @ qprec @ dm - d + logdet_q - logdet_p)


def gaussian_weighted_fisher(p: GaussianLaw, q: GaussianLaw, weight: np.ndarray) -> float:
    """E_P[ (grad ln dP/dQ)^T  W  (grad ln dP/dQ) ] for a constant SPD-ish W.

    The integrand's gradient is affine: G(x) = M x + v with
    M = Q^-1 - P^-1 and v = P^-1 mu_P - Q^-1 mu_Q.
    """
    weight = np.atleast_2d(np.asarray(weight, dtype=float))
    pprec = p.precision()
    qprec = q.precision()
    m = qprec - pprec
    g_mean = qprec @ (p.mean - q.mean)
    return float(np.trace(weight @ m @ p.cov @ m.T) + g_mean @ weight @ g_mean)


def gaussian_modified_functional(p: GaussianLaw, q: GaussianLaw,
                                 a: float, b: float, c: float) -> float:
    """KL plus the anisotropic gradient form used by kinetic decay estimates.

    For phase-space laws ordered (q, p) in R^{2n}:
        KL(P||Q) + E_P[ a |grad_p u|^2 + 2 b grad_p u . grad_q u + c |grad_q u|^2 ]
    with u = ln dP/dQ.
    """
    if p.dim % 2 != 0:
        raise SpecError("modified functional expects a phase-space (even) dimension")
    n = p.dim // 2
    weight = np.zeros((2 * n, 2 * n))
    weight[:n, :n] = c * np.eye(n)
    weight[:n, n:] = b * np.eye(n)
    weight[n:, :n] = b * np.eye(n)
    weight[n:, n:] = a * np.eye(n)
    return gaussian_kl(p, q) + gaussian_weighted_fisher(p, q, weight)


def gaussian_w2(p: GaussianLaw, q: GaussianLaw) -> float:
    """Quadratic Wasserstein distance between Gaussians (Bures form)."""
    if p.dim != q.dim:
        raise SpecError("dimension mismatch")
    dm = p.mean - q.mean
    sq = _sym_sqrt(q.cov)
    cross = _sym_sqrt(sq @ p.cov @ sq)
    inner = np.trace(p.cov + q.cov - 2.0 * cross)
    return math.sqrt(max(float(dm @ dm + inner), 0.0))


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_tv_1d(p: GaussianLaw, q: GaussianLaw) -> float:
    """Exact total variation between one-dimensional Gaussians.

    The densities cross at the real roots of a quadratic; TV is assembled
    from CDF differences between consecutive crossing points.
    """
    if p.dim != 1 or q.dim != 1:
        raise SpecError("exact TV is implemented for d = 1")
    m1, v1 = float(p.mean[0]), float(p.cov[0, 0])
    m2, v2 = float(q.mean[0]), float(q.cov[0, 0])
    if m1 == m2 and v1 == v2:
        return 0.0
    # ln p - ln q = A x^2 + B x + C
    a2 = -0.5 / v1 + 0.5 / v2
    a1 = m1 / v1 - m2 / v2
    a0 = -0.5 * m1 * m1 / v1 + 0.5 * m2 * m2 / v2 + 0.5 * math.log(v2 / v1)
    if abs(a2) < 1e-300:
        roots = [] if a1 == 0 else [-a0 / a1]
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        roots = [] if disc < 0 else sorted({(-a1 - math.sqrt(disc)) / (2 * a2),
                                            (-a1 + math.sqrt(disc)) / (2 * a2)})
    pts = [-math.inf] + list(roots) + [math.inf]
    tv = 0.0
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    for lo, hi in zip(pts[:-1], pts[1:]):
        fp = (_norm_cdf((hi - m1) / s1) if hi < math.inf else 1.0) - \
             (_norm_cdf((lo - m1) / s1) if lo > -math.inf else 0.0)
        fq = (_norm_cdf((hi - m2) / s2) if hi < math.inf else 1.0) - \
             (_norm_cdf((lo - m2) / s2) if lo > -math.inf else 0.0)
        tv += abs(fp - fq)
    return 0.5 * tv


# ---------------------------------------------------------------------------
# moment propagation: linear SDEs of either kind
# ---------------------------------------------------------------------------

def _pack(mean, cov):
    return np.concatenate([mean.ravel(), cov.ravel()])


def _unpack(y, n):
    return y[:n], y[n:].reshape(n, n)


def _moment_rhs(c, y):
    amat, force, noise = c
    m, cov = _unpack(np.array(y), len(force))
    dm = amat.dot(m) + force
    dc = amat.dot(cov) + cov.dot(amat.T) + noise
    return dm.tolist() + dc.ravel().tolist()


def _forward_times(times) -> np.ndarray:
    """Knots of a forward solve: SpecError if they decrease; a repeat is a zero step."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise SpecError("moment propagation needs non-decreasing times")
    return times


def ou_moments_path(spec: BrownianSpec | LangevinSpec, init: GaussianLaw, times,
                    substeps: int = 16):
    """Gaussian laws at ``times`` (ODE-exact moments) of the linear dynamics of
    either kind of spec, on the stacked states of its drift, starting from
    ``init`` at times[0]."""
    coef, times = spec.linear_system(), _forward_times(times)
    dim = spec.noise_factor(0.0).shape[0]
    if init.dim != dim:
        raise SpecError(f"initial law has dimension {init.dim}, the dynamics {dim}")
    ys = rk4_path(_moment_rhs, coef, _pack(init.mean, init.cov), times, substeps)
    return [GaussianLaw(m, 0.5 * (c + c.T)) for m, c in (_unpack(y, dim) for y in ys)]


def ou_moments(spec: BrownianSpec, init: GaussianLaw, s: float, substeps: int = 32) -> GaussianLaw:
    steps = max(8, int(math.ceil(abs(s) / 0.05)))
    times = np.linspace(0.0, s, steps + 1)
    return ou_moments_path(spec, init, times, substeps)[-1]


# ---------------------------------------------------------------------------
# kinetic (Langevin) propagation and the fundamental matrix
# ---------------------------------------------------------------------------

@dataclass
class FundamentalMatrix:
    """Flow map Gamma(s) of the noise-free linear kinetic dynamics.

    Gamma solves dGamma/ds = -Sigma(s) Gamma with Gamma(0) = I, where
    Sigma(s) = [[0, -M^-1], [eta(s) I, xi M^-1]] collects the generator
    blocks; consequently det Gamma(s) = exp(-xi tr(M^-1) s) for every
    stiffness schedule.
    """

    times: np.ndarray
    gammas: np.ndarray  # (len(times), 2n, 2n)
    mass_inv: np.ndarray
    xi: float

    def det_identity_residual(self) -> float:
        """max_s |det Gamma(s) * exp(xi tr(M^-1) s) - 1|."""
        trace = self.xi * np.trace(self.mass_inv)
        dets = np.linalg.det(self.gammas)
        return float(np.max(np.abs(dets * np.exp(trace * self.times) - 1.0)))


def _flow_rhs(c, g):
    amat = c[0]
    return amat.dot(np.array(g).reshape(amat.shape)).ravel().tolist()


class LangevinPropagator:
    """Gaussian law transport for linear kinetic dynamics on a time grid.

    The flow map ``fundamental`` is integrated on first access.
    """

    def __init__(self, spec: LangevinSpec, times, substeps: int = 16):
        self.spec = spec
        self.times = _forward_times(times)
        self.substeps = substeps
        self._coef = spec.linear_system()

    @cached_property
    def fundamental(self) -> FundamentalMatrix:
        eye = np.eye(2 * self.spec.dimension)
        gammas = rk4_path(_flow_rhs, self._coef, eye, self.times, self.substeps)
        return FundamentalMatrix(times=self.times, gammas=gammas,
                                 mass_inv=self.spec.mass_inv, xi=self.spec.xi)

    def push(self, init: GaussianLaw):
        """Laws at every grid time, starting from ``init`` at times[0]."""
        return ou_moments_path(self.spec, init, self.times, self.substeps)


def langevin_propagator(spec: LangevinSpec, times, substeps: int = 16) -> LangevinPropagator:
    return LangevinPropagator(spec, times, substeps)


# ---------------------------------------------------------------------------
# quadratic value function of the optimal control
# ---------------------------------------------------------------------------

def _riccati_grid(times, horizon: float) -> np.ndarray:
    """Knots of a backward Riccati solve: increasing, ending at the horizon."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or not np.all(np.diff(times) > 0):
        raise SpecError("riccati grid needs at least two strictly increasing knots")
    if abs(times[-1] - horizon) > 1e-12:
        raise SpecError("riccati grid must end at the horizon")
    return times


def _riccati_substeps(times: np.ndarray) -> int:
    """The fewest RK4 substeps per knot interval whose step is at most
    RICCATI_MAX_STEP on every interval."""
    return max(1, math.ceil(float(np.max(np.diff(times))) / RICCATI_MAX_STEP - 1e-9))


def _riccati_solve(rhs, coef, shape: tuple, times: np.ndarray) -> np.ndarray:
    """Coefficients at ``times`` of the backward flow from zero data of
    ``shape`` at the horizon.  The stage guard passes NaN (no comparison
    with NaN is true), so the solved path is checked once here: BlowUpError
    at the latest time where a coefficient is not finite."""
    back = rk4_path(rhs, coef, np.zeros(shape), times[::-1], _riccati_substeps(times))
    bad = ~np.isfinite(back.reshape(len(times), -1)).all(axis=1)
    if bad.any():
        s = times[::-1][bad.argmax()]
        raise BlowUpError(f"riccati coefficients are not finite at s={s:.6g}")
    return back[::-1]


class QuadraticValueFunction:
    """Backward quadratic value function U(x, s) = x^T P x / 2 + q^T x + c.

    U = -ln(g)/beta for the work-tilted expectation g of a quadratic
    potential, for either kind of spec, on the stacked states x of its
    drift.  With z = (x, 1) and W = [[P, q], [q^T, 2c]], U = z^T W z / 2, and
    the dynamic-programming equation of the affine drift A x + f with noise
    sqrt(2/beta) B dw becomes one matrix Riccati equation

        W' = -(A~^T W + W A~) + 2 W G~ W - Q~,  and -(2/beta) tr(G P) in the corner,

    where A~ = [[A, f], [0, 0]], G~ is G = B B^T padded with zeros and Q~ is
    dV/ds as a quadratic form in z on the position coordinates (Hartmann &
    Schuette, J. Stat. Mech. (2012) P11004).  W(T) = 0; between knots W is
    linear in s.  Exposes the value, g = exp(-beta U), the optimal feedback
    u*(x, s) = -2 B(s)^T grad U and the tilted initial law.
    """

    def __init__(self, spec: BrownianSpec | LangevinSpec, times):
        self.spec = spec
        self.times = _riccati_grid(times, spec.horizon)
        system = spec.linear_system()
        pot, beta, n = spec.potential, spec.beta, spec.dimension
        width = spec.noise_factor(0.0).shape[0] + 1

        def coef(s):
            amat, force, noise = system(s)
            atil = np.zeros(s.shape + (width, width))
            atil[..., :-1, :-1] = amat
            atil[..., :-1, -1] = force
            gtil = np.zeros_like(atil)
            gtil[..., :-1, :-1] = (0.5 * beta) * noise
            k, kd = pot.k.value(s), pot.k.derivative(s)
            mu, mud = pot.mu.value(s), pot.mu.derivative(s)
            qtil = np.zeros_like(atil)
            qtil[..., range(n), range(n)] = kd[..., None]
            qtil[..., :n, -1] = qtil[..., -1, :n] = -(kd * mu + k * mud)[..., None]
            qtil[..., -1, -1] = 2.0 * n * (0.5 * kd * mu * mu + k * mud * mu)
            return s, atil, gtil, qtil

        def rhs(c, y):
            s, atil, gtil, qtil = c
            if max(map(abs, y)) > RICCATI_BLOWUP:
                raise BlowUpError(
                    f"riccati coefficients exceeded {RICCATI_BLOWUP:.0e} at s={s:.6g}")
            w = np.array(y).reshape(width, width)
            wg = w.dot(gtil)
            aw = atil.T.dot(w)
            wgw = wg.dot(w)
            dw = wgw + wgw.T - (aw + aw.T) - qtil
            dw[-1, -1] -= (2.0 / beta) * wg.trace()
            return dw.ravel().tolist()

        self.w = _riccati_solve(rhs, coef, (width, width), self.times)

    def _w(self, s) -> np.ndarray:
        """W at time s (clamped to the knots), linear between the two knots around it."""
        times = self.times
        s = min(max(float(s), times[0]), times[-1])
        j = min(int(np.searchsorted(times, s, side="right")) - 1, len(times) - 2)
        frac = (s - times[j]) / (times[j + 1] - times[j])
        return (1.0 - frac) * self.w[j] + frac * self.w[j + 1]

    def value(self, x, s):
        x = np.asarray(x, dtype=float)
        w = self._w(s)
        quad = np.einsum("...i,ij,...j->...", x, w[:-1, :-1], x)
        return 0.5 * quad + x @ w[:-1, -1] + 0.5 * w[-1, -1]

    def g(self, x, s):
        return np.exp(-self.spec.beta * self.value(x, s))

    def control(self, x, s):
        """Optimal feedback u*(x, s) = -2 B(s)^T (P x + q), one row per state."""
        w = self._w(s)
        grad = np.asarray(x, dtype=float) @ w[:-1, :-1] + w[:-1, -1]
        return -2.0 * grad @ self.spec.noise_factor(s)

    def _tilted(self):
        """The Gibbs law at time 0, its precision, and the precision and
        precision @ mean of the tilted start: the Gibbs law, a Gaussian
        exp(-beta E(., 0)) / Z(0) whose energy has its minimum 0, times
        exp(-beta U(., 0))."""
        gibbs = gibbs_gaussian(self.spec, 0.0)
        prec0 = gibbs.precision()
        beta, w0 = self.spec.beta, self.w[0]
        prec = prec0 + beta * w0[:-1, :-1]
        if np.linalg.eigvalsh(prec)[0] <= 0:
            raise BlowUpError("tilted initial law is not normalisable")
        return gibbs, prec0, prec, prec0 @ gibbs.mean - beta * w0[:-1, -1]

    def tilted_initial_law(self) -> GaussianLaw:
        """Normalised law proportional to exp(-beta (E(., 0) + U(., 0)))."""
        _, _, prec, shift = self._tilted()
        cov = np.linalg.inv(prec)
        return GaussianLaw(cov @ shift, cov)

    def tilted_initial_mass(self) -> float:
        """integral of exp(-beta (E(., 0) + U(., 0))) / Z(T); 1 when all is consistent."""
        gibbs, prec0, prec, shift = self._tilted()
        m0 = gibbs.mean
        _, logdet = np.linalg.slogdet(prec)
        log_mass = (0.5 * len(m0) * math.log(2.0 * math.pi) - 0.5 * logdet
                    + 0.5 * shift @ np.linalg.solve(prec, shift) - 0.5 * m0 @ prec0 @ m0
                    - 0.5 * self.spec.beta * self.w[0, -1, -1])
        return math.exp(log_mass) / partition_function(self.spec, self.spec.horizon).z


def riccati_value_function(spec: BrownianSpec | LangevinSpec, times) -> QuadraticValueFunction:
    return QuadraticValueFunction(spec, times)
