"""Closed-form Gaussian machinery.

Quadratic potentials keep every law in play Gaussian, so moments, relative
entropies, Fisher-type integrals, fundamental matrices and the quadratic
value function of the optimal importance-sampling control are all available
in closed (or ODE-exact) form.  The rest of the package uses these results as
oracles for its grid and Monte Carlo routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlowUpError, SpecError
from .model import BrownianSpec, LangevinSpec, NoCirculation, RotationCirculation, \
    RadialLinearCirculation
from .odes import rk4_path

RICCATI_BLOWUP = 1e8


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

    def marginal(self, indices: Sequence[int]) -> "GaussianLaw":
        idx = np.asarray(indices, dtype=int)
        return GaussianLaw(self.mean[idx], self.cov[np.ix_(idx, idx)])


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
# moment propagation: overdamped linear SDEs
# ---------------------------------------------------------------------------

def _circulation_matrix(circ, n: int) -> np.ndarray:
    from .model import _NegatedMirroredCirculation

    if isinstance(circ, NoCirculation):
        return np.zeros((n, n))
    if isinstance(circ, RotationCirculation):
        if n != 2:
            raise SpecError("rotation circulation is two-dimensional")
        return circ.rate * np.array([[0.0, 1.0], [-1.0, 0.0]])
    if isinstance(circ, RadialLinearCirculation):
        return circ.rate * np.eye(n)
    if isinstance(circ, _NegatedMirroredCirculation):
        # built-in linear circulations carry no time dependence, so the
        # mirrored field is just the negation
        return -_circulation_matrix(circ.inner, n)
    raise SpecError("circulation field is not linear; no Gaussian oracle available")


def _ou_system(spec: BrownianSpec):
    if not spec.potential.is_quadratic:
        raise SpecError("ou_moments requires a quadratic potential")
    n = spec.dimension
    jmat = _circulation_matrix(spec.circulation, n)
    pot = spec.potential
    ones = np.ones(n)

    def amat(s):
        return jmat - float(pot.k.value(s)) * spec.diffusion.gamma(s)

    def force(s):
        return float(pot.k.value(s)) * float(pot.mu.value(s)) * (spec.diffusion.gamma(s) @ ones)

    def noise(s):
        return (2.0 / spec.beta) * spec.diffusion.gamma(s)

    return amat, force, noise


def _pack(mean, cov):
    return np.concatenate([mean.ravel(), cov.ravel()])


def _unpack(y, n):
    return y[:n], y[n:].reshape(n, n)


def _moment_path(amat, force, noise, init: GaussianLaw, times, substeps=16):
    n = init.dim

    def rhs(s, y):
        m, c = _unpack(y, n)
        a = amat(s)
        dm = a @ m + force(s)
        dc = a @ c + c @ a.T + noise(s)
        return _pack(dm, dc)

    ys = rk4_path(rhs, _pack(init.mean, init.cov), np.asarray(times, dtype=float), substeps)
    laws = []
    for y in ys:
        m, c = _unpack(y, n)
        laws.append(GaussianLaw(m, 0.5 * (c + c.T)))
    return laws


def ou_moments_path(spec: BrownianSpec, init: GaussianLaw, times, substeps: int = 16):
    """Gaussian laws of the overdamped process at ``times`` (ODE-exact moments)."""
    amat, force, noise = _ou_system(spec)
    return _moment_path(amat, force, noise, init, times, substeps)


def ou_moments(spec: BrownianSpec, init: GaussianLaw, s: float, substeps: int = 32) -> GaussianLaw:
    steps = max(8, int(math.ceil(abs(s) / 0.05)))
    times = np.linspace(0.0, s, steps + 1)
    return ou_moments_path(spec, init, times, substeps)[-1]


# ---------------------------------------------------------------------------
# kinetic (Langevin) propagation and the fundamental matrix
# ---------------------------------------------------------------------------

def _langevin_system(spec: LangevinSpec, reverse: bool = False):
    """Drift matrix A(s), affine force, and noise rate of the linear dynamics.

    Forward:  d(q,p) = A (q,p) ds + noise on p,
              A = [[0, M^-1], [-eta(s) I, -xi M^-1]].
    Reverse:  the Hamiltonian part flips sign and time mirrors:
              A_R(s) = [[0, -M^-1], [eta(T-s) I, -xi M^-1]].
    """
    if not spec.potential.is_quadratic:
        raise SpecError("langevin propagation requires a quadratic potential")
    n = spec.dimension
    pot = spec.potential
    minv = spec.mass_inv
    T = spec.horizon

    def amat(s):
        t = T - s if reverse else s
        eta = float(pot.k.value(t))
        sign = -1.0 if reverse else 1.0
        a = np.zeros((2 * n, 2 * n))
        a[:n, n:] = sign * minv
        a[n:, :n] = -sign * eta * np.eye(n)
        a[n:, n:] = -spec.xi * minv
        return a

    def force(s):
        t = T - s if reverse else s
        eta = float(pot.k.value(t))
        mu = float(pot.mu.value(t))
        sign = -1.0 if reverse else 1.0
        f = np.zeros(2 * n)
        f[n:] = sign * eta * mu * np.ones(n)
        return f

    noise_rate = np.zeros((2 * n, 2 * n))
    noise_rate[n:, n:] = (2.0 * spec.xi / spec.beta) * np.eye(n)

    def noise(s):
        return noise_rate

    return amat, force, noise


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

    def sigma(self, s, eta: float) -> np.ndarray:
        n = self.mass_inv.shape[0]
        out = np.zeros((2 * n, 2 * n))
        out[:n, n:] = -self.mass_inv
        out[n:, :n] = eta * np.eye(n)
        out[n:, n:] = self.xi * self.mass_inv
        return out

    def det_identity_residual(self) -> float:
        """max_s |det Gamma(s) * exp(xi tr(M^-1) s) - 1|."""
        trace = self.xi * np.trace(self.mass_inv)
        dets = np.linalg.det(self.gammas)
        return float(np.max(np.abs(dets * np.exp(trace * self.times) - 1.0)))


class LangevinPropagator:
    """Gaussian law transport for linear kinetic dynamics on a time grid."""

    def __init__(self, spec: LangevinSpec, times, reverse: bool = False, substeps: int = 16):
        self.spec = spec
        self.reverse = reverse
        self.times = np.asarray(times, dtype=float)
        self.substeps = substeps
        self._amat, self._force, self._noise = _langevin_system(spec, reverse)
        n = spec.dimension
        eye = np.eye(2 * n)

        def gamma_rhs(s, g):
            return self._amat(s) @ g

        gammas = rk4_path(gamma_rhs, eye, self.times, substeps)
        self.fundamental = FundamentalMatrix(times=self.times, gammas=gammas,
                                             mass_inv=spec.mass_inv, xi=spec.xi)

    def push(self, init: GaussianLaw):
        """Laws at every grid time, starting from ``init`` at times[0]."""
        return _moment_path(self._amat, self._force, self._noise, init,
                            self.times, self.substeps)


def langevin_propagator(spec: LangevinSpec, times, reverse: bool = False,
                        substeps: int = 16) -> LangevinPropagator:
    return LangevinPropagator(spec, times, reverse, substeps)


# ---------------------------------------------------------------------------
# quadratic value function of the optimal control (overdamped, 1D)
# ---------------------------------------------------------------------------

class BrownianRiccati:
    """Backward quadratic solution U(x, s) = alpha s x^2 + delta x + c0.

    Solves the dynamic-programming equation for the work-tilted generator of
    a one-dimensional quadratic potential; exposes the value function, the
    optimal feedback control u*(x, s) = -2 sigma dU/dx, the positive factor
    g = exp(-beta U) and the tilted initial law.
    """

    def __init__(self, spec: BrownianSpec, times, substeps: int = 32):
        if spec.dimension != 1:
            raise SpecError("the quadratic value function solver is one-dimensional")
        if not spec.potential.is_quadratic:
            raise SpecError("riccati solution requires a quadratic potential")
        if not isinstance(spec.circulation, NoCirculation):
            raise SpecError("riccati solution assumes zero circulation")
        self.spec = spec
        self.times = np.asarray(times, dtype=float)
        if abs(self.times[-1] - spec.horizon) > 1e-12:
            raise SpecError("riccati grid must end at the horizon")
        pot = spec.potential

        def gamma_s(s):
            return float(spec.diffusion.gamma(s)[0, 0])

        def rhs(s, y):
            alpha, delta, c0 = y
            if max(abs(alpha), abs(delta), abs(c0)) > RICCATI_BLOWUP:
                raise BlowUpError(
                    f"riccati coefficients exceeded {RICCATI_BLOWUP:.0e} at s={s:.6g}")
            g = gamma_s(s)
            k = float(pot.k.value(s))
            kd = float(pot.k.derivative(s))
            mu = float(pot.mu.value(s))
            mud = float(pot.mu.derivative(s))
            da = 2.0 * g * k * alpha + 4.0 * g * alpha * alpha - 0.5 * kd
            dd = g * k * delta + 4.0 * g * alpha * delta - 2.0 * g * k * alpha * mu \
                + kd * mu + k * mud
            dc = -g * k * mu * delta - 2.0 * g * alpha / spec.beta + g * delta * delta \
                - 0.5 * kd * mu * mu - k * mud * mu
            return np.array([da, dd, dc])

        back = rk4_path(rhs, np.zeros(3), self.times[::-1], substeps)
        coeffs = back[::-1]
        self.alpha = coeffs[:, 0].copy()
        self.delta = coeffs[:, 1].copy()
        self.c0 = coeffs[:, 2].copy()

    def _coef(self, s):
        a = np.interp(s, self.times, self.alpha)
        d = np.interp(s, self.times, self.delta)
        c = np.interp(s, self.times, self.c0)
        return a, d, c

    def value(self, x, s):
        x = np.asarray(x, dtype=float)
        a, d, c = self._coef(s)
        return a * x * x + d * x + c

    def grad(self, x, s):
        x = np.asarray(x, dtype=float)
        a, d, _ = self._coef(s)
        return 2.0 * a * x + d

    def g(self, x, s):
        return np.exp(-self.spec.beta * self.value(x, s))

    def control(self, x, s):
        """Optimal feedback u*(x, s) = -2 sigma(s)^T dU/dx (scalar field)."""
        sig = float(self.spec.diffusion.sigma(s)[0, 0])
        return -2.0 * sig * self.grad(x, s)

    def tilted_initial_law(self) -> GaussianLaw:
        """Normalised law proportional to exp(-beta (V(., 0) + U(., 0)))."""
        pot = self.spec.potential
        k0 = float(pot.k.value(0.0))
        mu0 = float(pot.mu.value(0.0))
        a0, d0, _ = self.alpha[0], self.delta[0], self.c0[0]
        prec = self.spec.beta * (k0 + 2.0 * a0)
        if prec <= 0:
            raise BlowUpError("tilted initial law is not normalisable")
        var = 1.0 / prec
        mean = -(d0 - k0 * mu0) / (k0 + 2.0 * a0)
        return GaussianLaw(np.array([mean]), np.array([[var]]))

    def tilted_initial_mass(self, z_horizon: float | None = None) -> float:
        """integral of exp(-beta(V+U)) / Z(T); equals 1 when all is consistent."""
        from .model import partition_function

        if z_horizon is None:
            z_horizon = partition_function(self.spec, self.spec.horizon).z
        pot = self.spec.potential
        beta = self.spec.beta
        k0 = float(pot.k.value(0.0))
        mu0 = float(pot.mu.value(0.0))
        a = beta * (0.5 * k0 + self.alpha[0])
        b = beta * (self.delta[0] - k0 * mu0)
        c = beta * (0.5 * k0 * mu0 * mu0 + self.c0[0])
        integral = math.sqrt(math.pi / a) * math.exp(b * b / (4.0 * a) - c)
        return integral / z_horizon


def riccati_value_function(spec: BrownianSpec, times, substeps: int = 32) -> BrownianRiccati:
    return BrownianRiccati(spec, times, substeps)
