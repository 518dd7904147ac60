"""Process specifications: potentials, circulation fields, diffusion factors.

A Brownian specification describes the overdamped SDE

    dx = (J - gamma grad V) ds + sqrt(2/beta) sigma dw,

with gamma = sigma sigma^T and sigma independent of the state, on a finite
horizon [0, T].  A Langevin specification describes the kinetic dynamics

    dq = M^-1 p ds,
    dp = -grad V ds - xi M^-1 p ds + sqrt(2 xi / beta) dw.

Both carry a transient equilibrium family: the Gibbs measure
exp(-beta E(., s)) / Z(s) of the frozen energy E = ``spec.energy`` (V for
Brownian, H = V + p^T M^-1 p / 2 for Langevin), with free energy
F(s) = -ln(Z(s)) / beta.  This module is the only one that knows how that
family, and the reverse process, depend on the kind of spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, QuadratureError, SpecError

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# scalar schedules
# ---------------------------------------------------------------------------

class Schedule:
    """A smooth scalar function of time with an analytic derivative."""

    def value(self, s):
        raise NotImplementedError

    def derivative(self, s):
        raise NotImplementedError


class Constant(Schedule):
    def __init__(self, value: float):
        self.c = float(value)

    def value(self, s):
        return self.c + 0.0 * np.asarray(s, dtype=float)

    def derivative(self, s):
        return 0.0 * np.asarray(s, dtype=float)

    def __repr__(self):
        return f"Constant({self.c})"


class Linear(Schedule):
    """Linear ramp from ``start`` at s=0 to ``end`` at s=horizon."""

    def __init__(self, start: float, end: float, horizon: float):
        self.a = float(start)
        self.rate = (float(end) - float(start)) / float(horizon)

    def value(self, s):
        return self.a + self.rate * np.asarray(s, dtype=float)

    def derivative(self, s):
        return self.rate + 0.0 * np.asarray(s, dtype=float)

    def __repr__(self):
        return f"Linear(start={self.a}, rate={self.rate})"


class Sine(Schedule):
    """base + scale * sin(pi * frequency * s)."""

    def __init__(self, scale: float, frequency: float = 1.0, base: float = 0.0):
        self.scale = float(scale)
        self.freq = float(frequency)
        self.base = float(base)

    def value(self, s):
        return self.base + self.scale * np.sin(np.pi * self.freq * np.asarray(s, dtype=float))

    def derivative(self, s):
        return self.scale * np.pi * self.freq * np.cos(np.pi * self.freq * np.asarray(s, dtype=float))

    def __repr__(self):
        return f"Sine(scale={self.scale}, freq={self.freq}, base={self.base})"


class PiecewiseFrozen(Schedule):
    """Follows ``inner`` until s_freeze, constant afterwards (C^0 junction)."""

    def __init__(self, inner: Schedule, s_freeze: float):
        self.inner = inner
        self.s_freeze = float(s_freeze)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self.inner.value(np.minimum(s, self.s_freeze))

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s < self.s_freeze, self.inner.derivative(np.minimum(s, self.s_freeze)), 0.0)


def _config_number(value, name: str) -> float:
    """``value`` as a float; ConfigError naming the field ``name`` unless it
    is a finite int or float (a bool is neither)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"{name!r} must be a finite number, got {value!r}")
    return float(value)


def _config_mapping(cfg: dict, name: str, default: dict) -> dict:
    """The mapping ``cfg[name]``, or ``default`` when it is absent;
    ConfigError naming the field unless it is a mapping."""
    node = cfg.get(name, default)
    if not isinstance(node, dict):
        raise ConfigError(f"{name!r} must be a mapping with a 'family', got {node!r}")
    return node


def _config_keys(node: dict, allowed: tuple, name: str) -> None:
    """ConfigError naming the keys of the mapping ``name`` that are not in ``allowed``."""
    stray = set(node) - set(allowed)
    if stray:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(map(str, stray))}")


def _config_matrix(value, name: str) -> np.ndarray:
    """``value`` as a float matrix; ConfigError naming the field ``name``
    unless it is a list of rows of finite numbers, all of one non-zero length."""
    if not (isinstance(value, list) and value and all(
            isinstance(row, list) and row and len(row) == len(value[0]) for row in value)):
        raise ConfigError(f"{name!r} must be a matrix given as rows of one length, "
                          f"got {value!r}")
    return np.array([[_config_number(v, name) for v in row] for row in value])


def schedule_from_config(node, horizon: float, name: str) -> Schedule:
    """The schedule of the field ``name``: a number or a mapping with 'kind'."""
    if isinstance(node, (int, float)):
        return Constant(_config_number(node, name))
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"schedule must be a number or a mapping with 'kind': {node!r}")
    kind = node["kind"]

    def number(key, default=None):
        if key not in node and default is None:
            raise ConfigError(f"schedule {kind!r} is missing field {key!r}")
        return _config_number(node.get(key, default), f"{name}.{key}")

    if kind == "constant":
        _config_keys(node, ("kind", "value"), name)
        return Constant(number("value"))
    if kind == "linear":
        _config_keys(node, ("kind", "start", "end"), name)
        return Linear(number("start"), number("end"), horizon)
    if kind == "sine":
        _config_keys(node, ("kind", "scale", "frequency", "base"), name)
        return Sine(number("scale"), number("frequency", 1.0), number("base", 0.0))
    raise ConfigError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class Potential:
    """Evaluator bundle for a confining potential V(x, s).

    All methods accept states of shape (..., n) and a scalar time; they
    return arrays of shape (...,), (..., n) or (..., n, n) as appropriate.
    ``v`` and ``dv_ds`` also take an array of times, broadcast against the
    batch axes (...) of the states.
    """

    dimension: int
    is_quadratic = False

    def v(self, x, s):
        raise NotImplementedError

    def dv_ds(self, x, s):
        raise NotImplementedError

    def grad(self, x, s):
        raise NotImplementedError

    def hess(self, x, s):
        raise NotImplementedError

    def envelope(self, s, beta):
        """(center, std) of a Gaussian that dominates the Gibbs tail at time s."""
        raise NotImplementedError


class QuadraticPotential(Potential):
    """V(x, s) = k(s) |x - mu(s) 1|^2 / 2 with scalar schedules k > 0, mu."""

    is_quadratic = True

    def __init__(self, stiffness: Schedule, center: Schedule | None = None, dimension: int = 1):
        self.k = stiffness
        self.mu = center if center is not None else Constant(0.0)
        self.dimension = int(dimension)

    def _dev(self, x, s):
        return np.asarray(x, dtype=float) - self.mu.value(s)[..., None]

    def v(self, x, s):
        d = self._dev(x, s)
        return 0.5 * self.k.value(s) * np.sum(d * d, axis=-1)

    def dv_ds(self, x, s):
        d = self._dev(x, s)
        return (0.5 * self.k.derivative(s) * np.sum(d * d, axis=-1)
                - self.k.value(s) * self.mu.derivative(s) * np.sum(d, axis=-1))

    def grad(self, x, s):
        return self.k.value(s) * self._dev(x, s)

    def hess(self, x, s):
        x = np.asarray(x, dtype=float)
        eye = np.eye(self.dimension)
        return self.k.value(s) * np.broadcast_to(eye, x.shape + (self.dimension,)).copy()

    def envelope(self, s, beta):
        k = float(self.k.value(s))
        if k <= 0:
            raise SpecError("quadratic potential requires positive stiffness")
        return float(self.mu.value(s)), 1.0 / math.sqrt(beta * k)


class TanhPerturbedPotential(Potential):
    """V(x, s) = x^2/2 + a(s) tanh(x), a bounded perturbation of a well (1D)."""

    dimension = 1

    def __init__(self, amplitude: Schedule):
        self.a = amplitude

    def v(self, x, s):
        x0 = np.asarray(x, dtype=float)[..., 0]
        return 0.5 * x0 * x0 + self.a.value(s) * np.tanh(x0)

    def dv_ds(self, x, s):
        x0 = np.asarray(x, dtype=float)[..., 0]
        return self.a.derivative(s) * np.tanh(x0)

    def grad(self, x, s):
        x0 = np.asarray(x, dtype=float)[..., 0]
        sech2 = 1.0 / np.cosh(x0) ** 2
        return (x0 + self.a.value(s) * sech2)[..., None]

    def hess(self, x, s):
        x0 = np.asarray(x, dtype=float)[..., 0]
        t = np.tanh(x0)
        sech2 = 1.0 - t * t
        return (1.0 - 2.0 * self.a.value(s) * t * sech2)[..., None, None]

    def envelope(self, s, beta):
        # e^{-beta V} <= e^{beta |a|} e^{-beta x^2 / 2}: a unit-stiffness tail.
        return 0.0, 1.0 / math.sqrt(beta)


# ---------------------------------------------------------------------------
# circulation fields (divergence-free relative to the Gibbs weight)
# ---------------------------------------------------------------------------

class Circulation:
    """Evaluator bundle for the circulation drift J(x, s) and its divergence."""

    is_zero = False

    def j(self, x, s):
        raise NotImplementedError

    def div_j(self, x, s):
        raise NotImplementedError

    def matrix(self, n: int) -> np.ndarray:
        """The constant n x n matrix C with J(x) = C x, for the Gaussian oracles."""
        raise SpecError("circulation field is not linear; no Gaussian oracle available")


class NoCirculation(Circulation):
    is_zero = True

    def j(self, x, s):
        return np.zeros_like(np.asarray(x, dtype=float))

    def div_j(self, x, s):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def matrix(self, n: int) -> np.ndarray:
        return np.zeros((n, n))


class RotationCirculation(Circulation):
    """J(x) = rate * (x_2, -x_1): a solenoidal swirl, radially tangent (n = 2)."""

    def __init__(self, rate: float):
        self.rate = float(rate)

    def j(self, x, s):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = self.rate * x[..., 1]
        out[..., 1] = -self.rate * x[..., 0]
        return out

    def div_j(self, x, s):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def matrix(self, n: int) -> np.ndarray:
        if n != 2:
            raise SpecError("rotation circulation is two-dimensional")
        return self.rate * np.array([[0.0, 1.0], [-1.0, 0.0]])


class RadialLinearCirculation(Circulation):
    """J(x) = rate * x.  Generally *not* Gibbs-compatible; used to exercise
    the validator's failure path."""

    def __init__(self, rate: float = 1.0):
        self.rate = float(rate)

    def j(self, x, s):
        return self.rate * np.asarray(x, dtype=float)

    def div_j(self, x, s):
        x = np.asarray(x, dtype=float)
        return self.rate * x.shape[-1] * np.ones(x.shape[:-1])

    def matrix(self, n: int) -> np.ndarray:
        return self.rate * np.eye(n)


# ---------------------------------------------------------------------------
# diffusion factors
# ---------------------------------------------------------------------------

class DiffusionFactor:
    """sigma(s) as an (n, m) matrix; gamma = sigma sigma^T.

    The factor does not depend on the state, so div gamma = 0 and the drift
    carries no beta^-1 div gamma term.
    """

    def __init__(self, base: np.ndarray, schedule: Schedule | None = None):
        base = np.atleast_2d(np.asarray(base, dtype=float))
        self.base = base
        self.schedule = schedule

    @property
    def shape(self):
        return self.base.shape

    def sigma(self, s) -> np.ndarray:
        """sigma(s); an array of times gives one factor per time, stacked on its shape."""
        if np.ndim(s):
            scale = np.ones(np.shape(s)) if self.schedule is None else self.schedule.value(s)
            return np.multiply.outer(scale, self.base)
        if self.schedule is None:
            return self.base
        return float(self.schedule.value(s)) * self.base

    def gamma(self, s) -> np.ndarray:
        sig = self.sigma(s)
        return sig @ sig.swapaxes(-1, -2)

    @classmethod
    def isotropic(cls, dimension: int, value: float = 1.0,
                  schedule: Schedule | None = None) -> "DiffusionFactor":
        return cls(value * np.eye(dimension), schedule)


# ---------------------------------------------------------------------------
# specifications
# ---------------------------------------------------------------------------

def _mul_t(a, mat, out=None):
    """``a @ mat.T``, into ``out`` when it is given; a 1 x 1 ``mat`` multiplies
    by its entry, the same bits without a matmul."""
    if mat.shape == (1, 1):
        return np.multiply(a, mat[0, 0], out=out)
    return np.dot(a, mat.T, out=out)


def _force(pot, x, s, out, sign=1.0):
    """``-sign * grad V(x, s)``, into ``out`` when it is given, for ``sign`` =
    +1 or -1.  A quadratic V is read as floats at time s, in the operation
    order of its methods: the bits are the same, and a path step running on a
    worker thread calls no method of V."""
    if not pot.is_quadratic:
        return np.multiply(pot.grad(x, s), -sign, out=out)
    out = np.subtract(x, float(pot.mu.value(s)), out=out)
    out *= -sign * float(pot.k.value(s))
    return out


@dataclass
class BrownianSpec:
    """Overdamped diffusion on R^n with a time-dependent confining potential."""

    kind = "brownian"

    potential: Potential
    beta: float
    horizon: float
    circulation: Circulation = field(default_factory=NoCirculation)
    diffusion: DiffusionFactor | None = None
    gamma_minus: Optional[float] = None

    def __post_init__(self):
        if self.beta <= 0:
            raise SpecError("beta must be positive")
        if self.horizon <= 0:
            raise SpecError("horizon must be positive")
        if self.diffusion is None:
            self.diffusion = DiffusionFactor.isotropic(self.potential.dimension)
        n, m = self.diffusion.shape
        if n != self.potential.dimension:
            raise SpecError("diffusion factor row count must match the state dimension")
        if m < n:
            raise SpecError("diffusion factor must have at least n columns")

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    def energy(self, x, s):
        """E = V(x, s); the Gibbs law at time s is exp(-beta E) / Z(s)."""
        return self.potential.v(x, s)

    def drift(self, x, s, out=None):
        """J - gamma grad V, batched over x; into ``out`` when it is given."""
        sig = self.diffusion.sigma(s)
        force = _force(self.potential, x, s, out)
        drift = _mul_t(force, sig @ sig.T, out=force)
        if not self.circulation.is_zero:
            drift += self.circulation.j(x, s)
        return drift

    def noise_factor(self, s) -> np.ndarray:
        """B(s) = sigma(s): the noise term is sqrt(2/beta) B dw."""
        return self.diffusion.sigma(s)

    def linear_system(self):
        """Stage coefficients (A, force, noise rate) of the linear dynamics
        dx = (A x + force) ds + noise, for a quadratic potential; the noise
        rate is (2/beta) gamma = (2/beta) B B^T."""
        if not self.potential.is_quadratic:
            raise SpecError("linear dynamics require a quadratic potential")
        n = self.dimension
        jmat = self.circulation.matrix(n)
        pot = self.potential
        ones = np.ones(n)

        def coef(s):
            gam = self.diffusion.gamma(s)
            k = pot.k.value(s)
            amat = jmat - k[..., None, None] * gam
            force = (k * pot.mu.value(s))[..., None] * (gam @ ones)
            return amat, force, (2.0 / self.beta) * gam

        return coef

    def reversed(self) -> "BrownianSpec":
        """The reverse process, as a Brownian spec in its own right.

        Coefficients are evaluated at mirrored time T - s and the circulation
        flips sign; potential and diffusion mirror in time.
        """
        return BrownianSpec(
            potential=_TimeMirroredPotential(self.potential, self.horizon),
            beta=self.beta,
            horizon=self.horizon,
            circulation=_NegatedMirroredCirculation(self.circulation, self.horizon),
            diffusion=_TimeMirroredDiffusion(self.diffusion, self.horizon),
            gamma_minus=self.gamma_minus,
        )


class _MirroredSchedule(Schedule):
    def __init__(self, inner: Schedule, horizon: float):
        self.inner = inner
        self.T = float(horizon)

    def value(self, s):
        return self.inner.value(self.T - np.asarray(s, dtype=float))

    def derivative(self, s):
        return -self.inner.derivative(self.T - np.asarray(s, dtype=float))


class _TimeMirroredPotential(Potential):
    def __init__(self, inner: Potential, horizon: float):
        self.inner = inner
        self.T = float(horizon)
        self.dimension = inner.dimension
        self.is_quadratic = inner.is_quadratic
        if inner.is_quadratic:
            self.k = _MirroredSchedule(inner.k, horizon)
            self.mu = _MirroredSchedule(inner.mu, horizon)

    def v(self, x, s):
        return self.inner.v(x, self.T - s)

    def dv_ds(self, x, s):
        return -self.inner.dv_ds(x, self.T - s)

    def grad(self, x, s):
        return self.inner.grad(x, self.T - s)

    def hess(self, x, s):
        return self.inner.hess(x, self.T - s)

    def envelope(self, s, beta):
        return self.inner.envelope(self.T - s, beta)


class _NegatedMirroredCirculation(Circulation):
    def __init__(self, inner: Circulation, horizon: float):
        self.inner = inner
        self.T = float(horizon)
        self.is_zero = inner.is_zero

    def j(self, x, s):
        return -self.inner.j(x, self.T - s)

    def div_j(self, x, s):
        return -self.inner.div_j(x, self.T - s)

    def matrix(self, n: int) -> np.ndarray:
        # built-in linear circulations carry no time dependence, so the
        # mirrored field is just the negation
        return -self.inner.matrix(n)


class _TimeMirroredDiffusion(DiffusionFactor):
    def __init__(self, inner: DiffusionFactor, horizon: float):
        self.inner = inner
        self.T = float(horizon)
        self.base = inner.base

    @property
    def shape(self):
        return self.inner.shape

    def sigma(self, s):
        return self.inner.sigma(self.T - s)


@dataclass
class LangevinSpec:
    """Kinetic diffusion on R^n x R^n.

    The noise enters momenta only, with factor sqrt(xi) I_n, so the friction
    matrix is xi M^-1 and the invariant family is exp(-beta H)/Zeta(s) with
    H = V(q, s) + p^T M^-1 p / 2.
    """

    potential: Potential
    beta: float
    horizon: float
    xi: float = 1.0
    mass: np.ndarray | None = None

    kind = "langevin"
    #: +1 runs the Hamiltonian transport forwards; only reversed() flips it.
    transport = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise SpecError("beta must be positive")
        if self.horizon <= 0:
            raise SpecError("horizon must be positive")
        if self.xi <= 0:
            raise SpecError("friction xi must be positive")
        n = self.potential.dimension
        if self.mass is None:
            self.mass = np.eye(n)
        self.mass = np.asarray(self.mass, dtype=float)
        if self.mass.shape != (n, n):
            raise SpecError("mass matrix must be n x n")
        if not np.allclose(self.mass, self.mass.T):
            raise SpecError("mass matrix must be symmetric")
        eigs = np.linalg.eigvalsh(self.mass)
        if eigs.min() <= 0:
            raise SpecError("mass matrix must be positive definite")
        self.mass_inv = np.linalg.inv(self.mass)
        self._noise = np.vstack([np.zeros((n, n)), math.sqrt(self.xi) * np.eye(n)])
        self._noise.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    def energy(self, x, s):
        """H = V(q, s) + p^T M^-1 p / 2 on stacked states x = (q, p)."""
        n = self.dimension
        x = np.asarray(x, dtype=float)
        p = x[..., n:]
        kinetic = 0.5 * np.einsum("...i,ij,...j->...", p, self.mass_inv, p)
        return self.potential.v(x[..., :n], s) + kinetic

    def drift(self, x, s, out=None):
        """(t M^-1 p, -t grad V(q, s) - xi M^-1 p) on stacked states x = (q, p),
        batched over x, with t = ``transport``; into ``out`` when it is given."""
        n = self.dimension
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        velocity = _mul_t(x[..., n:], self.mass_inv)
        np.multiply(velocity, self.transport, out=out[..., :n])
        force = _force(self.potential, x[..., :n], s, out[..., n:], self.transport)
        velocity *= self.xi
        force -= velocity
        return out

    def noise_factor(self, s) -> np.ndarray:
        """B = [0; sqrt(xi) I_n], read-only: the noise term is sqrt(2/beta) B dw."""
        return self._noise

    def linear_system(self):
        """Stage coefficients (A, force, noise rate) of the linear kinetic dynamics.

        d(q,p) = A (q,p) ds + force ds + noise on p, with
        A = [[0, t M^-1], [-t eta(s) I, -xi M^-1]] and t = ``transport``,
        so a reversed spec flips the Hamiltonian part and reads eta at T - s.
        """
        if not self.potential.is_quadratic:
            raise SpecError("linear dynamics require a quadratic potential")
        n = self.dimension
        pot = self.potential
        minv = self.mass_inv
        sign = self.transport
        noise_rate = np.zeros((2 * n, 2 * n))
        noise_rate[n:, n:] = (2.0 * self.xi / self.beta) * np.eye(n)

        def coef(s):
            eta = pot.k.value(s)
            mu = pot.mu.value(s)
            amat = np.zeros(s.shape + (2 * n, 2 * n))
            amat[..., :n, n:] = sign * minv
            amat[..., n:, :n] = (-sign * eta)[..., None, None] * np.eye(n)
            amat[..., n:, n:] = -self.xi * minv
            force = np.zeros(s.shape + (2 * n,))
            force[..., n:] = (sign * eta * mu)[..., None] * np.ones(n)
            return amat, force, np.broadcast_to(noise_rate, amat.shape)

        return coef

    def reversed(self) -> "LangevinSpec":
        """The reverse process, as a Langevin spec in its own right.

        The potential is read at mirrored time T - s and the Hamiltonian
        transport flips sign; friction and noise are unchanged.
        """
        rev = LangevinSpec(potential=_TimeMirroredPotential(self.potential, self.horizon),
                           beta=self.beta, horizon=self.horizon, xi=self.xi, mass=self.mass)
        rev.transport = -self.transport
        return rev


# ---------------------------------------------------------------------------
# partition function and Gibbs snapshots
# ---------------------------------------------------------------------------

@dataclass
class GibbsSnapshot:
    """Partition function and free energy of the frozen potential at time s."""

    s: float
    z: float
    free_energy: float
    error: float


def _gauss_legendre_panels(lo: float, hi: float, panels: int, order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _boltzmann_integral(spec, s: float, panels: int, order: int) -> float:
    n = spec.dimension
    center, std = spec.potential.envelope(s, spec.beta)
    lo, hi = center - 8.0 * std, center + 8.0 * std
    x1, w1 = _gauss_legendre_panels(lo, hi, panels, order)
    if n == 1:
        vals = np.exp(-spec.beta * spec.potential.v(x1[:, None], s))
        edge = math.exp(-spec.beta * float(spec.potential.v(np.array([[lo]]), s)[0]))
        z = float(np.sum(w1 * vals))
    elif n == 2:
        xx, yy = np.meshgrid(x1, x1, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        vals = np.exp(-spec.beta * spec.potential.v(pts, s))
        z = float(np.einsum("i,j,ij->", w1, w1, vals))
        edge = math.exp(-spec.beta * float(spec.potential.v(np.array([[lo, center]]), s)[0]))
    else:
        raise NotImplementedError("quadrature partition function supports n <= 2")
    if edge * (hi - lo) ** n > 1e-12 * max(z, 1e-300):
        raise QuadratureError(
            "integration box too small: boundary Boltzmann weight is not negligible")
    return z


def partition_function(spec, s: float) -> GibbsSnapshot:
    """Z(s) and F(s) = -ln Z(s)/beta by composite Gauss-Legendre quadrature.

    The position integral is the quadrature; the error estimate is the
    difference between two refinement levels, the box spans 8 envelope
    standard deviations and the boundary weight is checked to be negligible.
    A Langevin spec multiplies in the exact Gaussian momentum integral
    (2 pi / beta)^{n/2} det(M)^{1/2}.
    """
    z_coarse = _boltzmann_integral(spec, s, 16, 24)
    z = _boltzmann_integral(spec, s, 32, 32)
    err = abs(z - z_coarse)
    if not (z > 0) or not math.isfinite(z):
        raise QuadratureError("partition function quadrature returned a non-positive value")
    if isinstance(spec, LangevinSpec):
        n = spec.dimension
        p_mass = (2.0 * math.pi / spec.beta) ** (n / 2.0) * math.sqrt(np.linalg.det(spec.mass))
        z, err = z * p_mass, err * p_mass
    return GibbsSnapshot(s=float(s), z=z, free_energy=-math.log(z) / spec.beta, error=err)


def free_energy_difference(spec) -> float:
    """F(T) - F(0) of the transient equilibrium family."""
    return partition_function(spec, spec.horizon).free_energy - partition_function(spec, 0.0).free_energy


# ---------------------------------------------------------------------------
# Gibbs laws
# ---------------------------------------------------------------------------

def gibbs_gaussian(spec, s: float):
    """Exact Gaussian Gibbs law for a quadratic potential; on stacked (q, p)
    with momenta N(0, M / beta) for a Langevin spec."""
    from .gaussian_oracle import GaussianLaw

    if not spec.potential.is_quadratic:
        raise SpecError("gibbs_gaussian requires a quadratic potential")
    pot = spec.potential
    k = float(pot.k.value(s))
    mu = float(pot.mu.value(s))
    n = spec.dimension
    if isinstance(spec, BrownianSpec):
        return GaussianLaw(mean=np.full(n, mu), cov=np.eye(n) / (spec.beta * k))
    mean = np.concatenate([np.full(n, mu), np.zeros(n)])
    cov = np.zeros((2 * n, 2 * n))
    cov[:n, :n] = np.eye(n) / (spec.beta * k)
    cov[n:, n:] = spec.mass / spec.beta
    return GaussianLaw(mean=mean, cov=cov)


def gibbs_logpdf(spec, x, s: float) -> np.ndarray:
    """ln of the Gibbs density exp(-beta E(x, s)) / Z(s) at the states x."""
    if spec.potential.is_quadratic:
        return gibbs_gaussian(spec, s).logpdf(x)
    return -spec.beta * spec.energy(x, s) - math.log(partition_function(spec, s).z)


def gibbs_sampler(spec, s: float = 0.0):
    """A sampler ``(gen, size) -> states`` of the Gibbs law at time s.

    Exact for a quadratic potential; otherwise the 1D positions come from a
    rejection sampler, and a Langevin spec then draws momenta N(0, M / beta).
    """
    if spec.potential.is_quadratic:
        law = gibbs_gaussian(spec, s)
        return lambda gen, size: law.sample(gen, size)
    if spec.dimension != 1:
        raise SpecError("no Gibbs sampler for this potential family")
    positions = _rejection_sampler_1d(spec.potential, spec.beta, s)
    if isinstance(spec, BrownianSpec):
        return positions
    p_chol = np.linalg.cholesky(spec.mass / spec.beta)

    def sample(gen, size):
        q = positions(gen, size)
        p = gen.standard_normal((size, 1)) @ p_chol.T
        return np.concatenate([q, p], axis=1)

    return sample


def _rejection_sampler_1d(potential, beta: float, s: float):
    center, std = potential.envelope(s, beta)
    # log bound of e^{-beta V} / proposal density ratio, estimated on a probe
    # grid with a safety margin.
    probe = np.linspace(center - 10 * std, center + 10 * std, 4001)[:, None]
    log_target = -beta * potential.v(probe, s)
    log_prop = -0.5 * ((probe[:, 0] - center) / std) ** 2
    log_m = float(np.max(log_target - log_prop)) + 1e-6

    def sample(gen, size):
        out = np.empty((size, 1))
        got = 0
        while got < size:
            n_try = max(64, int(1.3 * (size - got)))
            x = center + std * gen.standard_normal(n_try)
            lt = -beta * potential.v(x[:, None], s)
            lp = -0.5 * ((x - center) / std) ** 2
            accept = np.log(gen.random(n_try)) < lt - lp - log_m
            x = x[accept]
            take = min(len(x), size - got)
            out[got:got + take, 0] = x[:take]
            got += take
        return out

    return sample


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    max_stationarity_residual: float
    min_gamma_eigenvalue: float
    gamma_floor: float
    messages: list[str]


def validate_spec(spec, tol: float = 1e-8, probes: int = 41) -> ValidationReport:
    """Check Gibbs compatibility of the circulation and uniform ellipticity.

    The stationarity residual is |div J - beta J . grad V| e^{-beta V}
    evaluated on a probe grid and a small set of times; the ellipticity check
    compares the smallest eigenvalue of gamma with the declared floor.
    """
    messages: list[str] = []
    if isinstance(spec, LangevinSpec):
        # The Hamiltonian transport part is structurally Gibbs-compatible and
        # the momentum noise xi I_n is uniformly elliptic by construction.
        return ValidationReport(True, 0.0, spec.xi, spec.xi,
                                ["langevin spec: structural checks only"])

    n = spec.dimension
    times = np.linspace(0.0, spec.horizon, 9)
    max_resid = 0.0
    for s in times:
        center, std = spec.potential.envelope(s, spec.beta)
        axis = np.linspace(center - 6.0 * std, center + 6.0 * std, probes)
        if n == 1:
            pts = axis[:, None]
        elif n == 2:
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        else:
            raise NotImplementedError("validate_spec probes support n <= 2")
        jv = spec.circulation.j(pts, s)
        divj = spec.circulation.div_j(pts, s)
        gv = spec.potential.grad(pts, s)
        weight = np.exp(-spec.beta * spec.potential.v(pts, s))
        resid = np.abs(divj - spec.beta * np.sum(jv * gv, axis=-1)) * weight
        max_resid = max(max_resid, float(resid.max()))

    g_eigs = [np.linalg.eigvalsh(spec.diffusion.gamma(s)).min() for s in times]
    g_min = float(min(g_eigs))
    floor = spec.gamma_minus if spec.gamma_minus is not None else 0.0

    ok = True
    if max_resid > tol:
        ok = False
        messages.append(
            f"circulation breaks Gibbs stationarity: residual {max_resid:.3e} > {tol:.1e}")
    if spec.gamma_minus is not None and g_min < spec.gamma_minus - 1e-12:
        ok = False
        messages.append(
            f"ellipticity floor violated: min eig(gamma) {g_min:.3e} < declared {spec.gamma_minus}")
    if g_min <= 0:
        ok = False
        messages.append("gamma is not positive definite")
    if ok:
        messages.append("spec ok")
    return ValidationReport(ok, max_resid, g_min, floor, messages)


# ---------------------------------------------------------------------------
# configuration parsing (external interface)
# ---------------------------------------------------------------------------

def spec_from_config(cfg: dict):
    """Build a BrownianSpec or LangevinSpec from a parsed configuration mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError("spec configuration must be a mapping")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    kind = cfg.get("kind")
    if kind not in ("brownian", "langevin"):
        raise ConfigError(f"spec kind must be 'brownian' or 'langevin', got {kind!r}")
    _config_keys(cfg, ("schema_version", "kind", "horizon", "beta", "dimension", "potential")
                 + (("circulation", "diffusion", "gamma_minus") if kind == "brownian"
                    else ("friction", "mass")), "spec")
    try:
        horizon = _config_number(cfg["horizon"], "horizon")
        beta = _config_number(cfg["beta"], "beta")
    except KeyError as exc:
        raise ConfigError(f"spec is missing required field {exc}") from None
    dim = cfg.get("dimension", 1)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2):
        raise ConfigError(f"'dimension' must be the integer 1 or 2, got {dim!r}")

    pot_cfg = cfg.get("potential")
    if not isinstance(pot_cfg, dict) or "family" not in pot_cfg:
        raise ConfigError("potential must be a mapping with a 'family'")
    family = pot_cfg["family"]
    if family in ("quadratic", "translated_quadratic"):
        _config_keys(pot_cfg, ("family", "stiffness", "center"), "potential")
        stiffness = schedule_from_config(pot_cfg.get("stiffness", 1.0), horizon,
                                         "potential.stiffness")
        center = schedule_from_config(pot_cfg.get("center", 0.0), horizon, "potential.center")
        potential = QuadraticPotential(stiffness, center, dim)
    elif family == "tanh_perturbation":
        if dim != 1:
            raise ConfigError("tanh_perturbation potential is one-dimensional")
        _config_keys(pot_cfg, ("family", "amplitude"), "potential")
        amplitude = schedule_from_config(pot_cfg.get("amplitude", 0.0), horizon,
                                         "potential.amplitude")
        potential = TanhPerturbedPotential(amplitude)
    else:
        raise ConfigError(f"unknown potential family {family!r}")

    if kind == "langevin":
        mass = cfg.get("mass")
        mass = _config_matrix(mass, "mass") if mass is not None else None
        return LangevinSpec(potential=potential, beta=beta, horizon=horizon,
                            xi=_config_number(cfg.get("friction", 1.0), "friction"), mass=mass)

    circ_cfg = _config_mapping(cfg, "circulation", {"family": "none"})
    fam = circ_cfg.get("family", "none")
    _config_keys(circ_cfg, ("family",) if fam == "none" else ("family", "rate"), "circulation")
    if fam == "none":
        circulation = NoCirculation()
    elif fam == "rotation":
        if dim != 2:
            raise ConfigError("rotation circulation requires dimension 2")
        circulation = RotationCirculation(_config_number(circ_cfg.get("rate", 1.0),
                                                         "circulation.rate"))
    elif fam == "radial_linear":
        circulation = RadialLinearCirculation(_config_number(circ_cfg.get("rate", 1.0),
                                                             "circulation.rate"))
    else:
        raise ConfigError(f"unknown circulation family {fam!r}")

    diff_cfg = _config_mapping(cfg, "diffusion", {"family": "constant", "value": 1.0})
    fam = diff_cfg.get("family", "constant")
    _config_keys(diff_cfg, ("family", "value"), "diffusion")
    if fam == "constant":
        diffusion = DiffusionFactor.isotropic(
            dim, _config_number(diff_cfg.get("value", 1.0), "diffusion.value"))
    elif fam == "schedule":
        diffusion = DiffusionFactor.isotropic(
            dim, 1.0, schedule_from_config(diff_cfg.get("value", 1.0), horizon,
                                           "diffusion.value"))
    elif fam == "matrix":
        base = _config_matrix(diff_cfg.get("value"), "diffusion.value")
        if base.shape[0] != dim or base.shape[1] < dim:
            raise ConfigError(f"'diffusion.value' must have {dim} row(s) and at least {dim} "
                              f"column(s), got shape {base.shape}")
        diffusion = DiffusionFactor(base)
    else:
        raise ConfigError(f"unknown diffusion family {fam!r}")

    gamma_minus = cfg.get("gamma_minus")
    if gamma_minus is not None:
        gamma_minus = _config_number(gamma_minus, "gamma_minus")
    return BrownianSpec(potential=potential, beta=beta, horizon=horizon,
                        circulation=circulation, diffusion=diffusion, gamma_minus=gamma_minus)
