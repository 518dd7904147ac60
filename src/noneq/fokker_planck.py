"""Grid solvers for the density evolution and grid entropy functionals.

The overdamped solver is a finite-volume scheme whose interface flux is
exponentially fitted to the Boltzmann weight,

    F_{i+1/2} = -(gamma / beta) e^{-beta V_{i+1/2}} d/dx (e^{beta V} rho),

so the discrete Gibbs vector is an exact steady state, mass is conserved to
roundoff, and the implicit step is a stochastic (M-)matrix: the discrete
relative entropy to the frozen Gibbs state cannot increase under a frozen
potential.  The kinetic solver splits Hamiltonian transport (semi-Lagrangian
on the density/Gibbs ratio, split by direction into 1-D cubic shifts along
grid lines) from the momentum friction-diffusion (same fitted flux, one
banded solve for all position columns).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import PositivityError, QuadratureError, SpecError
from .model import BrownianSpec, LangevinSpec
from .odes import _step_count, _time_index

TINY = 1e-300
# Largest mass defect per unit time that a kinetic step may make before the
# renormalisation: a step of dt may move the mass by this times dt.
KINETIC_LEAK_RATE = 1e-3
# Steps of a 1-D march whose coefficients are evaluated together, as arrays
# over their mid-times.  A march's working set grows with block x cells, so
# the block is small: 16 steps cost no more time than 64 and hold a quarter
# of the bands.
MARCH_BLOCK = 16


# ---------------------------------------------------------------------------
# grid densities
# ---------------------------------------------------------------------------

@dataclass
class GridDensity1D:
    lo: float
    hi: float
    values: np.ndarray
    s: float = 0.0

    @staticmethod
    def centers(lo: float, hi: float, cells: int) -> np.ndarray:
        h = (hi - lo) / cells
        return lo + h * (np.arange(cells) + 0.5)

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / len(self.values)

    @property
    def x(self) -> np.ndarray:
        return self.centers(self.lo, self.hi, len(self.values))

    def mass(self) -> float:
        return float(np.sum(self.values) * self.h)

    def mean(self) -> float:
        return float(np.sum(self.x * self.values) * self.h / self.mass())

    def var(self) -> float:
        m = self.mean()
        return float(np.sum((self.x - m) ** 2 * self.values) * self.h / self.mass())

    def normalized(self) -> "GridDensity1D":
        return GridDensity1D(self.lo, self.hi, self.values / self.mass(), self.s)

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF at ``u`` in [0, 1), linear within each cell; ``u`` falls
        in the cell i with F_i <= u < F_{i+1}, so never in an empty one."""
        cdf = np.concatenate([[0.0], np.cumsum(self.values) * self.h])
        cdf /= cdf[-1]
        edges = np.linspace(self.lo, self.hi, len(self.values) + 1)
        i = np.minimum(np.searchsorted(cdf, u, side="right") - 1, len(self.values) - 1)
        slope = (edges[i + 1] - edges[i]) / (cdf[i + 1] - cdf[i])
        return slope * (u - cdf[i]) + edges[i]

    def sampler(self) -> Callable[[np.random.Generator, int], np.ndarray]:
        """Inverse-CDF sampler (piecewise-linear within cells)."""
        return lambda gen, size: self.quantile(gen.random(size))[:, None]

    def logpdf_interp(self, pts: np.ndarray) -> np.ndarray:
        vals = np.interp(pts, self.x, np.log(np.maximum(self.values, TINY)))
        return vals


@dataclass
class GridDensity2D:
    qlo: float
    qhi: float
    plo: float
    phi: float
    values: np.ndarray  # (nq, np)
    s: float = 0.0

    @property
    def hq(self) -> float:
        return (self.qhi - self.qlo) / self.values.shape[0]

    @property
    def hp(self) -> float:
        return (self.phi - self.plo) / self.values.shape[1]

    @property
    def q(self) -> np.ndarray:
        return GridDensity1D.centers(self.qlo, self.qhi, self.values.shape[0])

    @property
    def p(self) -> np.ndarray:
        return GridDensity1D.centers(self.plo, self.phi, self.values.shape[1])

    def moments(self):
        """mean (2,) and covariance (2, 2) of (q, p)."""
        w = self.values / np.sum(self.values)
        q, p = self.q, self.p
        mq = float(np.sum(w.sum(axis=1) * q))
        mp = float(np.sum(w.sum(axis=0) * p))
        dq = q - mq
        dp = p - mp
        vq = float(np.sum(w.sum(axis=1) * dq * dq))
        vp = float(np.sum(w.sum(axis=0) * dp * dp))
        cqp = float(dq @ w @ dp)
        return np.array([mq, mp]), np.array([[vq, cqp], [cqp, vp]])


# ---------------------------------------------------------------------------
# entropy functionals on grids
# ---------------------------------------------------------------------------

def _axes(density) -> list:
    """Cell-centre axes of a 1D or 2D grid density."""
    return [density.x] if isinstance(density, GridDensity1D) else [density.q, density.p]


def _spacings(density) -> list:
    """Cell widths along the axes of a 1D or 2D grid density."""
    return [density.h] if isinstance(density, GridDensity1D) else [density.hq, density.hp]


def _same_grid(axes: list, other: list) -> bool:
    """Whether two lists of cell-centre axes agree, to a billionth of a cell."""
    return len(axes) == len(other) and all(
        len(a) == len(b) and np.allclose(a, b, rtol=0.0, atol=1e-9 * (b[-1] - b[0]) / len(b))
        for a, b in zip(axes, other))


def relative_entropy_grid(density, reference) -> float:
    """KL(density || reference) by cell quadrature; empty cells contribute 0.

    Both inputs are renormalized internally, so the result only depends on
    the probability measures the grids represent.
    """
    if not _same_grid(_axes(density), _axes(reference)):
        raise SpecError("the two densities are not on the same grid")
    vol = math.prod(_spacings(density))
    rho, ref = density.values, reference.values
    mask = rho > TINY
    if np.any(mask & (ref <= 0)):
        return math.inf
    terms = np.zeros_like(rho)
    terms[mask] = rho[mask] * (np.log(rho[mask]) - np.log(ref[mask]))
    rho_mass = float(np.sum(rho) * vol)
    ref_mass = float(np.sum(ref) * vol)
    return float(np.sum(terms) * vol) / rho_mass + math.log(ref_mass / rho_mass)


@dataclass
class RateTerms:
    """Ingredients of the instantaneous entropy balance at one time."""

    gibbs_term: float   # int dV/ds d(gibbs)
    state_term: float   # int dV/ds d(state)
    fisher: float       # int |sigma^T grad ln(rho/gibbs)|^2 d(state)

    def rhs(self, beta: float) -> float:
        return beta * (self.state_term - self.gibbs_term) - self.fisher / beta


def _log_ratio_gradient(rho: np.ndarray, ref: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Centred difference of ln(rho / ref) along ``axis``, zero on the two end
    layers and wherever a cell or its neighbours along the axis are empty."""
    u = np.zeros_like(rho)
    mask = (rho > TINY) & (ref > TINY)
    u[mask] = np.log(rho[mask]) - np.log(ref[mask])
    interior = mask & np.roll(mask, 1, axis=axis) & np.roll(mask, -1, axis=axis)
    np.moveaxis(interior, axis, 0)[[0, -1]] = False
    centred = (np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis)) / (2 * h)
    return np.where(interior, centred, 0.0)


def gibbs_grid(spec, s: float, like):
    """Discrete Gibbs density exp(-beta E(., s)) / Z on the cell-centre mesh of
    ``like``: a 1D grid for a Brownian spec, a (q, p) grid for a Langevin one."""
    mesh = np.stack(np.meshgrid(*_axes(like), indexing="ij"), axis=-1)
    vals = np.exp(-spec.beta * spec.energy(mesh, s))
    vals /= np.sum(vals) * math.prod(_spacings(like))
    return replace(like, values=vals, s=s)


def fisher_and_rate_terms(spec, density, s: float) -> RateTerms:
    """Central-difference Fisher integral and the two potential-rate integrals
    on a 1D or (q, p) grid.  Each axis of the Fisher form is weighted by its
    entry of diag(B B^T), B = ``spec.noise_factor(s)``, so on a phase-space
    grid only the momentum gradient counts."""
    return _rate_terms(spec, density, s, gibbs_grid(spec, s, density).values)


def _rate_terms(spec, density, s: float, gibbs: np.ndarray) -> RateTerms:
    """``fisher_and_rate_terms`` against the grid Gibbs values ``gibbs`` at s."""
    vol = math.prod(_spacings(density))
    rho = density.values
    b = spec.noise_factor(s)
    fisher = 0.0
    for axis, (h, weight) in enumerate(zip(_spacings(density), np.diag(b @ b.T).tolist())):
        grad = _log_ratio_gradient(rho, gibbs, h, axis)
        fisher += weight * float(np.sum(grad * grad * rho) * vol)
    # dV/ds on the position axis (axis 0), constant along a momentum axis
    dv = spec.potential.dv_ds(_axes(density)[0][:, None], s)
    dv = dv.reshape(dv.shape + (1,) * (rho.ndim - 1))
    return RateTerms(
        gibbs_term=float(np.sum(dv * gibbs) * vol),
        state_term=float(np.sum(dv * rho) * vol),
        fisher=fisher,
    )


# ---------------------------------------------------------------------------
# fitted-flux generator (shared by every grid solver)
# ---------------------------------------------------------------------------

def _fitted_rates(v_c: np.ndarray, v_f: np.ndarray, gamma, beta: float, h: float):
    """Scharfetter-Gummel rates of the tridiagonal generator A for potential
    values at cell centres ``v_c`` and interior faces ``v_f``, cells on the
    last axis; ``gamma`` is a float or an array that broadcasts against
    their leading axes.

    ``up[i]`` is the rate from cell i+1 to i (A's super-diagonal), ``down[i]``
    the rate from i to i+1 (its sub-diagonal), and ``diag`` makes every column
    sum to zero.  A exp(-beta v_c) = 0 up to roundoff; the transpose (``up``
    and ``down`` swapped) is the backward generator, and it maps constants
    to zero.
    """
    base = gamma / (beta * h * h)
    up = base * np.exp(beta * (v_c[..., 1:] - v_f))
    down = base * np.exp(beta * (v_c[..., :-1] - v_f))
    diag = np.zeros(v_c.shape)
    diag[..., :-1] -= down
    diag[..., 1:] -= up
    return up, down, diag


def _generator_rates(spec, x: np.ndarray, h: float, s: np.ndarray):
    """gamma(s) as a column and the ``_fitted_rates`` (up, down, diag) of the
    overdamped generator on cell centres ``x`` of width ``h``, at each time of
    the 1-D array ``s``, stacked on a leading axis."""
    gamma = spec.diffusion.gamma(s)[:, :1, 0]
    s_col = s[:, None]
    v_c = spec.potential.v(x[:, None], s_col)
    v_f = spec.potential.v(0.5 * (x[:-1] + x[1:])[:, None], s_col)
    return gamma, _fitted_rates(v_c, v_f, gamma, spec.beta, h)


def _theta_bands(sup: np.ndarray, sub: np.ndarray, diag: np.ndarray, dt: float, theta: float):
    """Band rows of the step (I - theta dt A) r' = (I + (1 - theta) dt A) r with
    A = tridiag(sub, diag, sup), over any leading axes: the implicit matrix's
    (sub, diag, sup) and the explicit one's, or None for theta = 1."""
    ci = theta * dt
    implicit = (-ci * sub, 1.0 - ci * diag, -ci * sup)
    if theta < 1.0:
        c = (1.0 - theta) * dt
        return implicit, (c * sub, 1.0 + c * diag, c * sup)
    return implicit, None


@functools.cache
def _dgtsv():
    """LAPACK's tridiagonal solver, imported on first use so that importing
    the package does not load scipy.linalg."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv


def _theta_solve(implicit, explicit, r: np.ndarray) -> np.ndarray:
    """One step with the ``_theta_bands`` rows ``implicit`` and ``explicit``
    along axis 0 of r, by LAPACK ``dgtsv``, leaving r and the rows as they
    were; QuadratureError if the solve fails or its result is not finite."""
    if explicit is None:
        rhs = r
    else:
        sub, diag, sup = explicit
        col = (slice(None),) + (None,) * (r.ndim - 1)
        rhs = r * diag[col]
        rhs[:-1] += sup[col] * r[1:]
        rhs[1:] += sub[col] * r[:-1]
    *_, out, info = _dgtsv()(*implicit, rhs, overwrite_b=rhs is not r)
    if info != 0 or not np.isfinite(out).all():
        raise QuadratureError(f"tridiagonal step failed (LAPACK info {info}) or is not finite")
    return out


def _block_bands(spec, x: np.ndarray, h: float, s: np.ndarray, dt: float, theta: float,
                 adjoint: bool):
    """The ``_theta_bands`` rows of a 1-D march at each mid-time of ``s``,
    stacked on a leading axis; the adjoint march uses the transposed
    generator with the killing rate beta dV/ds on its diagonal.  The rates
    die on return, so only the bands stay alive while a block is stepped."""
    _, (up, down, diag) = _generator_rates(spec, x, h, s)
    if adjoint:
        up, down = down, up
        diag = diag - spec.beta * spec.potential.dv_ds(x[:, None], s[:, None])
    return _theta_bands(up, down, diag, dt, theta)


def _march(spec, x: np.ndarray, h: float, dt: float, n_steps: int, theta: float,
           adjoint: bool):
    """Yield (k, implicit, explicit) for each step k of a 1-D fitted-flux march
    on cell centres ``x``: the ``_block_bands`` rows at the mid-time
    (k + 1/2) dt, evaluated MARCH_BLOCK steps at a time.  The adjoint march
    steps backward in k."""
    starts = range(0, n_steps, MARCH_BLOCK)
    for k0 in reversed(starts) if adjoint else starts:
        s = (np.arange(k0, min(k0 + MARCH_BLOCK, n_steps)) + 0.5) * dt
        implicit, explicit = _block_bands(spec, x, h, s, dt, theta, adjoint)
        steps = zip(range(k0, k0 + len(s)), zip(*implicit),
                    [None] * len(s) if explicit is None else zip(*explicit))
        yield from reversed(list(steps)) if adjoint else steps


def _grid_steps(horizon: float, dt: float, cells, theta: float = 1.0, axes: int = 1) -> int:
    """Step count of a grid march over ``horizon``; SpecError for a bad dt,
    ``cells`` that is not an integer (1 axis) or a sequence of ``axes``
    integers, fewer than 3 cells on an axis, or theta outside [0.5, 1]."""
    counts = np.asarray(cells)
    if counts.shape != ((axes,) if axes > 1 else ()) or counts.dtype.kind not in "iu":
        raise SpecError(f"cells must give one integer count per grid axis ({axes}), got {cells!r}")
    if counts.min() < 3:
        raise SpecError(f"a grid needs at least 3 cells per axis, got {cells}")
    if not 0.5 <= theta <= 1.0:
        raise SpecError(f"theta must lie in [0.5, 1], got {theta}")
    return _step_count(horizon, dt)


def _record_count(n_steps: int, record_every: int) -> int:
    """Snapshots of a march that records its start, every ``record_every``-th
    step and its last step."""
    return 1 + n_steps // record_every + (n_steps % record_every > 0)


# ---------------------------------------------------------------------------
# overdamped solver
# ---------------------------------------------------------------------------

@dataclass
class FPSolution1D:
    times: np.ndarray       # recorded times (M,)
    snapshots: np.ndarray   # (M, cells)
    lo: float
    hi: float
    mass_drift: float       # max |mass - 1| observed before renormalisation

    def density(self, t: float) -> GridDensity1D:
        idx = _time_index(self.times, t)
        return GridDensity1D(self.lo, self.hi, self.snapshots[idx].copy(), float(self.times[idx]))


def _box_from_spec(spec, radius_std: float):
    """Position box holding the Gibbs envelope within ``radius_std`` standard
    deviations at 17 times of the horizon; SpecError unless ``radius_std`` is
    finite and positive."""
    if not 0.0 < radius_std < math.inf:
        raise SpecError(f"radius_std must be finite and positive, got {radius_std}")
    times = np.linspace(0.0, spec.horizon, 17)
    los, his = [], []
    for s in times:
        c, std = spec.potential.envelope(s, spec.beta)
        los.append(c - radius_std * std)
        his.append(c + radius_std * std)
    return min(los), max(his)


def _init_values(init, axes: list, vol: float) -> np.ndarray:
    """Initial cell values on the grid with cell-centre ``axes``, scaled to
    unit mass.  ``init`` is a grid density on that grid, a GaussianLaw, a
    callable ``init(*axes)`` or an array of cell values; ``vol`` is the cell
    volume."""
    from .gaussian_oracle import GaussianLaw

    if isinstance(init, (GridDensity1D, GridDensity2D)):
        if not _same_grid(_axes(init), axes):
            raise SpecError("initial grid density is not on the solver grid")
        vals = init.values.copy()
    elif isinstance(init, GaussianLaw):
        if init.dim != len(axes):
            raise SpecError(f"initial law has dimension {init.dim}, the grid {len(axes)}")
        vals = init.pdf(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    elif callable(init):
        vals = np.asarray(init(*axes), dtype=float)
    else:
        vals = np.asarray(init, dtype=float)
    return _normalized_init(vals, tuple(len(a) for a in axes), vol)


def solve_fp_1d(spec: BrownianSpec, init, dt: float, cells: int = 1200,
                radius_std: float = 10.0, record_every: int | None = None,
                theta: float = 1.0) -> FPSolution1D:
    """March the overdamped density on a fixed box with zero-flux boundaries.

    ``theta`` = 1 is the robust implicit step (positivity + discrete entropy
    monotonicity for frozen potentials); 0.5 gives the second-order
    Crank-Nicolson variant used where accuracy of the trace matters.
    """
    if spec.dimension != 1:
        raise SpecError("solve_fp_1d is one-dimensional")
    n_steps = _grid_steps(spec.horizon, dt, cells, theta)
    if record_every is None:
        record_every = max(1, n_steps // 800)
    elif record_every < 1:
        raise SpecError(f"record_every must be at least 1, got {record_every}")
    lo, hi = _box_from_spec(spec, radius_std)
    h = (hi - lo) / cells
    x = GridDensity1D.centers(lo, hi, cells)
    rho = _init_values(init, [x], h)

    records = _record_count(n_steps, record_every)
    times = np.zeros(records)
    snaps = np.empty((records, cells))
    snaps[0] = rho
    n_rec = 1
    mass_drift = abs(np.sum(rho) * h - 1.0)

    for k, implicit, explicit in _march(spec, x, h, dt, n_steps, theta, adjoint=False):
        rho = _theta_solve(implicit, explicit, rho)
        if rho.min() < -1e-12 * rho.max():
            raise PositivityError(f"density lost positivity at step {k}: min={rho.min():.3e}")
        np.maximum(rho, 0.0, out=rho)
        mass = rho.sum() * h
        mass_drift = max(mass_drift, abs(mass - 1.0))
        if abs(mass - 1.0) > 1e-8:
            raise QuadratureError(f"mass leaked beyond tolerance at step {k}: {mass - 1.0:.3e}")
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            if max(rho[0], rho[-1]) > 1e-9 * max(rho.max(), TINY):
                raise QuadratureError("solver box too small: boundary density is not negligible")
            times[n_rec] = (k + 1) * dt
            snaps[n_rec] = rho
            n_rec += 1

    return FPSolution1D(times=times, snapshots=snaps, lo=lo, hi=hi, mass_drift=mass_drift)


# ---------------------------------------------------------------------------
# kinetic solver
# ---------------------------------------------------------------------------

@dataclass
class FPSolution2D:
    times: np.ndarray
    snapshots: np.ndarray   # (M, nq, np)
    qlo: float
    qhi: float
    plo: float
    phi: float
    mass_drift: float

    def density(self, t: float) -> GridDensity2D:
        idx = _time_index(self.times, t)
        return GridDensity2D(self.qlo, self.qhi, self.plo, self.phi,
                             self.snapshots[idx].copy(), float(self.times[idx]))


def _cubic_weights(frac: np.ndarray):
    """4-point Lagrange weights for samples at offsets (-1, 0, 1, 2)."""
    t = frac
    w_m1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w_0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w_1 = -(t + 1.0) * t * (t - 2.0) / 2.0
    w_2 = (t + 1.0) * t * (t - 1.0) / 6.0
    return w_m1, w_0, w_1, w_2


def _shift_taps(shift: np.ndarray, shape: tuple, axis: int):
    """Flat gather indices (4, *shape) and weights of a cubic Lagrange shift
    along ``axis`` of a C-ordered array: entry x of line l is read at
    x + ``shift[l]`` cells from the cells floor(x + shift[l]) - 1, ..., + 2,
    each clipped to the line, so a lookup past the box holds the edge value.
    A line's four weights sum to 1, so constants stay constant to roundoff."""
    n = shape[axis]
    base = np.floor(shift)
    wts = np.stack(_cubic_weights(shift - base))[:, :, None]
    pos = base.astype(np.intp)[:, None] + (np.arange(-1, 3)[:, None, None] + np.arange(n))
    np.clip(pos, 0, n - 1, out=pos)
    if axis == 1:
        pos += np.arange(shape[0])[:, None] * n
        return pos, wts
    idx = np.ascontiguousarray(pos.transpose(0, 2, 1)) * shape[1] + np.arange(shape[1])
    return idx, wts.transpose(0, 2, 1)


def _shift(field: np.ndarray, taps) -> np.ndarray:
    """``field`` shifted along its lines by the ``_shift_taps`` result ``taps``."""
    idx, wts = taps
    gathered = field.ravel().take(idx)
    gathered *= wts
    return gathered.sum(axis=0)


def _normalized_init(vals: np.ndarray, shape: tuple, vol: float) -> np.ndarray:
    """Initial cell values scaled to unit mass; SpecError for a wrong shape,
    non-finite values or zero mass, PositivityError for negative cells."""
    if vals.shape != shape:
        raise SpecError(f"initial density has shape {vals.shape}, the grid {shape}")
    if not np.all(np.isfinite(vals)):
        raise SpecError("initial density has non-finite cells")
    if vals.min() < 0:
        raise PositivityError("initial density has negative cells")
    mass = np.sum(vals) * vol
    if not mass > 0:
        raise SpecError("initial density has zero mass")
    return vals / mass


def solve_kinetic_fp_2d(spec: LangevinSpec, init, dt: float,
                        cells: tuple[int, int] = (128, 128),
                        radius_std: float = 10.0,
                        record_every: int | None = None) -> FPSolution2D:
    """Strang-split kinetic solver: half friction-diffusion, transport, half.

    Transport is semi-Lagrangian on the ratio w = rho / gibbs(s_mid), split
    by direction (Cheng & Knorr, J. Comput. Phys. 22, 1976) into a half free
    stream in q, a full kick in p under the frozen potential and a second half
    stream.  The Hamiltonian is separable, so each sub-step is the exact flow
    of its part, and it moves every line of the grid by one shift: a 1-D cubic
    Lagrange interpolation per line.  Lookups past the box hold the edge value
    of each tap.  The four weights of a line sum to 1, so a constant ratio
    stays constant to roundoff, and for a frozen quadratic or perturbed
    potential the Gibbs state is a fixed point of the full step up to
    roundoff.  A step may move the mass by at most ``KINETIC_LEAK_RATE * dt``
    before it is renormalised; a larger defect raises QuadratureError.
    """
    if spec.dimension != 1:
        raise SpecError("solve_kinetic_fp_2d expects one position dimension")
    n_steps = _grid_steps(spec.horizon, dt, cells, axes=2)
    if record_every is None:
        record_every = max(1, n_steps // 400)
    elif record_every < 1:
        raise SpecError(f"record_every must be at least 1, got {record_every}")
    nq, npp = cells
    qlo, qhi = _box_from_spec(spec, radius_std)
    m_scalar = float(spec.mass[0, 0])
    p_std = math.sqrt(m_scalar / spec.beta)
    plo, phi = -radius_std * p_std, radius_std * p_std
    hq = (qhi - qlo) / nq
    hp = (phi - plo) / npp
    qs = GridDensity1D.centers(qlo, qhi, nq)
    ps = GridDensity1D.centers(plo, phi, npp)
    vol = hq * hp
    rho = _init_values(init, [qs, ps], vol)

    beta, xi = spec.beta, spec.xi
    # Momentum friction-diffusion: fitted flux against exp(-beta p^2 / 2m),
    # identical tridiagonal system for every position column.
    p_face = 0.5 * (ps[:-1] + ps[1:])
    implicit, _ = _theta_bands(*_fitted_rates(0.5 * ps * ps / m_scalar,
                                              0.5 * p_face * p_face / m_scalar, xi, beta, hp),
                               0.5 * dt, 1.0)

    def diffusion_half(r: np.ndarray) -> np.ndarray:
        return _theta_solve(implicit, None, r.T).T

    # The free stream q' = p / m shifts each momentum column by a fixed
    # amount, so its half-step taps are built once; the kick p' = -dV/dq
    # shifts each position row by an amount that follows the potential.
    stream = _shift_taps(-0.5 * dt * ps / (m_scalar * hq), (nq, npp), 0)
    maxwell = np.exp(-0.5 * beta * ps * ps / m_scalar)
    q_col = qs[:, None]

    records = _record_count(n_steps, record_every)
    times = np.zeros(records)
    snaps = np.empty((records, nq, npp))
    snaps[0] = rho
    n_rec = 1
    mass_drift = 0.0

    for k in range(n_steps):
        s_mid = (k + 0.5) * dt
        rho = diffusion_half(rho)
        # transport on the density/Gibbs ratio: half stream, kick, half stream
        gibbs = np.multiply.outer(np.exp(-beta * spec.potential.v(q_col, s_mid)), maxwell)
        kick = _shift_taps(dt * spec.potential.grad(q_col, s_mid)[:, 0] / hp, (nq, npp), 1)
        w = _shift(_shift(_shift(rho / gibbs, stream), kick), stream)
        rho = diffusion_half(gibbs * w)
        if rho.min() < -1e-12 * rho.max():
            raise PositivityError(f"kinetic density lost positivity at step {k}")
        np.clip(rho, 0.0, None, out=rho)
        mass = np.sum(rho) * vol
        mass_drift = max(mass_drift, abs(mass - 1.0))
        if abs(mass - 1.0) > KINETIC_LEAK_RATE * dt:
            raise QuadratureError(f"kinetic mass leaked at step {k}: {mass - 1.0:.3e}")
        rho /= mass
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            times[n_rec] = (k + 1) * dt
            snaps[n_rec] = rho
            n_rec += 1

    return FPSolution2D(times=times, snapshots=snaps,
                        qlo=qlo, qhi=qhi, plo=plo, phi=phi, mass_drift=mass_drift)
