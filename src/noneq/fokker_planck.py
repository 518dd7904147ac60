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

def _centers(lo: float, hi: float, cells: int) -> np.ndarray:
    h = (hi - lo) / cells
    return lo + h * (np.arange(cells) + 0.5)


@dataclass
class GridDensity:
    """Cell values of a density on a box of one or two axes: ``box`` holds one
    (lo, hi) pair per axis of ``values``.  A one-axis grid is also a start
    law, with ``sample`` and ``logpdf`` as a GaussianLaw has them."""

    box: tuple
    values: np.ndarray
    s: float = 0.0

    @property
    def axes(self) -> list:
        """Cell-centre coordinates along each axis."""
        return [_centers(lo, hi, n) for (lo, hi), n in zip(self.box, self.values.shape)]

    @property
    def spacings(self) -> list:
        """Cell widths along each axis."""
        return [(hi - lo) / n for (lo, hi), n in zip(self.box, self.values.shape)]

    def mass(self) -> float:
        return float(np.sum(self.values) * math.prod(self.spacings))

    def normalized(self) -> "GridDensity":
        return replace(self, values=self.values / self.mass())

    def moments(self):
        """Mean (d,) and covariance (d, d) over the d = 1 or 2 axes."""
        w = self.values / np.sum(self.values)
        marginals = [w.sum(axis=tuple(j for j in range(w.ndim) if j != i))
                     for i in range(w.ndim)]
        mean = np.array([float(np.sum(m * a)) for m, a in zip(marginals, self.axes)])
        devs = [a - m for a, m in zip(self.axes, mean)]
        cov = np.diag([float(np.sum(m * d * d)) for m, d in zip(marginals, devs)])
        if w.ndim == 2:
            cov[0, 1] = cov[1, 0] = float(devs[0] @ w @ devs[1])
        return mean, cov

    def _line(self):
        """(lo, hi) of a one-axis grid; SpecError on two axes."""
        if self.values.ndim != 1:
            raise SpecError("quantile, sample and logpdf need a one-axis grid density")
        return self.box[0]

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF at ``u`` in [0, 1), linear within each cell; ``u`` falls
        in the cell i with F_i <= u < F_{i+1}, so never in an empty one."""
        lo, hi = self._line()
        cdf = np.concatenate([[0.0], np.cumsum(self.values) * self.spacings[0]])
        cdf /= cdf[-1]
        edges = np.linspace(lo, hi, len(self.values) + 1)
        i = np.minimum(np.searchsorted(cdf, u, side="right") - 1, len(self.values) - 1)
        slope = (edges[i + 1] - edges[i]) / (cdf[i + 1] - cdf[i])
        return slope * (u - cdf[i]) + edges[i]

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """``size`` states (size, 1) drawn by the inverse CDF."""
        return self.quantile(gen.random(size))[:, None]

    def logpdf(self, x) -> np.ndarray:
        """Log density of the normalised grid at states ``x`` (..., 1): the log
        cell values, linear between cell centres and held past the end ones."""
        self._line()
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (1,):
            raise SpecError(f"a one-axis grid density takes states (..., 1), got {x.shape}")
        logv = np.log(np.maximum(self.values, TINY))
        return np.interp(x[..., 0], self.axes[0], logv) - math.log(self.mass())


# ---------------------------------------------------------------------------
# entropy functionals on grids
# ---------------------------------------------------------------------------

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
    if not _same_grid(density.axes, reference.axes):
        raise SpecError("the two densities are not on the same grid")
    vol = math.prod(density.spacings)
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
    mesh = np.stack(np.meshgrid(*like.axes, indexing="ij"), axis=-1)
    vals = np.exp(-spec.beta * spec.energy(mesh, s))
    vals /= np.sum(vals) * math.prod(like.spacings)
    return replace(like, values=vals, s=s)


def fisher_and_rate_terms(spec, density, s: float) -> RateTerms:
    """Central-difference Fisher integral and the two potential-rate integrals
    on a 1D or (q, p) grid.  Each axis of the Fisher form is weighted by its
    entry of diag(B B^T), B = ``spec.noise_factor(s)``, so on a phase-space
    grid only the momentum gradient counts."""
    return _rate_terms(spec, density, s, gibbs_grid(spec, s, density).values)


def _rate_terms(spec, density, s: float, gibbs: np.ndarray) -> RateTerms:
    """``fisher_and_rate_terms`` against the grid Gibbs values ``gibbs`` at s."""
    vol = math.prod(density.spacings)
    rho = density.values
    b = spec.noise_factor(s)
    fisher = 0.0
    for axis, (h, weight) in enumerate(zip(density.spacings, np.diag(b @ b.T).tolist())):
        grad = _log_ratio_gradient(rho, gibbs, h, axis)
        fisher += weight * float(np.sum(grad * grad * rho) * vol)
    # dV/ds on the position axis (axis 0), constant along a momentum axis
    dv = spec.potential.dv_ds(density.axes[0][:, None], s)
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
    (sub, diag, sup) and the explicit one's, or None for theta = 1.  The
    explicit rows are written over sup, sub and diag, so building the bands
    holds six arrays of their size at once."""
    ci = theta * dt
    implicit_diag = diag * -ci
    implicit_diag += 1.0
    implicit = (-ci * sub, implicit_diag, -ci * sup)
    if theta < 1.0:
        c = (1.0 - theta) * dt
        sub *= c
        diag *= c
        diag += 1.0
        sup *= c
        return implicit, (sub, diag, sup)
    return implicit, None


# LAPACK's tridiagonal solver in the library numpy's linalg links, with the
# width of its integers: numpy >= 2 wheels, numpy 1.2x wheels, then a system
# LAPACK.
_DGTSV_SYMBOLS = (("scipy_dgtsv_64_", np.int64), ("dgtsv_64_", np.int64), ("dgtsv_", np.int32))


def _resolve_dgtsv(lib):
    """The first ``_DGTSV_SYMBOLS`` routine that the library handle ``lib``
    exports, typed to take its eight arguments by address, and its integer
    type; ImportError if it exports none."""
    import ctypes

    for name, int_type in _DGTSV_SYMBOLS:
        routine = getattr(lib, name, None)
        if routine is not None:
            routine.argtypes = [ctypes.c_void_p] * 8
            routine.restype = None
            return routine, int_type
    tried = ", ".join(name for name, _ in _DGTSV_SYMBOLS)
    raise ImportError(f"numpy's LAPACK has no dgtsv (tried {tried})")


@functools.cache
def _dgtsv():
    """LAPACK ``dgtsv`` of numpy's linalg, bound on first use; a ctypes call
    releases the GIL while it runs."""
    import ctypes
    from numpy.linalg import _umath_linalg

    return _resolve_dgtsv(ctypes.CDLL(_umath_linalg.__file__))


class _ThetaSolver:
    """The ``dgtsv`` workspace of theta steps on right-hand sides of
    ``shape``, (cells,) or (cells, lines): the band buffers that ``dgtsv``
    overwrites, two result buffers that alternate, and the integer block
    (n, nrhs, ldb, info), with their addresses taken once.  A result stays
    valid through the next call, which may read it as its r.  Each march owns
    its workspace, so marches in different threads solve at once."""

    def __init__(self, shape: tuple):
        import ctypes

        self.routine, int_type = _dgtsv()
        n = shape[0]
        self.bands = (np.empty(n - 1), np.empty(n), np.empty(n - 1))
        self.ints = np.array([n, math.prod(shape[1:]), n, 0], dtype=int_type)
        self.col = (slice(None),) + (None,) * (len(shape) - 1)

        def ptr(a: np.ndarray, i: int = 0):
            return ctypes.c_void_p(a.ctypes.data + i * a.itemsize)

        n_p, nrhs_p, ldb_p, info_p = (ptr(self.ints, i) for i in range(4))
        dl, d, du = (ptr(b) for b in self.bands)
        self.slots = []
        for _ in range(2):
            out = np.empty(shape, order="F")
            self.slots.append((out, (n_p, nrhs_p, dl, d, du, ptr(out), ldb_p, info_p)))

    def __call__(self, implicit, explicit, r: np.ndarray) -> np.ndarray:
        """One step with the ``_theta_bands`` rows ``implicit`` and
        ``explicit`` along axis 0 of r; see ``_theta_solve``."""
        out, args = self.slots[0]
        self.slots.reverse()
        if explicit is None:
            out[...] = r
        else:
            sub, diag, sup = explicit
            col = self.col
            np.multiply(r, diag[col], out=out)
            out[:-1] += sup[col] * r[1:]
            out[1:] += sub[col] * r[:-1]
        dl, d, du = self.bands
        dl[...], d[...], du[...] = implicit
        self.routine(*args)
        info = int(self.ints[3])
        if info != 0 or not np.isfinite(out).all():
            raise QuadratureError(f"tridiagonal step failed (LAPACK info {info}) or is not finite")
        return out


def _theta_solve(implicit, explicit, r: np.ndarray) -> np.ndarray:
    """One step with the ``_theta_bands`` rows ``implicit`` and ``explicit``
    along axis 0 of r, by LAPACK ``dgtsv``, leaving r and the rows as they
    were; QuadratureError if the solve fails or its result is not finite."""
    return _ThetaSolver(r.shape)(implicit, explicit, r)


def _block_bands(spec, x: np.ndarray, h: float, s: np.ndarray, dt: float, theta: float,
                 adjoint: bool):
    """The ``_theta_bands`` rows of a 1-D march at each mid-time of ``s``,
    stacked on a leading axis; the adjoint march uses the transposed
    generator with the killing rate beta dV/ds on its diagonal.  The rate is
    evaluated first, so that its temporaries and the rates' are never alive
    together; only the bands stay alive while a block is stepped."""
    kill = spec.beta * spec.potential.dv_ds(x[:, None], s[:, None]) if adjoint else None
    _, (up, down, diag) = _generator_rates(spec, x, h, s)
    if adjoint:
        up, down = down, up
        diag -= kill
    return _theta_bands(up, down, diag, dt, theta)


def _march(spec, x: np.ndarray, h: float, dt: float, n_steps: int, theta: float,
           r: np.ndarray, adjoint: bool):
    """Yield (k, r_k) for each step k of a 1-D fitted-flux march on cell
    centres ``x`` from the state ``r``: step k solves with the
    ``_block_bands`` rows at the mid-time (k + 1/2) dt, evaluated MARCH_BLOCK
    steps at a time.  The adjoint march steps backward in k.  r_k is a
    buffer of the march's ``_ThetaSolver``: the next step reads it, so the
    caller may change it in place but copies it to keep it.  A block's bands
    are dropped before the next block's are built."""
    solve = _ThetaSolver(r.shape)
    starts = range(0, n_steps, MARCH_BLOCK)
    for k0 in reversed(starts) if adjoint else starts:
        s = (np.arange(k0, min(k0 + MARCH_BLOCK, n_steps)) + 0.5) * dt
        implicit, explicit = _block_bands(spec, x, h, s, dt, theta, adjoint)
        for j in reversed(range(len(s))) if adjoint else range(len(s)):
            r = solve([b[j] for b in implicit],
                      None if explicit is None else [b[j] for b in explicit], r)
            yield k0 + j, r
        del implicit, explicit


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


@dataclass
class FPSolution:
    """Recorded slices of a density march on a fixed box."""

    times: np.ndarray       # recorded times (M,)
    snapshots: np.ndarray   # (M, *cells)
    box: tuple              # one (lo, hi) pair per grid axis
    mass_drift: float       # max |mass - 1| observed before renormalisation

    def density(self, t: float) -> GridDensity:
        idx = _time_index(self.times, t)
        return GridDensity(self.box, self.snapshots[idx].copy(), float(self.times[idx]))


class _Recorder:
    """Snapshot store of a march of ``n_steps`` steps of ``dt`` on a grid of
    ``shape``: it records the start, every ``every``-th step and the last
    step.  ``every`` None is the stride that keeps about ``default_records``
    snapshots; SpecError if it is below 1."""

    def __init__(self, n_steps: int, dt: float, every, default_records: int, shape: tuple):
        if every is None:
            every = max(1, n_steps // default_records)
        elif every < 1:
            raise SpecError(f"record_every must be at least 1, got {every}")
        self.n_steps, self.dt, self.every, self.n = n_steps, dt, every, 0
        records = 1 + n_steps // every + (n_steps % every > 0)
        self.times = np.zeros(records)
        self.snaps = np.empty((records,) + shape)

    def record(self, k: int, values: np.ndarray) -> bool:
        """Store ``values`` as the state after step k (k = -1: the start) if
        that step is recorded; whether it was."""
        if (k + 1) % self.every and k + 1 != self.n_steps:
            return False
        self.times[self.n] = (k + 1) * self.dt
        self.snaps[self.n] = values
        self.n += 1
        return True


def _clamp(rho: np.ndarray, k: int) -> None:
    """Zero the roundoff negatives of the density after step k, in place;
    PositivityError if a cell is below -1e-12 times the largest."""
    if rho.min() < -1e-12 * rho.max():
        raise PositivityError(f"density lost positivity at step {k}: min={rho.min():.3e}")
    np.maximum(rho, 0.0, out=rho)


# ---------------------------------------------------------------------------
# overdamped solver
# ---------------------------------------------------------------------------

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

    if isinstance(init, GridDensity):
        if not _same_grid(init.axes, axes):
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
                theta: float = 1.0) -> FPSolution:
    """March the overdamped density on a fixed box with zero-flux boundaries.

    ``theta`` = 1 is the robust implicit step (positivity + discrete entropy
    monotonicity for frozen potentials); 0.5 gives the second-order
    Crank-Nicolson variant used where accuracy of the trace matters.
    """
    if spec.dimension != 1:
        raise SpecError("solve_fp_1d is one-dimensional")
    n_steps = _grid_steps(spec.horizon, dt, cells, theta)
    rec = _Recorder(n_steps, dt, record_every, 800, (cells,))
    lo, hi = _box_from_spec(spec, radius_std)
    h = (hi - lo) / cells
    x = _centers(lo, hi, cells)
    rho = _init_values(init, [x], h)
    rec.record(-1, rho)
    mass_drift = abs(np.sum(rho) * h - 1.0)

    for k, rho in _march(spec, x, h, dt, n_steps, theta, rho, adjoint=False):
        _clamp(rho, k)
        mass = rho.sum() * h
        mass_drift = max(mass_drift, abs(mass - 1.0))
        if abs(mass - 1.0) > 1e-8:
            raise QuadratureError(f"mass leaked beyond tolerance at step {k}: {mass - 1.0:.3e}")
        if rec.record(k, rho) and max(rho[0], rho[-1]) > 1e-9 * max(rho.max(), TINY):
            raise QuadratureError("solver box too small: boundary density is not negligible")

    return FPSolution(rec.times, rec.snaps, ((lo, hi),), mass_drift)


# ---------------------------------------------------------------------------
# kinetic solver
# ---------------------------------------------------------------------------

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
                        record_every: int | None = None) -> FPSolution:
    """Strang-split kinetic solver: half friction-diffusion, transport, half.

    Transport is semi-Lagrangian on the ratio w = rho / gibbs(s_mid), split
    by direction (Cheng & Knorr, J. Comput. Phys. 22, 1976) into a half free
    stream in q, a full kick in p under the frozen potential and a second half
    stream.  The Hamiltonian is separable, so each sub-step is the exact flow
    of its part, and it moves every line of the grid by one shift: a 1-D cubic
    Lagrange interpolation per line.  Both velocities are read from
    ``spec.drift``, so a reversed spec streams and kicks backwards.  Lookups
    past the box hold the edge value of each tap.  The four weights of a line
    sum to 1, so a constant ratio stays constant to roundoff, and for a frozen
    quadratic or perturbed potential the Gibbs state is a fixed point of the
    full step up to roundoff.  A step may move the mass by at most
    ``KINETIC_LEAK_RATE * dt`` before it is renormalised; a larger defect
    raises QuadratureError.
    """
    if spec.dimension != 1:
        raise SpecError("solve_kinetic_fp_2d expects one position dimension")
    n_steps = _grid_steps(spec.horizon, dt, cells, axes=2)
    rec = _Recorder(n_steps, dt, record_every, 400, tuple(cells))
    nq, npp = cells
    m_scalar = float(spec.mass[0, 0])
    p_max = radius_std * math.sqrt(m_scalar / spec.beta)
    grid = GridDensity((_box_from_spec(spec, radius_std), (-p_max, p_max)), np.zeros(cells))
    qs, ps = grid.axes
    hq, hp = grid.spacings
    vol = hq * hp
    rho = _init_values(init, [qs, ps], vol)

    beta, xi = spec.beta, spec.xi
    # Momentum friction-diffusion: fitted flux against exp(-beta p^2 / 2m),
    # identical tridiagonal system for every position column.
    p_face = 0.5 * (ps[:-1] + ps[1:])
    implicit, _ = _theta_bands(*_fitted_rates(0.5 * ps * ps / m_scalar,
                                              0.5 * p_face * p_face / m_scalar, xi, beta, hp),
                               0.5 * dt, 1.0)

    solve = _ThetaSolver((npp, nq))

    def diffusion_half(r: np.ndarray) -> np.ndarray:
        return solve(implicit, None, r.T).T

    # A sub-step of dt shifts a line by -dt * velocity / h cells.  The stream
    # velocity, the q-part of the drift on the line q = 0, moves each momentum
    # column by a fixed amount, so its half-step taps are built once; the kick,
    # the p-part on the line p = 0, moves each position row with the potential.
    stream_v = spec.drift(np.stack([np.zeros(npp), ps], axis=-1), 0.0)[:, 0]
    stream = _shift_taps(-(0.5 * dt) * stream_v / hq, (nq, npp), 0)
    on_q = np.stack([qs, np.zeros(nq)], axis=-1)
    maxwell = np.exp(-0.5 * beta * ps * ps / m_scalar)
    q_col = qs[:, None]

    rec.record(-1, rho)
    mass_drift = 0.0
    for k in range(n_steps):
        s_mid = (k + 0.5) * dt
        rho = diffusion_half(rho)
        # transport on the density/Gibbs ratio: half stream, kick, half stream
        gibbs = np.multiply.outer(np.exp(-beta * spec.potential.v(q_col, s_mid)), maxwell)
        kick = _shift_taps(-dt * spec.drift(on_q, s_mid)[:, 1] / hp, (nq, npp), 1)
        w = _shift(_shift(_shift(rho / gibbs, stream), kick), stream)
        rho = diffusion_half(gibbs * w)
        _clamp(rho, k)
        mass = np.sum(rho) * vol
        mass_drift = max(mass_drift, abs(mass - 1.0))
        if abs(mass - 1.0) > KINETIC_LEAK_RATE * dt:
            raise QuadratureError(f"kinetic mass leaked at step {k}: {mass - 1.0:.3e}")
        rho /= mass
        rec.record(k, rho)

    return FPSolution(rec.times, rec.snaps, grid.box, mass_drift)
