"""Work-tilted value functions and the steering fields they induce.

The positive factor

    g(x, s) = E[ exp(-beta int_s^T dV/ds(x(u), u) du) | x(s) = x ]

(expectation over the uncontrolled dynamics) solves a backward equation with
killing rate beta dV/ds.  Its logarithm U = -ln(g)/beta is a value function:
the feedback u*(x, s) = -2 sigma(s)^T grad U steers the forward dynamics so
that the reweighted work estimator becomes deterministic, and the time-zero
slice tilts the Gibbs law into the matching optimal starting distribution
exp(-beta(V(x, 0) + U(x, 0))) / Z(T).

Two routes are provided here: direct Monte Carlo for pointwise values and a
fitted Crank-Nicolson march for one-dimensional overdamped problems.  For a
quadratic potential, of either kind of spec, the value function is quadratic
and solves a matrix Riccati equation: gaussian_oracle.riccati_value_function.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, SpecError
from .fokker_planck import (MARCH_BLOCK, GridDensity1D, _box_from_spec, _generator_rates,
                            _grid_steps, _march, _theta_solve)
from .model import BrownianSpec, partition_function
from .sde import _run_blocks

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Monte Carlo pointwise values
# ---------------------------------------------------------------------------

def feynman_kac_g(spec: BrownianSpec, x0, s0: float, n_paths: int, dt: float,
                  seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of g(x0, s0) with its standard error.

    Runs the overdamped block runner, uncontrolled, from the fixed point x0
    at time s0 to the horizon and averages exp(-beta W) of the accumulated
    schedule work over the paths that stay finite; the standard error needs
    at least two of them.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = spec.dimension
    if x0.shape != (d,):
        raise SpecError(f"x0 must have shape ({d},)")
    if not np.all(np.isfinite(x0)):
        raise SpecError("x0 must be finite")
    ens = _run_blocks(spec, None, spec.horizon - s0, n_paths, dt, seed,
                      lambda gen, size: np.tile(x0, (size, 1)), s0=s0)
    vals = np.exp(-spec.beta * ens.terminal_work[ens.finite()])
    if len(vals) < 2:
        raise SpecError("need at least two finite paths")
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return mean, stderr


# ---------------------------------------------------------------------------
# one-dimensional backward PDE solve
# ---------------------------------------------------------------------------

@dataclass
class GridControl1D:
    """g and its derived fields on a space-time grid (times ascending)."""

    spec: BrownianSpec
    times: np.ndarray      # (S,)
    lo: float
    hi: float
    g: np.ndarray          # (S, cells)
    _warned: bool = False

    @property
    def x(self) -> np.ndarray:
        return GridDensity1D.centers(self.lo, self.hi, self.g.shape[1])

    def _value_rows(self, rows: slice) -> np.ndarray:
        """U = -ln(g)/beta on the time rows ``rows`` of the grid."""
        return -np.log(self.g[rows]) / self.spec.beta

    def _control_rows(self, rows: slice) -> np.ndarray:
        """u*(x, s) = -2 sigma(s) dU/dx on the time rows ``rows`` of the grid."""
        u_val = self._value_rows(rows)
        h = (self.hi - self.lo) / self.g.shape[1]
        du = np.empty_like(u_val)
        du[:, 1:-1] = (u_val[:, 2:] - u_val[:, :-2]) / (2 * h)
        du[:, 0] = (u_val[:, 1] - u_val[:, 0]) / h
        du[:, -1] = (u_val[:, -1] - u_val[:, -2]) / h
        sig = self.spec.diffusion.sigma(self.times[rows])[:, 0, 0]
        return -2.0 * sig[:, None] * du

    def _time_weights(self, s: float):
        times = self.times
        s = min(max(float(s), times[0]), times[-1])
        j = int(np.searchsorted(times, s, side="right")) - 1
        j = min(max(j, 0), len(times) - 2)
        frac = (s - times[j]) / (times[j + 1] - times[j])
        return j, frac

    def _interp(self, rows_of, x, s: float) -> np.ndarray:
        """The field whose time rows ``rows_of(slice)`` gives, linear in time
        between the two rows around ``s`` (clamped to the grid) and in x."""
        pts = np.asarray(x, dtype=float).reshape(-1)
        if not self._warned and (pts.min() < self.lo or pts.max() > self.hi):
            logger.warning("control query outside the solved box [%g, %g]; "
                           "using constant extrapolation", self.lo, self.hi)
            self._warned = True
        j, frac = self._time_weights(s)
        before, after = rows_of(slice(j, j + 2))
        row = (1.0 - frac) * before + frac * after
        return np.interp(pts, self.x, row)

    def value(self, x, s: float) -> np.ndarray:
        return self._interp(self._value_rows, x, s)

    def g_at(self, x, s: float) -> np.ndarray:
        return self._interp(self.g.__getitem__, x, s)

    def control_grid(self) -> np.ndarray:
        """u*(x, s) = -2 sigma(s) dU/dx sampled on the grid."""
        return self._control_rows(slice(None))

    def control_field(self):
        """The control u*(x, s), interpolated from the two time rows of
        :meth:`control_grid` around s, which each call computes afresh."""
        return lambda x, s: self._interp(self._control_rows, x, s)[:, None]

    def _tilted(self) -> GridDensity1D:
        """exp(-beta V(., 0)) g(., 0) on the grid, unnormalised."""
        vals = np.exp(-self.spec.beta * self.spec.potential.v(self.x[:, None], 0.0)) \
            * self.g[0]
        return GridDensity1D(self.lo, self.hi, vals, 0.0)

    def tilted_initial_density(self) -> GridDensity1D:
        """Normalised optimal starting density exp(-beta V(., 0)) g(., 0) / Z(T)."""
        return self._tilted().normalized()

    def tilted_initial_mass(self) -> float:
        """Unnormalised mass of the tilted start; equals 1 when consistent."""
        return self._tilted().mass() / partition_function(self.spec, self.spec.horizon).z

    def hjb_residual(self) -> float:
        """Max | U_s + L U - gamma (U_x)^2 + dV/ds | over the core region.

        The core masks out the zero-flux boundary layer, where the boxed
        problem legitimately differs from the free-space one.
        """
        center, std = self.spec.potential.envelope(0.0, self.spec.beta)
        core = np.abs(self.x - center) <= 5.0 * std
        return float(np.max([np.max(np.abs(r[:, core])) for r in self._hjb_blocks()]))

    def _hjb_blocks(self):
        """U_s + L U - gamma (U_x)^2 + dV/ds on every cell, MARCH_BLOCK time
        rows at a time.  U_s reads a window of two more rows on each side, for
        its 5-point stencil, and grows toward the other side to 5 rows at a
        short last block, so the one-sided rows of ``derivative_uniform`` land
        only on the grid's true ends."""
        from .entropy import derivative_uniform

        x = self.x
        h = x[1] - x[0]
        dt = self.times[1] - self.times[0]
        n = len(self.times)
        for i in range(0, n, MARCH_BLOCK):
            j = min(i + MARCH_BLOCK, n)
            hi = min(j + 2, n)
            lo = max(min(i - 2, hi - 5), 0)
            window = self._value_rows(slice(lo, hi))
            u_s = derivative_uniform(window, dt)[i - lo:j - lo]
            u = window[i - lo:j - lo]
            s = self.times[i:j]
            gamma, (up, down, _) = _generator_rates(self.spec, x, h, s)
            ux = np.gradient(u, h, axis=1)
            lu = np.zeros_like(u)
            lu[:, :-1] += down * (u[:, 1:] - u[:, :-1])
            lu[:, 1:] += up * (u[:, :-1] - u[:, 1:])
            yield u_s + lu - gamma * ux ** 2 + self.spec.potential.dv_ds(x[:, None], s[:, None])


def solve_g_pde_1d(spec: BrownianSpec, dt: float, cells: int = 800,
                   radius_std: float = 10.0, theta: float = 0.5) -> GridControl1D:
    """March g backward from the flat horizon slice on a zero-flux box.

    The elliptic part uses the same Boltzmann-fitted interface weights as the
    density solver (so constants are in its kernel exactly), the killing term
    beta dV/ds sits on the diagonal, and ``theta`` selects implicit Euler (1)
    or Crank-Nicolson (0.5) in reversed time.
    """
    if spec.dimension != 1:
        raise SpecError("solve_g_pde_1d is one-dimensional")
    n_steps = _grid_steps(spec.horizon, dt, cells, theta)
    lo, hi = _box_from_spec(spec, radius_std)
    h = (hi - lo) / cells
    x = GridDensity1D.centers(lo, hi, cells)
    g = np.empty((n_steps + 1, cells))
    g[n_steps] = 1.0
    for k, implicit, explicit in _march(spec, x, h, dt, n_steps, theta, adjoint=True):
        g[k] = _theta_solve(implicit, explicit, g[k + 1])
        if g[k].min() <= 0.0:
            raise PositivityError(f"g lost positivity at s={k * dt:.6g}: min={g[k].min():.3e}")
    times = dt * np.arange(n_steps + 1)
    return GridControl1D(spec=spec, times=times, lo=lo, hi=hi, g=g)
