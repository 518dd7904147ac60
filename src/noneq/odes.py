"""Fixed-step RK4 integration, cumulative Simpson quadrature and time-grid helpers."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SpecError


def _step_count(span: float, dt: float) -> int:
    """Number of steps of size ``dt`` across ``span``.

    Raises SpecError unless dt is finite and positive and divides the span
    into at least one whole step.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise SpecError(f"dt must be finite and positive, got {dt}")
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, span):
        raise SpecError("dt must divide the simulated interval into whole steps")
    return n_steps


def _time_index(times: np.ndarray, t: float) -> int:
    """Index of the entry of ``times`` within 1e-9 of ``t``; SpecError if none is."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9:
        raise SpecError(f"time {t} was not recorded")
    return idx


def rk4_path(f: Callable, coef: Callable, y0: np.ndarray, times: np.ndarray,
             substeps: int = 8) -> np.ndarray:
    """Integrate y' = f(coef(s), y) through ``times`` (monotone, either direction).

    Each interval between consecutive grid times is split into ``substeps``
    RK4 steps.  ``coef`` is called once per path on each of the three arrays
    of stage times (step start, midpoint, step end), shaped (intervals,
    substeps); it returns a tuple of float arrays whose leading axes are
    those two.  ``f`` receives one stage's slice of that tuple, with scalar
    coefficients as Python floats, and the state as a flat list of floats;
    it returns the derivative as a flat sequence of floats.  The stages are
    combined elementwise on floats, in the order numpy would use on arrays.
    Returns an array of shape (len(times),) + y0.shape.  Raises SpecError
    for ``substeps`` below 1.
    """
    if substeps < 1:
        raise SpecError(f"substeps must be at least 1, got {substeps}")
    times = np.asarray(times, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    y = y0.ravel().tolist()
    out = np.empty((len(times), len(y)))
    out[0] = y
    h = np.diff(times) / substeps
    # Stage times are anchored to the interval start so the last stage
    # lands exactly on the knot: s += h drifts across substeps and can
    # sample a one-sided coefficient on the wrong side of a junction.
    start = times[:-1, None] + np.arange(substeps) * h[:, None]
    stages = [coef(start), coef(start + 0.5 * h[:, None]), coef(start + h[:, None])]
    for i, hi in enumerate(h.tolist()):
        c1, c2, c4 = (_interval_stages(c, i) for c in stages)
        half, sixth = 0.5 * hi, hi / 6.0
        for j in range(substeps):
            k1 = f(c1[j], y)
            k2 = f(c2[j], [a + half * b for a, b in zip(y, k1)])
            k3 = f(c2[j], [a + half * b for a, b in zip(y, k2)])
            k4 = f(c4[j], [a + hi * b for a, b in zip(y, k3)])
            y = [a + sixth * (b + 2.0 * c + 2.0 * d + e)
                 for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        out[i + 1] = y
    return out.reshape((len(times),) + y0.shape)


def _interval_stages(coefs, i: int) -> list:
    """Interval ``i`` of each coefficient array, as one tuple per substep."""
    return list(zip(*(a[i].tolist() if a.ndim == 2 else a[i] for a in coefs)))


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y with 4th-order panels.

    Even cumulative indices use composite Simpson; odd ones add a half-panel
    integral from the local quadratic through the three neighbouring samples.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    out = np.zeros(n)
    if n == 1:
        return out
    if n == 2:  # no quadratic available; trapezoid
        out[1] = 0.5 * h * (y[0] + y[1])
        return out
    # integral over [x_{2k}, x_{2k+2}]
    pair = h / 3.0 * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    even = np.concatenate([[0.0], np.cumsum(pair)])
    out[::2][: len(even)] = even
    # odd points: integral over [x_{i-1}, x_i] from the quadratic on (i-1, i, i+1)
    half = h / 12.0 * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:])
    out[1:-1:2] = out[:-2:2] + half[::2]
    if n % 2 == 0:  # last point odd: integrate backwards from the final even point
        out[-1] = out[-2] + h / 12.0 * (8.0 * y[-2] + 5.0 * y[-1] - y[-3])
    return out
