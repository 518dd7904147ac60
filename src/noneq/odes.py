"""Fixed-step RK4 integration and cumulative Simpson quadrature helpers."""

from __future__ import annotations

from typing import Callable

import numpy as np


def rk4_step(f: Callable, s: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(s, y)
    k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(s + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_path(f: Callable, y0: np.ndarray, times: np.ndarray, substeps: int = 8) -> np.ndarray:
    """Integrate y' = f(s, y) through ``times`` (monotone, either direction).

    Each interval between consecutive grid times is split into ``substeps``
    RK4 steps.  Returns an array of shape (len(times),) + y0.shape.
    """
    times = np.asarray(times, dtype=float)
    y = np.array(y0, dtype=float, copy=True)
    out = np.empty((len(times),) + y.shape)
    out[0] = y
    for i in range(len(times) - 1):
        h = (times[i + 1] - times[i]) / substeps
        # Stage times are anchored to the interval start so the last stage
        # lands exactly on the knot: s += h drifts across substeps and can
        # sample a one-sided coefficient on the wrong side of a junction.
        for j in range(substeps):
            y = rk4_step(f, times[i] + j * h, y, h)
        out[i + 1] = y
    return out


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
