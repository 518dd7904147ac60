"""Cumulative Simpson quadrature."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from noneq.odes import cumulative_simpson


def point_by_point(y, h):
    """Reference: the same panels accumulated one index at a time."""
    n = len(y)
    out = np.zeros(n)
    if n == 2:
        out[1] = 0.5 * h * (y[0] + y[1])
        return out
    for i in range(2, n, 2):
        out[i] = out[i - 2] + h / 3.0 * (y[i - 2] + 4.0 * y[i - 1] + y[i])
    for i in range(1, n, 2):
        if i + 1 < n:
            out[i] = out[i - 1] + h / 12.0 * (5.0 * y[i - 1] + 8.0 * y[i] - y[i + 1])
        else:
            out[i] = out[i - 1] + h / 12.0 * (8.0 * y[i - 1] + 5.0 * y[i] - y[i - 2])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 1025, 1026])
def test_matches_point_by_point_form(n):
    y = np.random.default_rng(n).standard_normal(n)
    assert_array_equal(cumulative_simpson(y, 0.37), point_by_point(y, 0.37))


@pytest.mark.parametrize("n", [9, 10])
def test_exact_on_quadratics(n):
    """Every panel integrates its local quadratic, so x^2 comes out exact at
    every index, including the backward half-panel at an odd final index."""
    x = np.linspace(0.0, 2.0, n)
    assert_allclose(cumulative_simpson(x * x, x[1]), x ** 3 / 3.0, rtol=0, atol=1e-14)
