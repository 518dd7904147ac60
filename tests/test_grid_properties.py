"""Property tests: the grid solvers return or raise one of the typed errors.

Hypothesis draws valid and invalid time steps, cell counts, theta values and
initial cell values for each grid entry point, and the box radius of the
kinetic march.  Every call must return or raise one of the six errors of
``noneq.errors``, never a bare numpy or scipy exception; a bad step, cell
count or theta must raise ``SpecError``.  Runs are derandomized and capped
at 20 steps on at most 40 cells per axis.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noneq import (
    BlowUpError,
    BrownianSpec,
    CertificateInfeasible,
    ConfigError,
    GridDensity1D,
    LangevinSpec,
    Linear,
    PositivityError,
    QuadraticPotential,
    QuadratureError,
    SpecError,
    relative_entropy_grid,
    solve_fp_1d,
    solve_g_pde_1d,
    solve_kinetic_fp_2d,
)

TYPED = (BlowUpError, CertificateInfeasible, ConfigError, PositivityError, QuadratureError,
         SpecError)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Steps that divide the unit horizon into at most 20 steps, and steps that do not.
GOOD_DTS = (0.05, 0.1, 0.25, 0.5, 1.0)
good_dts = st.sampled_from(GOOD_DTS)
bad_dts = st.sampled_from([0.0, -0.1, 0.3, 0.07, 3.0, math.nan, math.inf, -math.inf])
good_cells = st.integers(3, 40)
bad_cells = st.integers(-2, 2)
good_thetas = st.floats(0.5, 1.0)
bad_thetas = st.sampled_from([0.0, 0.49, 1.01, 2.0, math.nan])
fills = st.floats(0.0, 10.0)
odd_values = st.one_of(st.none(), st.floats(0.0, 10.0),
                       st.sampled_from([-1.0, math.nan, math.inf]))


def brownian_spec():
    return BrownianSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1), beta=1.0,
                        horizon=1.0)


def kinetic_spec():
    return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1), beta=1.0,
                        horizon=1.0, xi=1.0)


def bump(fill, odd):
    """A Gaussian bump of height ``fill``, with the value ``odd`` in one cell
    unless it is None."""

    def init(*axes):
        vals = fill * np.exp(-0.5 * sum(a * a for a in np.ix_(*axes)))
        if odd is not None:
            vals.flat[vals.size // 2] = odd
        return vals

    return init


def init_error(fill, odd):
    """The error an initial bump must raise, or None where any outcome is allowed."""
    odd = fill if odd is None else odd
    if not math.isfinite(odd) or fill == odd == 0.0:
        return SpecError
    return PositivityError if odd < 0 else None


def returns_or_raises_typed(call, expected=None):
    try:
        call()
    except TYPED as exc:
        assert expected is None or isinstance(exc, expected), repr(exc)
    else:
        assert expected is None


@PROPERTY
@given(dt=good_dts, cells=good_cells, theta=good_thetas, fill=fills, odd=odd_values)
def test_density_march(dt, cells, theta, fill, odd):
    returns_or_raises_typed(
        lambda: solve_fp_1d(brownian_spec(), bump(fill, odd), dt, cells=cells, theta=theta),
        init_error(fill, odd))


@PROPERTY
@given(dt=good_dts, cells=good_cells, theta=good_thetas)
def test_backward_g_march(dt, cells, theta):
    returns_or_raises_typed(lambda: solve_g_pde_1d(brownian_spec(), dt, cells=cells,
                                                   theta=theta))


@PROPERTY
@given(dt=good_dts, cells=st.tuples(good_cells, good_cells), fill=fills, odd=odd_values,
       radius_std=st.floats(4.0, 10.0))
# Boxes narrow enough for the cubic shift to keep the mass, so the march returns.
@example(dt=0.05, cells=(40, 40), fill=1.0, odd=0.0, radius_std=4.0)
@example(dt=0.05, cells=(40, 36), fill=5.0, odd=None, radius_std=4.0)
def test_kinetic_march(dt, cells, fill, odd, radius_std):
    returns_or_raises_typed(
        lambda: solve_kinetic_fp_2d(kinetic_spec(), bump(fill, odd), dt, cells=cells,
                                    radius_std=radius_std),
        init_error(fill, odd))


@PROPERTY
@given(solver=st.sampled_from(["density", "g", "kinetic"]),
       dt=st.one_of(good_dts, bad_dts), cells=st.one_of(good_cells, bad_cells),
       theta=st.one_of(good_thetas, bad_thetas), fill=fills, odd=odd_values)
def test_bad_march_raises_spec_error(solver, dt, cells, theta, fill, odd):
    bad_step_or_grid = dt not in GOOD_DTS or cells < 3
    # the kinetic march has no theta
    assume(bad_step_or_grid or (solver != "kinetic" and not 0.5 <= theta <= 1.0))
    calls = {
        "density": lambda: solve_fp_1d(brownian_spec(), bump(fill, odd), dt, cells=cells,
                                       theta=theta),
        "g": lambda: solve_g_pde_1d(brownian_spec(), dt, cells=cells, theta=theta),
        "kinetic": lambda: solve_kinetic_fp_2d(kinetic_spec(), bump(fill, odd), dt,
                                               cells=(cells, 5)),
    }
    returns_or_raises_typed(calls[solver], SpecError)


@PROPERTY
@given(cells=st.tuples(st.integers(1, 40), st.integers(1, 40)))
def test_grid_relative_entropy(cells):
    p, q = (GridDensity1D(-5.0, 5.0, np.full(n, 0.1)) for n in cells)
    returns_or_raises_typed(lambda: relative_entropy_grid(p, q),
                            SpecError if cells[0] != cells[1] else None)
