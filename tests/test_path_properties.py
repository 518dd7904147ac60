"""Property tests: the path runners return or raise one of the typed errors.

Hypothesis draws time steps, path counts, seeds, initial-state arrays and
injected noise for ``simulate_forward`` (a brownian spec, a kinetic spec
and its reversal) and ``feynman_kac_g``.  Every call must
return or raise one of the six errors of ``noneq.errors``, never a bare numpy
exception.  Valid arguments with a finite start must return; a non-finite
start, a bad step, path count, seed, initial-state shape or noise shape must
raise ``SpecError``.
Runs are derandomized and capped at 20 steps of at most 12 paths.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noneq import (
    BlowUpError,
    BrownianSpec,
    CertificateInfeasible,
    ConfigError,
    LangevinSpec,
    Linear,
    PositivityError,
    QuadraticPotential,
    QuadratureError,
    SpecError,
    feynman_kac_g,
    simulate_forward,
)

TYPED = (BlowUpError, CertificateInfeasible, ConfigError, PositivityError, QuadratureError,
         SpecError)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Steps that divide both the unit horizon and the half horizon left after a
# start at s0 = 0.5, and steps that do not divide the unit horizon.
GOOD_DTS = (0.05, 0.1, 0.25, 0.5)
good_dts = st.sampled_from(GOOD_DTS)
bad_dts = st.sampled_from([0.0, -0.1, 0.3, 0.07, 3.0, math.nan, math.inf, -math.inf])
good_paths = st.integers(2, 12)
good_seeds = st.integers(0, 10**9)
bad_seeds = st.integers(-10**9, -1)
fills = st.floats(-5.0, 5.0)
odd_values = st.one_of(st.none(), st.floats(-5.0, 5.0),
                       st.sampled_from([math.nan, math.inf, -math.inf]))
shapes = st.lists(st.integers(0, 22), min_size=1, max_size=4).map(tuple)

# The state width of each runner: the kinetic state stacks (q, p).  Every
# runner draws one noise column.
WIDTH = {"forward": 1, "langevin": 2, "reversed": 2}
RUNNERS = list(WIDTH)


def brownian_spec():
    return BrownianSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1), beta=1.0,
                        horizon=1.0)


def kinetic_spec():
    return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1), beta=1.0,
                        horizon=1.0, xi=1.0)


def run(runner, n_paths, dt, seed, init=None, noise=None):
    spec = {"forward": brownian_spec, "langevin": kinetic_spec,
            "reversed": lambda: kinetic_spec().reversed()}[runner]()
    return simulate_forward(spec, n_paths, dt, seed=seed, init=init, noise=noise)


def outcome(call):
    """None when ``call`` returns, else the typed error it raised; any other
    exception propagates and fails the test."""
    try:
        call()
    except TYPED as exc:
        return type(exc)
    return None


def start(fill, odd, shape):
    """States of ``shape`` equal to ``fill``, with ``odd`` in one cell unless it is None."""
    x = np.full(shape, fill)
    if odd is not None and x.size:
        x.flat[x.size // 2] = odd
    return x


@PROPERTY
@given(runner=st.sampled_from(RUNNERS), dt=good_dts, n_paths=good_paths, seed=good_seeds,
       init=st.sampled_from(["gibbs", "array"]), fill=fills, odd=odd_values,
       inject=st.booleans())
def test_valid_run(runner, dt, n_paths, seed, init, fill, odd, inject):
    n_steps = round(1.0 / dt)
    states = start(fill, odd, (n_paths, WIDTH[runner])) if init == "array" else None
    noise = (np.random.default_rng(seed).standard_normal((n_steps, n_paths, 1))
             if inject else None)
    got = outcome(lambda: run(runner, n_paths, dt, seed, states, noise))
    finite = states is None or np.all(np.isfinite(states))
    assert got is None if finite else got is SpecError


@PROPERTY
@given(runner=st.sampled_from(RUNNERS), bad=st.sampled_from(["dt", "n_paths", "seed",
                                                              "init", "noise"]),
       data=st.data())
def test_bad_run_raises_spec_error(runner, bad, data):
    dt = data.draw(bad_dts if bad == "dt" else good_dts)
    n_paths = data.draw(st.integers(-3, 0) if bad == "n_paths" else good_paths)
    seed = data.draw(bad_seeds if bad == "seed" else good_seeds)
    init = noise = None
    if bad == "init":
        want = (n_paths, WIDTH[runner])
        init = np.zeros(data.draw(shapes.filter(lambda shape: shape != want)))
    if bad == "noise":
        want = (round(1.0 / dt), n_paths, 1)
        noise = np.zeros(data.draw(shapes.filter(lambda shape: shape != want)))
    assert outcome(lambda: run(runner, n_paths, dt, seed, init, noise)) is SpecError


@PROPERTY
@given(dt=good_dts, s0=st.sampled_from([0.0, 0.5]), n_paths=good_paths, seed=good_seeds,
       x0=odd_values)
def test_valid_feynman_kac(dt, s0, n_paths, seed, x0):
    x0 = 0.3 if x0 is None else x0
    got = outcome(lambda: feynman_kac_g(brownian_spec(), x0, s0, n_paths, dt, seed=seed))
    assert got is None if math.isfinite(x0) else got is SpecError


@PROPERTY
@given(bad=st.sampled_from(["dt", "n_paths", "seed", "x0"]), data=st.data())
def test_bad_feynman_kac_raises_spec_error(bad, data):
    dt = data.draw(bad_dts if bad == "dt" else good_dts)
    n_paths = data.draw(st.integers(-3, 1) if bad == "n_paths" else good_paths)
    seed = data.draw(bad_seeds if bad == "seed" else good_seeds)
    x0 = 0.3
    if bad == "x0":
        x0 = np.zeros(data.draw(shapes.filter(lambda shape: shape != (1,))))
    assert outcome(lambda: feynman_kac_g(brownian_spec(), x0, 0.0, n_paths, dt,
                                         seed=seed)) is SpecError
