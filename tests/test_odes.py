"""The ODE layer: fixed-step RK4 and cumulative Simpson quadrature.

Every closed-form oracle integrates its ODE with ``rk4_path``, which
evaluates the coefficients once per path on arrays of stage times.  The
references below keep the stage-by-stage form, with each schedule evaluated
at a scalar stage time, and the oracles must match them bit for bit.  The
hand-derived scalar Riccati systems of the overdamped 1-D and the centred
kinetic value functions stay here as independent references for the one
matrix Riccati equation that replaced them.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from noneq import (
    BrownianSpec,
    DiffusionFactor,
    GaussianLaw,
    LangevinSpec,
    Linear,
    QuadraticPotential,
    RotationCirculation,
    Sine,
    langevin_propagator,
    ou_moments_path,
    riccati_value_function,
)
from noneq.gaussian_oracle import _riccati_substeps
from noneq.odes import cumulative_simpson, rk4_path


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


# ---------------------------------------------------------------------------
# RK4: stage-by-stage references
# ---------------------------------------------------------------------------

def rk4_stagewise(f, y0, times, substeps):
    """Reference: y' = f(s, y) with f called at each scalar stage time."""
    times = np.asarray(times, dtype=float)
    y = np.array(y0, dtype=float, copy=True)
    out = [y]
    for i in range(len(times) - 1):
        h = (times[i + 1] - times[i]) / substeps
        for j in range(substeps):
            s = times[i] + j * h
            k1 = f(s, y)
            k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(s + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def brownian_riccati_stagewise(spec, times, substeps):
    pot = spec.potential

    def rhs(s, y):
        alpha, delta, c0 = y
        g = float(spec.diffusion.gamma(s)[0, 0])
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

    return rk4_stagewise(rhs, np.zeros(3), times[::-1], substeps)[::-1]


def langevin_riccati_stagewise(spec, times, substeps):
    pot, xi, beta, n = spec.potential, spec.xi, spec.beta, spec.dimension
    m = float(spec.mass[0, 0])

    def rhs(s, y):
        lqq, lqp, lpp, c0 = y
        eta = float(pot.k.value(s))
        etad = float(pot.k.derivative(s))
        dqq = 2.0 * (eta * lqp + xi * lqp * lqp) - etad
        dqp = -lqq / m + eta * lpp + xi * lqp / m + 2.0 * xi * lqp * lpp
        dpp = 2.0 * (-lqp / m + xi * lpp / m + xi * lpp * lpp)
        dc0 = -(xi / beta) * n * lpp
        return np.array([dqq, dqp, dpp, dc0])

    return rk4_stagewise(rhs, np.zeros(4), times[::-1], substeps)[::-1]


def ou_system_stagewise(spec):
    n = spec.dimension
    jmat = spec.circulation.matrix(n)
    pot = spec.potential

    def amat(s):
        return jmat - float(pot.k.value(s)) * spec.diffusion.gamma(s)

    def force(s):
        k, mu = float(pot.k.value(s)), float(pot.mu.value(s))
        return k * mu * (spec.diffusion.gamma(s) @ np.ones(n))

    def noise(s):
        return (2.0 / spec.beta) * spec.diffusion.gamma(s)

    return amat, force, noise


def langevin_system_stagewise(spec, reverse):
    n, pot, minv, T = spec.dimension, spec.potential, spec.mass_inv, spec.horizon
    sign = -1.0 if reverse else 1.0

    def amat(s):
        eta = float(pot.k.value(T - s if reverse else s))
        a = np.zeros((2 * n, 2 * n))
        a[:n, n:] = sign * minv
        a[n:, :n] = -sign * eta * np.eye(n)
        a[n:, n:] = -spec.xi * minv
        return a

    def force(s):
        t = T - s if reverse else s
        f = np.zeros(2 * n)
        f[n:] = sign * float(pot.k.value(t)) * float(pot.mu.value(t)) * np.ones(n)
        return f

    noise_rate = np.zeros((2 * n, 2 * n))
    noise_rate[n:, n:] = (2.0 * spec.xi / spec.beta) * np.eye(n)
    return amat, force, lambda s: noise_rate


def riccati_stagewise(spec, system, times, substeps):
    """W' = -(A~^T W + W A~) + 2 W G~ W - Q~, with -(2/beta) tr(G P) in the corner."""
    amat, force, noise = system
    pot, beta, n = spec.potential, spec.beta, spec.dimension
    width = len(force(0.0)) + 1

    def rhs(s, y):
        atil = np.zeros((width, width))
        atil[:-1, :-1] = amat(s)
        atil[:-1, -1] = force(s)
        gtil = np.zeros((width, width))
        gtil[:-1, :-1] = (0.5 * beta) * noise(s)
        k, kd = float(pot.k.value(s)), float(pot.k.derivative(s))
        mu, mud = float(pot.mu.value(s)), float(pot.mu.derivative(s))
        qtil = np.zeros((width, width))
        qtil[range(n), range(n)] = kd
        qtil[:n, -1] = qtil[-1, :n] = -(kd * mu + k * mud)
        qtil[-1, -1] = 2.0 * n * (0.5 * kd * mu * mu + k * mud * mu)
        w = y.reshape(width, width)
        wg = w.dot(gtil)
        aw = atil.T.dot(w)
        wgw = wg.dot(w)
        dw = wgw + wgw.T - (aw + aw.T) - qtil
        dw[-1, -1] -= (2.0 / beta) * np.trace(wg)
        return dw.ravel()

    ws = rk4_stagewise(rhs, np.zeros(width * width), times[::-1], substeps)[::-1]
    return ws.reshape(len(times), width, width)


def moments_stagewise(system, init, times, substeps=16):
    amat, force, noise = system
    n = init.dim

    def rhs(s, y):
        m, c = y[:n], y[n:].reshape(n, n)
        a = amat(s)
        return np.concatenate([a @ m + force(s), (a @ c + c @ a.T + noise(s)).ravel()])

    ys = rk4_stagewise(rhs, np.concatenate([init.mean, init.cov.ravel()]), times, substeps)
    return [(y[:n], 0.5 * (y[n:].reshape(n, n) + y[n:].reshape(n, n).T)) for y in ys]


def assert_laws_equal(laws, reference):
    assert len(laws) == len(reference)
    for law, (mean, cov) in zip(laws, reference):
        assert_array_equal(law.mean, mean)
        assert_array_equal(law.cov, cov)


def scheduled_spec():
    """Sine stiffness, a moving centre and Sine-scheduled noise."""
    return BrownianSpec(QuadraticPotential(Sine(0.5, 1.0, 1.5), Linear(-0.3, 0.8, 1.0)),
                        beta=1.3, horizon=1.0,
                        diffusion=DiffusionFactor.isotropic(1, 1.0, Sine(0.5, 1.0, 1.25)))


def kinetic_spec(dimension=1, mass=None, stiffness=None):
    return LangevinSpec(QuadraticPotential(stiffness or Linear(1.0, 1.5, 1.0),
                                           Linear(0.2, -0.4, 1.0), dimension),
                        beta=0.9, horizon=1.0, xi=0.7, mass=mass)


# ---------------------------------------------------------------------------
# RK4: the engine and the oracles built on it
# ---------------------------------------------------------------------------

def test_coefficients_evaluated_once_per_stage_array():
    calls = []

    def coef(s):
        calls.append(s.shape)
        return (3.0 * s * s,)

    times = np.linspace(0.0, 2.0, 6)
    ys = rk4_path(lambda c, y: np.array([c[0]]), coef, np.zeros(1), times, 4)
    assert calls == [(5, 4)] * 3
    assert_allclose(ys[:, 0], times ** 3, rtol=0, atol=1e-14)


def rotating_spec():
    """A 2-D spec with circulation, a moving centre and scheduled noise."""
    return BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), Sine(0.4), 2),
                        beta=1.2, horizon=1.0, circulation=RotationCirculation(0.6),
                        diffusion=DiffusionFactor.isotropic(2, 1.0, Sine(0.5, 1.0, 1.25)))


OU_RAMP = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0)), beta=1.0, horizon=1.0)


def centred_kinetic(stiffness):
    return LangevinSpec(QuadraticPotential(stiffness), beta=0.9, horizon=1.0, xi=0.7)


@pytest.mark.parametrize("knots", [11, 41, 201])
@pytest.mark.parametrize("spec", [OU_RAMP, scheduled_spec()], ids=["ou-ramp", "scheduled"])
def test_brownian_riccati_matches_stagewise(spec, knots):
    """U = alpha x^2 + delta x + c0: P = 2 alpha, q = delta and W's corner 2 c0."""
    times = np.linspace(0.0, 1.0, knots)
    w = riccati_value_function(spec, times).w
    ref = brownian_riccati_stagewise(spec, times, _riccati_substeps(times))
    assert_allclose(np.stack([w[:, 0, 0] / 2.0, w[:, 0, 1], w[:, 1, 1] / 2.0], axis=1), ref,
                    rtol=0, atol=1e-14)


@pytest.mark.parametrize("knots", [11, 41, 201])
@pytest.mark.parametrize("stiffness", [Linear(1.0, 1.5, 1.0), Sine(0.4, 2.0, 1.2)],
                         ids=["ramp", "sine"])
def test_langevin_riccati_matches_stagewise(stiffness, knots):
    """U = (Lqq q^2 + 2 Lqp q p + Lpp p^2) / 2 + c0 for a centred potential and unit mass."""
    spec = centred_kinetic(stiffness)
    times = np.linspace(0.0, 1.0, knots)
    w = riccati_value_function(spec, times).w
    ref = langevin_riccati_stagewise(spec, times, _riccati_substeps(times))
    assert_allclose(np.stack([w[:, 0, 0], w[:, 0, 1], w[:, 1, 1], w[:, 2, 2] / 2.0], axis=1),
                    ref, rtol=0, atol=1e-14)
    assert np.all(w[:, :2, 2] == 0.0)


@pytest.mark.parametrize("spec, system", [
    (OU_RAMP, ou_system_stagewise),
    (scheduled_spec(), ou_system_stagewise),
    (rotating_spec().reversed(), ou_system_stagewise),
    (centred_kinetic(Sine(0.4, 2.0, 1.2)), lambda spec: langevin_system_stagewise(spec, False)),
    (kinetic_spec(2, np.diag([2.0, 0.5])), lambda spec: langevin_system_stagewise(spec, False)),
], ids=["ou-ramp", "scheduled", "rotating-reversed", "kinetic-sine", "kinetic-n2-mass"])
def test_matrix_riccati_matches_stagewise(spec, system):
    times = np.linspace(0.0, 1.0, 21)
    ref = riccati_stagewise(spec, system(spec), times, _riccati_substeps(times))
    assert_array_equal(riccati_value_function(spec, times).w, ref)


def test_riccati_step_is_at_most_the_maximum():
    """The CLI's 201-knot grids take 4 substeps of 1/800, 1001 knots take 1."""
    assert [_riccati_substeps(np.linspace(0.0, 1.0, k)) for k in (2, 11, 201, 1001)] == \
        [800, 80, 4, 1]
    assert _riccati_substeps(np.array([0.0, 0.001, 0.5, 1.0])) == 400


@pytest.mark.parametrize("dimension, mass", [(1, None), (2, np.diag([2.0, 0.5]))],
                         ids=["n1", "n2-mass"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_langevin_push_matches_stagewise(dimension, mass, reverse):
    spec = kinetic_spec(dimension, mass, Sine(0.3, 1.0, 1.1))
    times = np.linspace(0.0, 1.0, 21)
    rng = np.random.default_rng(dimension)
    mean = rng.standard_normal(2 * dimension)
    half = rng.standard_normal((2 * dimension, 2 * dimension))
    init = GaussianLaw(mean, half @ half.T + np.eye(2 * dimension))
    laws = langevin_propagator(spec.reversed() if reverse else spec, times).push(init)
    ref = moments_stagewise(langevin_system_stagewise(spec, reverse), init, times)
    assert_laws_equal(laws, ref)


@pytest.mark.parametrize("dimension, mass", [(1, None), (2, np.diag([2.0, 0.5]))],
                         ids=["n1", "n2-mass"])
def test_flow_map_matches_stagewise(dimension, mass):
    spec = kinetic_spec(dimension, mass)
    times = np.linspace(0.0, 1.0, 21)
    amat, _, _ = langevin_system_stagewise(spec, reverse=False)
    ref = rk4_stagewise(lambda s, g: amat(s) @ g, np.eye(2 * dimension), times, 16)
    assert_array_equal(langevin_propagator(spec, times).fundamental.gammas, ref)


def test_flow_map_is_built_on_first_access():
    spec = kinetic_spec()
    prop = langevin_propagator(spec, np.linspace(0.0, 1.0, 11))
    prop.push(GaussianLaw(np.zeros(2), np.eye(2)))
    assert "fundamental" not in prop.__dict__
    assert prop.fundamental is prop.fundamental
    assert "fundamental" in prop.__dict__


def test_ou_moments_of_reversed_spec_match_stagewise():
    spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), Sine(0.4), 2),
                        beta=1.2, horizon=1.0, circulation=RotationCirculation(0.6),
                        diffusion=DiffusionFactor.isotropic(2, 1.0, Sine(0.5, 1.0, 1.25)))
    rspec = spec.reversed()
    init = GaussianLaw(np.array([0.5, -1.0]), np.array([[0.8, 0.2], [0.2, 1.1]]))
    times = np.linspace(0.0, 1.0, 21)
    laws = ou_moments_path(rspec, init, times)
    assert_laws_equal(laws, moments_stagewise(ou_system_stagewise(rspec), init, times))
