"""Closed-form Gaussian machinery that anchors every Monte Carlo and grid check."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from noneq import (
    BrownianSpec,
    Constant,
    DiffusionFactor,
    GaussianLaw,
    LangevinSpec,
    Linear,
    QuadraticPotential,
    RotationCirculation,
    SpecError,
    TanhPerturbedPotential,
    feynman_kac_g,
    gaussian_kl,
    gaussian_modified_functional,
    gaussian_tv_1d,
    gaussian_w2,
    gibbs_gaussian,
    langevin_propagator,
    ou_moments,
    ou_moments_path,
    partition_function,
    riccati_value_function,
    simulate_forward,
)


def ou_spec(k0=1.0, k1=None, beta=1.0, horizon=1.0):
    sched = Constant(k0) if k1 is None else Linear(k0, k1, horizon)
    return BrownianSpec(QuadraticPotential(sched, dimension=1), beta=beta,
                        horizon=horizon)


def kin_spec(eta0=1.0, eta1=None, xi=1.0, beta=1.0, horizon=1.0, mass=None,
             dimension=1):
    sched = Constant(eta0) if eta1 is None else Linear(eta0, eta1, horizon)
    return LangevinSpec(QuadraticPotential(sched, dimension=dimension),
                        beta=beta, horizon=horizon, xi=xi, mass=mass)


class TestOuMoments:
    def test_gibbs_start_is_fixed_point(self):
        spec = ou_spec(k0=1.5, beta=2.0)
        init = gibbs_gaussian(spec, 0.0)
        for s in (0.25, 0.5, 1.0):
            law = ou_moments(spec, init, s)
            assert_allclose(law.mean, init.mean, atol=1e-12)
            assert_allclose(law.cov, init.cov, rtol=1e-10)

    def test_unit_ou_closed_form(self):
        spec = ou_spec()
        init = GaussianLaw(np.array([2.0]), np.array([[1.0]]))
        for s in (0.3, 1.0):
            law = ou_moments(spec, init, s)
            assert_allclose(law.mean[0], 2.0 * math.exp(-s), rtol=1e-10)
            assert_allclose(law.cov[0, 0], 1.0, rtol=1e-10)

    def test_step_refinement_converges(self):
        spec = ou_spec(k0=1.0, k1=2.0)
        init = GaussianLaw(np.array([1.0]), np.array([[0.5]]))
        coarse = ou_moments(spec, init, 1.0, substeps=32)
        fine = ou_moments(spec, init, 1.0, substeps=320)
        assert abs(coarse.cov[0, 0] - fine.cov[0, 0]) <= 1e-8 * fine.cov[0, 0]

    def test_flow_property(self):
        """Propagating 0 -> s then s -> t equals propagating 0 -> t."""
        spec = ou_spec(k0=1.0, k1=2.0)
        init = GaussianLaw(np.array([1.3]), np.array([[0.4]]))
        direct = ou_moments(spec, init, 0.9)

        mid = ou_moments(spec, init, 0.4)
        # restart the schedule at s = 0.4
        tail = BrownianSpec(QuadraticPotential(Linear(1.4, 2.0, 0.6)),
                            beta=1.0, horizon=0.6)
        relay = ou_moments(tail, mid, 0.5)
        assert_allclose(relay.mean, direct.mean, atol=1e-10)
        assert_allclose(relay.cov, direct.cov, atol=1e-10)

    def test_rejects_non_quadratic(self):
        spec = BrownianSpec(TanhPerturbedPotential(Constant(0.2)), beta=1.0,
                            horizon=1.0)
        with pytest.raises(SpecError):
            ou_moments(spec, GaussianLaw(np.zeros(1), np.eye(1)), 0.5)

    def test_path_variant_matches_single_times(self):
        spec = ou_spec(k0=1.0, k1=1.5)
        init = GaussianLaw(np.array([0.7]), np.array([[0.9]]))
        times = np.linspace(0.0, 1.0, 5)
        laws = ou_moments_path(spec, init, times)
        for t, law in zip(times[1:], laws[1:]):
            single = ou_moments(spec, init, float(t))
            assert_allclose(law.mean, single.mean, atol=1e-9)
            assert_allclose(law.cov, single.cov, atol=1e-9)


class TestLangevinPropagator:
    def test_flow_determinant_n1(self):
        spec = kin_spec()
        prop = langevin_propagator(spec, np.linspace(0.0, 1.0, 101))
        fm = prop.fundamental
        assert fm.det_identity_residual() <= 1e-8
        g1 = fm.gammas[-1]
        assert_allclose(np.linalg.det(g1), math.exp(-1.0), rtol=1e-8)
        assert_allclose(fm.gammas[0], np.eye(2), atol=0)

    def test_flow_determinant_n2_anisotropic_mass(self):
        spec = kin_spec(dimension=2, horizon=2.0,
                        mass=np.diag([2.0, 0.5]))
        prop = langevin_propagator(spec, np.linspace(0.0, 2.0, 161))
        assert prop.fundamental.det_identity_residual() <= 1e-8

    def test_push_is_the_moment_path(self):
        """A propagator's push is ou_moments_path on the same spec, bit for bit."""
        spec = anisotropic_kinetic_spec().reversed()
        times = np.linspace(0.0, 1.0, 11)
        init = GaussianLaw(np.array([0.6, -0.3, 0.2, 0.1]), np.diag([0.5, 0.8, 1.2, 0.7]))
        pushed = langevin_propagator(spec, times, substeps=8).push(init)
        direct = ou_moments_path(spec, init, times, substeps=8)
        for a, b in zip(pushed, direct, strict=True):
            assert_array_equal(a.mean, b.mean)
            assert_array_equal(a.cov, b.cov)

    def test_stationary_pushforward(self):
        spec = kin_spec(eta0=1.3, beta=0.8)
        init = gibbs_gaussian(spec, 0.0)
        laws = langevin_propagator(spec, np.linspace(0.0, 1.0, 21)).push(init)
        for law in laws:
            assert_allclose(law.mean, init.mean, atol=1e-10)
            assert_allclose(law.cov, init.cov, rtol=1e-8)

    def test_pushforward_against_monte_carlo(self):
        spec = kin_spec(eta1=1.5)
        init = GaussianLaw(np.array([0.4, -0.6]), np.diag([0.8, 1.1]))
        n, dt = 30000, 1e-3
        ens = simulate_forward(spec, n, dt=dt, seed=2, init=init,
                                store_times=[1.0])
        law = langevin_propagator(spec, [0.0, 1.0]).push(init)[-1]
        x = ens.states_at(1.0)
        for col in range(2):
            se = x[:, col].std(ddof=1) / math.sqrt(n)
            assert abs(x[:, col].mean() - law.mean[col]) <= 4.0 * se + 5.0 * dt
            v = x[:, col].var(ddof=1)
            assert abs(v - law.cov[col, col]) <= 4.0 * v * math.sqrt(2.0 / n) + 5.0 * dt


class TestGaussianFunctionals:
    def test_kl_zero_at_equality(self):
        p = GaussianLaw(np.array([0.3, -0.1]), np.array([[1.0, 0.2], [0.2, 0.7]]))
        assert gaussian_kl(p, p) <= 1e-14

    def test_kl_unit_translation(self):
        p = GaussianLaw(np.array([1.0]), np.array([[1.0]]))
        q = GaussianLaw(np.array([0.0]), np.array([[1.0]]))
        assert_allclose(gaussian_kl(p, q), 0.5, rtol=1e-14)

    def test_kl_closed_form_1d(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            mu, s2 = rng.normal(), float(np.exp(rng.normal()))
            p = GaussianLaw(np.array([mu]), np.array([[s2]]))
            q = GaussianLaw(np.array([0.0]), np.array([[1.0]]))
            expected = 0.5 * (s2 + mu * mu - 1.0 - math.log(s2))
            assert_allclose(gaussian_kl(p, q), expected, rtol=1e-12, atol=1e-14)

    def test_kl_matches_grid_quadrature(self):
        p = GaussianLaw(np.array([0.8]), np.array([[1.4]]))
        q = GaussianLaw(np.array([-0.2]), np.array([[0.9]]))
        x = np.linspace(-14.0, 14.0, 200001)[:, None]
        pp, qq = p.pdf(x), q.pdf(x)
        quad = np.trapezoid(pp * np.log(pp / qq), x[:, 0])
        assert abs(gaussian_kl(p, q) - quad) <= 1e-6

    def test_kl_dominates_tv_squared(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = GaussianLaw(rng.normal(size=1), np.array([[float(np.exp(rng.normal()))]]))
            q = GaussianLaw(rng.normal(size=1), np.array([[float(np.exp(rng.normal()))]]))
            tv = gaussian_tv_1d(p, q)
            assert gaussian_kl(p, q) >= 0.5 * tv * tv - 1e-12

    def test_w2_translation(self):
        p = GaussianLaw(np.array([2.0]), np.array([[0.6]]))
        q = GaussianLaw(np.array([-1.0]), np.array([[0.6]]))
        assert_allclose(gaussian_w2(p, q), 3.0, rtol=1e-12)

    def test_singular_covariance_rejected_at_construction(self):
        with pytest.raises(SpecError):
            GaussianLaw(np.zeros(1), np.array([[0.0]]))
        with pytest.raises(SpecError):
            GaussianLaw(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestModifiedFunctional:
    def phase_laws(self):
        p = GaussianLaw(np.array([0.9, 0.0]), np.diag([1.0, 1.0]))
        q = GaussianLaw(np.array([0.0, 0.0]), np.diag([1.0, 1.0]))
        return p, q

    def test_zero_at_equality(self):
        _, q = self.phase_laws()
        assert gaussian_modified_functional(q, q, 0.05, 0.04, 0.05) <= 1e-14

    def test_reduces_to_kl(self):
        p, q = self.phase_laws()
        assert_allclose(gaussian_modified_functional(p, q, 0.0, 0.0, 0.0),
                        gaussian_kl(p, q), rtol=1e-12)

    def test_quadrature_cross_check(self):
        """Mean shift in position only, quadratic weights a=c=1, b=0: the
        closed form must match a dense 2D quadrature of the defining integral."""
        p, q = self.phase_laws()
        val = gaussian_modified_functional(p, q, 1.0, 0.0, 1.0)

        grid = np.linspace(-9.0, 9.0, 1201)
        qq, pp = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([qq, pp], axis=-1)
        dens_p = p.pdf(pts)
        log_ratio = p.logpdf(pts) - q.logpdf(pts)
        gq, gp = np.gradient(log_ratio, grid, grid)
        h = grid[1] - grid[0]
        kl = np.sum(dens_p * log_ratio) * h * h
        quad = kl + np.sum(dens_p * (gp * gp + gq * gq)) * h * h
        assert abs(val - quad) <= 1e-6

    def test_monotone_in_quadratic_weights(self):
        p, q = self.phase_laws()
        base = gaussian_modified_functional(p, q, 0.2, 0.0, 0.2)
        assert gaussian_modified_functional(p, q, 0.4, 0.0, 0.2) >= base
        assert gaussian_modified_functional(p, q, 0.2, 0.0, 0.4) >= base

    def test_dominates_kl(self):
        p = GaussianLaw(np.array([0.5, -0.3]), np.diag([1.2, 0.8]))
        q = GaussianLaw(np.zeros(2), np.eye(2))
        assert (gaussian_modified_functional(p, q, 0.05, 0.04, 0.05)
                >= gaussian_kl(p, q))


def rotating_spec():
    """Rotation about the well's centre; the noise is anisotropic, so that the
    circulation changes g (under isotropic noise U is radial and J . grad U = 0)."""
    return BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=2), beta=1.0,
                        horizon=1.0, circulation=RotationCirculation(0.7),
                        diffusion=DiffusionFactor(np.array([[1.0, 0.0], [0.3, 0.8]])))


def anisotropic_kinetic_spec():
    return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), Linear(0.2, -0.4, 1.0), 2),
                        beta=0.9, horizon=1.0, xi=0.7, mass=np.diag([2.0, 0.5]))


class TestRiccatiValueFunction:
    def test_frozen_potential_gives_unit_g(self):
        spec = ou_spec()
        ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 51))
        x = np.linspace(-3.0, 3.0, 11)[:, None]
        for s in (0.0, 0.5, 1.0):
            assert_allclose(ric.g(x, s), 1.0, atol=1e-12)
            assert_allclose(ric.value(x, s), 0.0, atol=1e-12)

    def test_terminal_condition(self):
        spec = ou_spec(k0=1.0, k1=2.0)
        ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 101))
        x = np.linspace(-4.0, 4.0, 9)[:, None]
        assert_allclose(ric.g(x, 1.0), 1.0, atol=1e-12)
        assert_allclose(ric.value(x, 1.0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("spec, points", [
        (ou_spec(k0=1.0, k1=2.0), [[-1.5], [-0.5], [0.0], [0.8], [1.7]]),
        (rotating_spec(), [[1.2, -0.4], [-0.6, 1.5]]),
    ], ids=["ou-ramp", "rotating-2d"])
    def test_feynman_kac_cross_check(self, spec, points):
        ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 101))
        for x0 in points:
            est, se = feynman_kac_g(spec, np.array(x0), 0.0, n_paths=20000,
                                    dt=1e-3, seed=int(10 * abs(x0[0])) + 1)
            exact = float(ric.g(np.array(x0), 0.0))
            assert abs(est - exact) <= 4.0 * se + 5e-3 * exact

    @pytest.mark.parametrize("spec", [ou_spec(k0=1.0, k1=2.0), rotating_spec(),
                                      anisotropic_kinetic_spec()],
                             ids=["ou-ramp", "rotating-2d", "kinetic-n2-mass"])
    def test_tilted_initial_law_integrates_to_one(self, spec):
        ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 201))
        assert abs(ric.tilted_initial_mass() - 1.0) <= 1e-6

    def test_tilted_law_is_proper_gaussian(self):
        spec = ou_spec(k0=1.0, k1=2.0)
        ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 201))
        law = ric.tilted_initial_law()
        z0 = partition_function(spec, 0.0).z
        zt = partition_function(spec, 1.0).z
        x = np.linspace(-8.0, 8.0, 20001)
        dens = np.exp(-spec.potential.v(x[:, None], 0.0)) * ric.g(x[:, None], 0.0) / zt
        assert_allclose(np.trapezoid(dens, x), 1.0, atol=1e-6)
        assert_allclose(law.pdf(x[:, None]), dens, atol=1e-8)
        assert z0 != zt


def test_langevin_riccati_time_independent_trivial():
    spec = kin_spec()
    sol = riccati_value_function(spec, np.linspace(0.0, 1.0, 51))
    pts = np.array([[0.5, -0.5], [1.0, 2.0]])
    for s in (0.0, 0.4, 1.0):
        assert_allclose(sol.value(pts, s), 0.0, atol=1e-12)
        assert_allclose(sol.control(pts, s), 0.0, atol=1e-12)
