"""Grid solvers for the density evolution and entropy quadrature on grids."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noneq import (
    BrownianSpec,
    Constant,
    DiffusionFactor,
    GaussianLaw,
    GridDensity1D,
    GridDensity2D,
    LangevinSpec,
    Linear,
    PositivityError,
    QuadratureError,
    QuadraticPotential,
    Sine,
    SpecError,
    TanhPerturbedPotential,
    decay_bound_lipschitz,
    decay_bound_supremum,
    fisher_and_rate_terms,
    gaussian_kl,
    gaussian_w2,
    gibbs_grid,
    hypocoercivity_certificate,
    kinetic_decay_bound_time_dependent,
    langevin_propagator,
    optimize_omega,
    ou_moments,
    ou_moments_path,
    relative_entropy_grid,
    solve_fp_1d,
    solve_g_pde_1d,
    solve_kinetic_fp_2d,
)
from noneq.cli import _ou_spec
from noneq.fokker_planck import (KINETIC_LEAK_RATE, MARCH_BLOCK, _box_from_spec, _dgtsv,
                                 _fitted_rates, _init_values, _shift, _shift_taps,
                                 _theta_bands, _theta_solve)

EPS = np.finfo(float).eps


def theta_step(sup, sub, diag, r, dt, theta):
    """One theta step of the generator tridiag(sub, diag, sup) on r."""
    return _theta_solve(*_theta_bands(sup, sub, diag, dt, theta), r)


def ou_spec(k0=1.0, k1=None, beta=1.0, horizon=1.0):
    sched = Constant(k0) if k1 is None else Linear(k0, k1, horizon)
    return BrownianSpec(QuadraticPotential(sched, dimension=1), beta=beta,
                        horizon=horizon)


def gaussian_grid(lo, hi, cells, mean, var, s=0.0):
    x = (np.arange(cells) + 0.5) * (hi - lo) / cells + lo
    vals = np.exp(-0.5 * (x - mean) ** 2 / var)
    vals /= np.sum(vals) * (hi - lo) / cells
    return GridDensity1D(lo, hi, vals, s)


class TestOverdampedSolver:
    def test_gibbs_is_stationary(self):
        spec = ou_spec()
        sol = solve_fp_1d(spec, GaussianLaw(np.zeros(1), np.eye(1)), dt=1e-3,
                          cells=800)
        first, last = sol.density(0.0), sol.density(1.0)
        assert abs(last.mean() - first.mean()) <= 1e-8
        assert abs(last.var() - first.var()) <= 1e-8

    def test_moments_track_analytic_law(self):
        spec = ou_spec(k0=1.0, k1=2.0)
        init = GaussianLaw(np.array([1.0]), np.array([[0.5]]))
        sol = solve_fp_1d(spec, init, dt=5e-4, cells=1200, theta=0.5)
        for t in (0.5, 1.0):
            law = ou_moments(spec, init, t)
            snap = sol.density(t)
            assert abs(snap.mean() - law.mean[0]) <= 2e-4
            assert abs(snap.var() - law.cov[0, 0]) <= 2e-4

    def test_mass_conserved_over_many_steps(self):
        spec = ou_spec(k0=1.0, k1=1.5)
        sol = solve_fp_1d(spec, GaussianLaw(np.zeros(1), np.eye(1)), dt=1e-4,
                          cells=600)
        assert sol.mass_drift <= 1e-8

    def test_positivity_of_snapshots(self):
        spec = ou_spec(k0=1.0, k1=2.0)
        sol = solve_fp_1d(spec, GaussianLaw(np.array([1.5]), np.array([[0.3]])),
                          dt=1e-3, cells=500)
        assert sol.snapshots.min() >= 0.0

    def test_second_order_refinement(self):
        """Halving the cell width should cut the moment error by at least 3x
        (the flux discretization is second order in space)."""
        spec = ou_spec(k0=1.0, k1=2.0)
        init = GaussianLaw(np.array([1.0]), np.array([[0.5]]))
        exact = ou_moments(spec, init, 1.0)
        errs = []
        for cells in (150, 300):
            sol = solve_fp_1d(spec, init, dt=2e-4, cells=cells, theta=0.5)
            errs.append(abs(sol.density(1.0).var() - exact.cov[0, 0]))
        assert errs[0] / errs[1] >= 3.0

    def test_box_too_small_rejected(self):
        spec = ou_spec()
        with pytest.raises(QuadratureError):
            solve_fp_1d(spec, GaussianLaw(np.zeros(1), np.eye(1)), dt=1e-3,
                        cells=200, radius_std=2.5)

    def test_callable_and_gaussian_inits_agree(self):
        spec = ou_spec(k0=1.0, k1=1.5)
        law = GaussianLaw(np.array([0.5]), np.array([[0.8]]))
        a = solve_fp_1d(spec, law, dt=1e-3, cells=400)
        b = solve_fp_1d(spec, lambda x: law.pdf(x[:, None]), dt=1e-3, cells=400)
        assert_allclose(a.snapshots, b.snapshots, atol=1e-12)


def test_sampler_never_lands_in_empty_cells():
    """Runs of empty cells at the start, inside and at the end of the grid are
    flat stretches of the CDF; the inverse-CDF sampler places no point in
    them, and each cell with mass gets its share."""
    values = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    dens = GridDensity1D(-4.0, 5.0, values)
    x = dens.sampler()(np.random.default_rng(3), 40000)[:, 0]
    counts = np.bincount(np.floor(x - dens.lo).astype(int), minlength=len(values))
    assert np.all(counts[values == 0] == 0)
    assert_allclose(counts / len(x), values / values.sum(), atol=0.01)


class TestFittedFluxOperator:
    """Contracts of the one generator every grid solver steps with."""

    CELLS = 400

    def frozen_rates(self, beta=1.5):
        pot = TanhPerturbedPotential(Constant(0.8))
        x = GridDensity1D.centers(-6.0, 6.0, self.CELLS)
        v_c = pot.v(x[:, None], 0.0)
        v_f = pot.v(0.5 * (x[:-1] + x[1:])[:, None], 0.0)
        return v_c, _fitted_rates(v_c, v_f, 0.7, beta, 12.0 / self.CELLS)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_gibbs_is_a_fixed_point(self, theta):
        v_c, (up, down, diag) = self.frozen_rates()
        gibbs = np.exp(-1.5 * v_c)
        step = theta_step(up, down, diag, gibbs, 0.05, theta)
        assert np.max(np.abs(step - gibbs)) <= self.CELLS * EPS * np.max(gibbs)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_mass_is_conserved(self, theta):
        _, (up, down, diag) = self.frozen_rates()
        r = np.random.default_rng(11).random(self.CELLS) + 0.1
        step = theta_step(up, down, diag, r, 0.05, theta)
        assert abs(np.sum(step) - np.sum(r)) <= self.CELLS * EPS * np.sum(r)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_adjoint_keeps_constants(self, theta):
        _, (up, down, diag) = self.frozen_rates()
        step = theta_step(down, up, diag, np.ones(self.CELLS), 0.05, theta)
        assert np.max(np.abs(step - 1.0)) <= self.CELLS * EPS

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_killed_march_is_dual_to_g_march(self, theta):
        """The forward march with killing beta dV/ds carries sum(rho_0 g_0) h
        to sum(rho_T) h exactly, because the g-march steps with the
        transpose; the untransposed generator misses at O(1)."""
        spec = ou_spec(k0=1.0, k1=2.0)
        cells, dt = 200, 1e-2
        ctl = solve_g_pde_1d(spec, dt, cells=cells, theta=theta)
        h = (ctl.hi - ctl.lo) / cells
        x = ctl.x[:, None]
        x_face = 0.5 * (ctl.x[:-1] + ctl.x[1:])[:, None]
        rho0 = np.exp(-spec.beta * spec.potential.v(x, 0.0))
        rho0 /= np.sum(rho0) * h
        paired = np.sum(rho0 * ctl.g[0]) * h

        def killed_mass(swap):
            rho = rho0
            for k in range(len(ctl.times) - 1):
                s_mid = (k + 0.5) * dt
                up, down, diag = _fitted_rates(spec.potential.v(x, s_mid),
                                               spec.potential.v(x_face, s_mid),
                                               1.0, spec.beta, h)
                kill = diag - spec.beta * spec.potential.dv_ds(x, s_mid)
                sup, sub = (down, up) if swap else (up, down)
                rho = theta_step(sup, sub, kill, rho, dt, theta)
            return np.sum(rho) * h

        assert abs(killed_mass(False) - paired) <= cells * EPS * paired
        assert abs(killed_mass(True) - paired) >= 0.1 * paired

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    def test_step_matches_banded_solve(self, theta, columns):
        """The direct tridiagonal solve gives scipy's banded solve bit for
        bit, on one or several right-hand sides, and leaves r as it was."""
        from scipy.linalg import solve_banded

        _, (up, down, diag) = self.frozen_rates()
        shape = (self.CELLS,) if columns is None else (columns, self.CELLS)
        r = (np.random.default_rng(5).random(shape) + 0.1).T  # axis 0 is the grid
        kept = r.copy()
        dt = 0.05
        c = (1.0 - theta) * dt
        col = (slice(None),) + (None,) * (r.ndim - 1)
        explicit = r * (1.0 + c * diag)[col]
        explicit[:-1] += (c * up)[col] * r[1:]
        explicit[1:] += (c * down)[col] * r[:-1]
        ab = np.zeros((3, self.CELLS))
        ab[0, 1:] = -theta * dt * up
        ab[1] = 1.0 - theta * dt * diag
        ab[2, :-1] = -theta * dt * down
        step = theta_step(up, down, diag, r, dt, theta)
        np.testing.assert_array_equal(step, solve_banded((1, 1), ab, explicit))
        np.testing.assert_array_equal(r, kept)


def reference_theta_step(sup, sub, diag, r, dt, theta):
    """The theta step as a single function, as it was before its split into
    ``_theta_bands`` and ``_theta_solve``: the explicit product, then ``dgtsv``."""
    from scipy.linalg.lapack import dgtsv

    if theta < 1.0:
        c = (1.0 - theta) * dt
        explicit = r * (1.0 + c * diag)
        explicit[:-1] += (c * sup) * r[1:]
        explicit[1:] += (c * sub) * r[:-1]
    else:
        explicit = r
    ci = theta * dt
    *_, out, info = dgtsv(-ci * sub, 1.0 - ci * diag, -ci * sup, explicit, overwrite_dl=1,
                          overwrite_d=1, overwrite_du=1, overwrite_b=explicit is not r)
    if info != 0 or not np.isfinite(out).all():
        raise QuadratureError(f"tridiagonal step failed (LAPACK info {info}) or is not finite")
    return out


def reference_rates(spec, x, h, dt, k):
    """Fitted rates of step k at its scalar mid-time, and that time."""
    s_mid = (k + 0.5) * dt
    gamma = float(spec.diffusion.gamma(s_mid)[0, 0])
    return _fitted_rates(spec.potential.v(x[:, None], s_mid),
                         spec.potential.v(0.5 * (x[:-1] + x[1:])[:, None], s_mid),
                         gamma, spec.beta, h), s_mid


def reference_grid(spec, cells, radius_std):
    """Cell width and cell centres of the solvers' box."""
    lo, hi = _box_from_spec(spec, radius_std)
    return (hi - lo) / cells, GridDensity1D.centers(lo, hi, cells)


def reference_density_march(spec, init, dt, cells, theta, record_every, radius_std=10.0):
    """The density march one step at a time, coefficients at each scalar
    mid-time: (times, snapshots, mass drift) as ``solve_fp_1d`` gives them."""
    n_steps = round(spec.horizon / dt)
    h, x = reference_grid(spec, cells, radius_std)
    rho = _init_values(init, [x], h)
    times, snaps = [0.0], [rho.copy()]
    mass_drift = abs(np.sum(rho) * h - 1.0)
    for k in range(n_steps):
        (up, down, diag), _ = reference_rates(spec, x, h, dt, k)
        rho = reference_theta_step(up, down, diag, rho, dt, theta)
        if rho.min() < -1e-12 * rho.max():
            raise PositivityError(f"density lost positivity at step {k}: min={rho.min():.3e}")
        np.clip(rho, 0.0, None, out=rho)
        mass = np.sum(rho) * h
        mass_drift = max(mass_drift, abs(mass - 1.0))
        if abs(mass - 1.0) > 1e-8:
            raise QuadratureError(f"mass leaked beyond tolerance at step {k}: {mass - 1.0:.3e}")
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            if max(rho[0], rho[-1]) > 1e-9 * max(rho.max(), 1e-300):
                raise QuadratureError("solver box too small: boundary density is not negligible")
            times.append((k + 1) * dt)
            snaps.append(rho.copy())
    return np.array(times), np.array(snaps), mass_drift


def reference_g_march(spec, dt, cells, theta, radius_std=10.0):
    """The g-march one step at a time, backward from the flat horizon slice:
    the slices in ascending time, as ``solve_g_pde_1d`` gives them."""
    n_steps = round(spec.horizon / dt)
    h, x = reference_grid(spec, cells, radius_std)
    g = np.ones(cells)
    slices = [g.copy()]
    for k in range(n_steps - 1, -1, -1):
        (up, down, diag), s_mid = reference_rates(spec, x, h, dt, k)
        kill = diag - spec.beta * spec.potential.dv_ds(x[:, None], s_mid)
        g = reference_theta_step(down, up, kill, g, dt, theta)
        if g.min() <= 0.0:
            raise PositivityError(f"g lost positivity at s={k * dt:.6g}: min={g.min():.3e}")
        slices.append(g.copy())
    return np.array(slices[::-1])


def outcome(call):
    """The arrays a march returns, or the type and message of its typed error."""
    try:
        return call()
    except (PositivityError, QuadratureError) as err:
        return type(err), str(err)


def assert_same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert not (isinstance(got, tuple) and isinstance(got[0], type)), got
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b, strict=True)


BLOCK_MARCH_SPECS = {
    "moving-quadratic": BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0),
                                                        Linear(0.0, 1.5, 1.0)),
                                     beta=1.3, horizon=1.0),
    "sine-tanh": BrownianSpec(TanhPerturbedPotential(Sine(0.7)), beta=1.0, horizon=1.0),
    "sine-noise": BrownianSpec(QuadraticPotential(Constant(1.0)), beta=1.0, horizon=1.0,
                               diffusion=DiffusionFactor.isotropic(1, 1.0, Sine(0.3, base=1.0))),
}


class TestBlockMarch:
    """The marches evaluate their coefficients MARCH_BLOCK steps at a time;
    they must give the step-by-step reference bit for bit, or fail at the
    same step with the same typed error."""

    CELLS = 60
    INIT = GaussianLaw(np.array([0.3]), np.array([[0.5]]))

    @pytest.mark.parametrize("n_steps", [1, MARCH_BLOCK // 2, 1000])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("name", sorted(BLOCK_MARCH_SPECS))
    def test_matches_the_step_by_step_reference(self, name, reverse, theta, n_steps):
        assert n_steps % MARCH_BLOCK
        spec = BLOCK_MARCH_SPECS[name]
        spec = spec.reversed() if reverse else spec
        dt = spec.horizon / n_steps

        def density():
            sol = solve_fp_1d(spec, self.INIT, dt, cells=self.CELLS, theta=theta,
                              record_every=7)
            return sol.times, sol.snapshots, sol.mass_drift

        assert_same_outcome(outcome(density), outcome(
            lambda: reference_density_march(spec, self.INIT, dt, self.CELLS, theta, 7)))
        assert_same_outcome(
            outcome(lambda: (solve_g_pde_1d(spec, dt, cells=self.CELLS, theta=theta).g,)),
            outcome(lambda: (reference_g_march(spec, dt, self.CELLS, theta),)))

    def test_roundoff_undershoot_is_not_a_loss_of_positivity(self):
        """The guard scales with the peak density: a Crank-Nicolson undershoot
        of about 3e-14 against a peak of order 0.5 is clamped, not fatal."""
        spec = BLOCK_MARCH_SPECS["moving-quadratic"]
        sol = solve_fp_1d(spec, self.INIT, 0.1, cells=120, theta=0.5)
        times, snaps, drift = reference_density_march(spec, self.INIT, 0.1, 120, 0.5, 1)
        np.testing.assert_array_equal(sol.snapshots, snaps, strict=True)
        assert sol.times[-1] == times[-1] == 1.0 and sol.mass_drift == drift

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_overflow_fails_like_the_reference(self, theta):
        spec = _ou_spec(1.0, 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = outcome(lambda: solve_fp_1d(spec, STD_LAW, 0.1, cells=3, radius_std=100.0,
                                              theta=theta))
            want = outcome(lambda: reference_density_march(spec, STD_LAW, 0.1, 3, theta, 1,
                                                           radius_std=100.0))
            assert got == want and want[0] is QuadratureError
            got = outcome(lambda: solve_g_pde_1d(spec, 0.1, cells=3, radius_std=100.0,
                                                 theta=theta))
            want = outcome(lambda: reference_g_march(spec, 0.1, 3, theta, radius_std=100.0))
            assert got == want and want[0] is QuadratureError


class TestEntropyQuadrature:
    def test_zero_at_equality(self):
        d = gaussian_grid(-10, 10, 2000, 0.0, 1.0)
        assert relative_entropy_grid(d, d) == 0.0

    def test_discretized_unit_translation(self):
        p = gaussian_grid(-10, 10, 4000, 1.0, 1.0)
        q = gaussian_grid(-10, 10, 4000, 0.0, 1.0)
        assert abs(relative_entropy_grid(p, q) - 0.5) <= 1e-6

    def test_matches_gaussian_kl_generic_pair(self):
        p = gaussian_grid(-12, 12, 6000, 0.7, 1.3)
        q = gaussian_grid(-12, 12, 6000, -0.4, 0.8)
        exact = gaussian_kl(GaussianLaw(np.array([0.7]), np.array([[1.3]])),
                            GaussianLaw(np.array([-0.4]), np.array([[0.8]])))
        assert abs(relative_entropy_grid(p, q) - exact) <= 1e-5

    def test_dominates_half_tv_squared(self):
        p = gaussian_grid(-10, 10, 3000, 0.9, 1.1)
        q = gaussian_grid(-10, 10, 3000, 0.0, 1.0)
        tv = 0.5 * float(np.sum(np.abs(p.values - q.values)) * p.h)
        assert relative_entropy_grid(p, q) >= 0.5 * tv * tv

    def test_invariant_under_joint_rescaling(self):
        p = gaussian_grid(-10, 10, 2000, 0.5, 1.0)
        q = gaussian_grid(-10, 10, 2000, 0.0, 1.0)
        p3 = GridDensity1D(p.lo, p.hi, 3.0 * p.values, p.s)
        q3 = GridDensity1D(q.lo, q.hi, 3.0 * q.values, q.s)
        assert_allclose(relative_entropy_grid(p3, q3),
                        relative_entropy_grid(p, q), rtol=1e-12)


class TestRateTerms:
    def test_equilibrium_balances_to_zero(self):
        spec = ou_spec()
        like = gaussian_grid(-10, 10, 3000, 0.0, 1.0)
        gibbs = gibbs_grid(spec, 0.0, like)
        terms = fisher_and_rate_terms(spec, gibbs, 0.0)
        assert abs(terms.fisher) <= 1e-10
        assert abs(terms.rhs(spec.beta)) <= 1e-10

    def test_affine_score_fisher(self):
        """For N(mu, 1) against the unit Gibbs well the score of the ratio is
        the constant -mu, so the Fisher term equals mu^2."""
        spec = ou_spec()
        state = gaussian_grid(-10, 10, 4000, 1.0, 1.0)
        terms = fisher_and_rate_terms(spec, state, 0.0)
        assert abs(terms.fisher - 1.0) <= 1e-3

    def test_rate_terms_pick_up_schedule(self):
        spec = ou_spec(k0=1.0, k1=2.0)
        like = gaussian_grid(-10, 10, 4000, 0.0, 1.0)
        state = gibbs_grid(spec, 0.0, like)
        terms = fisher_and_rate_terms(spec, state, 0.0)
        # dV/ds = x^2/2 against both measures; they coincide at s=0, and the
        # Fisher part vanishes, so the whole balance is zero.
        assert_allclose(terms.state_term, terms.gibbs_term, rtol=1e-10)
        assert abs(terms.rhs(spec.beta)) <= 1e-10
        # a colder state changes the balance
        cold = gaussian_grid(-10, 10, 4000, 0.0, 0.5)
        t2 = fisher_and_rate_terms(spec, cold, 0.0)
        assert t2.state_term < t2.gibbs_term


class TestKineticSolver:
    def kin_spec(self, eta1=None):
        sched = Constant(1.0) if eta1 is None else Linear(1.0, eta1, 1.0)
        return LangevinSpec(QuadraticPotential(sched, dimension=1), beta=1.0,
                            horizon=1.0, xi=1.0)

    def test_gibbs_is_stationary(self):
        spec = self.kin_spec()
        init = GaussianLaw(np.zeros(2), np.eye(2))
        sol = solve_kinetic_fp_2d(spec, init, dt=1e-3, cells=(96, 96),
                                  radius_std=9.0)
        d0, d1 = sol.density(0.0), sol.density(1.0)
        m0, c0 = d0.moments()
        m1, c1 = d1.moments()
        assert np.max(np.abs(m1 - m0)) <= 1e-6
        assert np.max(np.abs(c1 - c0)) <= 1e-6

    def test_moments_match_propagator(self):
        spec = self.kin_spec(eta1=1.5)
        init = GaussianLaw(np.array([0.6, -0.3]), np.diag([0.5, 0.8]))
        sol = solve_kinetic_fp_2d(spec, init, dt=5e-4, cells=(160, 160),
                                  radius_std=9.0)
        laws = langevin_propagator(spec, sol.times).push(init)
        for t, law in zip(sol.times, laws):
            m, c = sol.density(float(t)).moments()
            assert np.max(np.abs(m - law.mean)) <= 5e-4
            assert np.max(np.abs(c - law.cov)) <= 5e-4

    def test_momentum_marginal_is_maxwellian(self):
        beta = 2.0
        spec = LangevinSpec(QuadraticPotential(Constant(1.0), dimension=1),
                            beta=beta, horizon=0.5, xi=1.0)
        like = solve_kinetic_fp_2d(
            spec, GaussianLaw(np.zeros(2), np.diag([1.0 / beta, 1.0 / beta])),
            dt=1e-3, cells=(96, 96), radius_std=9.0).density(0.5)
        gibbs = gibbs_grid(spec, 0.5, like)
        p_axis = gibbs.p
        marginal = np.sum(gibbs.values, axis=0) * gibbs.hq
        maxwell = np.exp(-0.5 * beta * p_axis ** 2)
        maxwell /= np.sum(maxwell) * gibbs.hp
        assert np.max(np.abs(marginal - maxwell)) <= 1e-8
        var = float(np.sum(marginal * p_axis ** 2) * gibbs.hp)
        assert abs(var - 1.0 / beta) <= 1e-6

    def test_mass_conserved(self):
        """The transport step is renormalized; recorded snapshots carry unit
        mass and the raw per-step defect stays inside the solver's guard."""
        spec = self.kin_spec(eta1=1.25)
        sol = solve_kinetic_fp_2d(spec, GaussianLaw(np.zeros(2), np.eye(2)),
                                  dt=1e-3, cells=(96, 96), radius_std=9.0)
        assert sol.mass_drift <= 1e-6
        vol = sol.density(1.0).hq * sol.density(1.0).hp
        for snap in sol.snapshots:
            assert abs(np.sum(snap) * vol - 1.0) <= 1e-12

    def test_snapshots_are_written_once(self):
        """The snapshots are preallocated and written in place: the traced
        peak of a 96 x 96 march with 251 records stays within 1.25 times
        their bytes, where copies stacked at the end take twice them."""
        spec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1),
                            beta=1.0, horizon=0.25, xi=1.0)
        init = GaussianLaw(np.array([0.6, -0.3]), np.diag([0.5, 0.8]))
        _dgtsv()  # imports scipy.linalg on first use; not part of the march
        tracemalloc.start()
        try:
            sol = solve_kinetic_fp_2d(spec, init, dt=1e-3, cells=(96, 96), radius_std=9.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.snapshots.shape == (251, 96, 96)
        assert peak <= 1.25 * sol.snapshots.nbytes

    def test_mass_guard_scales_with_dt(self):
        """A step of dt may move the mass by KINETIC_LEAK_RATE * dt: a coarse
        march at dt 0.05 returns, where a fixed per-step bound of 1e-6 (the
        guard at dt 1e-3) would stop it."""
        sol = solve_kinetic_fp_2d(self.kin_spec(eta1=1.5), GaussianLaw(np.zeros(2), np.eye(2)),
                                  dt=0.05, cells=(64, 64), radius_std=6.0)
        assert 1e-6 < sol.mass_drift <= KINETIC_LEAK_RATE * 0.05

    def test_leaking_box_still_raises(self):
        """A box of two standard deviations loses mass through its edges far
        faster than the guard allows."""
        with pytest.raises(QuadratureError, match="mass leaked"):
            solve_kinetic_fp_2d(self.kin_spec(eta1=1.5), GaussianLaw(np.zeros(2), np.eye(2)),
                                dt=0.05, cells=(64, 64), radius_std=2.0)

    def test_perturbed_gibbs_is_a_fixed_point(self):
        """The Gibbs density of a frozen non-quadratic potential is kept to
        roundoff: a constant density/Gibbs ratio stays constant under the
        transport, and the momentum diffusion fixes the Maxwellian."""
        spec = LangevinSpec(TanhPerturbedPotential(Constant(0.8)), beta=1.0, horizon=0.5,
                            xi=1.0)

        def gibbs(q, p):
            mesh = np.stack(np.meshgrid(q, p, indexing="ij"), axis=-1)
            return np.exp(-spec.beta * spec.energy(mesh, 0.0))

        sol = solve_kinetic_fp_2d(spec, gibbs, dt=1e-3, cells=(96, 96), radius_std=9.0)
        rho0, rho1 = sol.snapshots[0], sol.snapshots[-1]
        assert np.max(np.abs(rho1 - rho0)) / np.max(rho0) <= 4 * 500 * EPS


class TestLineShift:
    """The 1-D cubic shift that each transport sub-step applies along grid lines."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_integer_shift_moves_values_exactly(self, axis):
        """Whole-cell shifts copy values; a lookup past the box holds the edge."""
        field = np.random.default_rng(3).random((12, 10))
        lines = field.shape[1 - axis]
        shift = np.arange(lines) % 7 - 3
        out = _shift(field, _shift_taps(shift.astype(float), field.shape, axis))
        n = field.shape[axis]
        source = np.clip(np.arange(n)[:, None] + shift, 0, n - 1)
        expected = (field[source, np.arange(lines)] if axis == 0
                    else field[np.arange(lines)[:, None], source.T])
        assert_allclose(out, expected, rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("shape", [(40, 40), (17, 33), (3, 5)])
    def test_constant_stays_constant(self, shape):
        """Shifts of up to 30 cells, as a step of dt 1 makes on a 40-cell grid
        of the grid property tests, keep a constant field to roundoff, alone
        and composed as stream, kick, stream."""
        c = 3.7
        field = np.full(shape, c)
        stream = _shift_taps(np.linspace(-10.3, 10.3, shape[1]), shape, 0)
        kick = _shift_taps(np.linspace(-30.0, 29.1, shape[0]), shape, 1)
        for out in (_shift(field, stream), _shift(field, kick),
                    _shift(_shift(_shift(field, stream), kick), stream)):
            assert np.max(np.abs(out - c)) <= 8 * EPS * c


# ---------------------------------------------------------------------------
# argument checks at the grid solvers
# ---------------------------------------------------------------------------

def kinetic_spec():
    return LangevinSpec(QuadraticPotential(Constant(1.0), dimension=1), beta=1.0,
                        horizon=1.0, xi=1.0)


STD_LAW = GaussianLaw(np.zeros(1), np.eye(1))
STD_PHASE_LAW = GaussianLaw(np.zeros(2), np.eye(2))
HAND_CERTIFICATE = hypocoercivity_certificate(0.05, 0.04, 0.05, xi=1.0, beta=1.0,
                                              hessian_bound=0.0, lsi_kappa=1.0)


def unit_rate(s):
    return np.ones_like(np.asarray(s, dtype=float))


@pytest.mark.parametrize("call", [
    lambda: solve_fp_1d(ou_spec(), STD_LAW, 1e-2, cells=0),
    lambda: solve_fp_1d(ou_spec(), STD_LAW, 0.0, cells=50),
    lambda: solve_fp_1d(ou_spec(), STD_LAW, float("nan"), cells=50),
    lambda: solve_fp_1d(ou_spec(), lambda x: np.zeros_like(x), 1e-2, cells=50),
    lambda: solve_fp_1d(ou_spec(), lambda x: np.full_like(x, np.nan), 1e-2, cells=50),
    lambda: solve_fp_1d(ou_spec(), STD_LAW, 1e-2, cells=50, theta=2.0),
    lambda: solve_fp_1d(ou_spec(), STD_LAW, 1e-2, cells=50, record_every=0),
    lambda: solve_fp_1d(ou_spec(), gaussian_grid(-40.0, 40.0, 50, 0.0, 1.0), 1e-2, cells=50),
    lambda: solve_g_pde_1d(ou_spec(), 1e-2, cells=50, theta=2.0),
    lambda: solve_g_pde_1d(ou_spec(), 0.0, cells=50),
    lambda: solve_g_pde_1d(ou_spec(), 1e-2, cells=0),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 0.0, cells=(20, 20)),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 1e-2, cells=(2, 2)),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 1e-2, cells=(20, 20),
                                record_every=0),
    lambda: solve_kinetic_fp_2d(kinetic_spec(),
                                GridDensity2D(-40.0, 40.0, -40.0, 40.0, np.ones((20, 20))),
                                1e-2, cells=(20, 20)),
    lambda: solve_fp_1d(ou_spec(), STD_LAW, 1e-2, cells=50.5),
    lambda: solve_fp_1d(ou_spec(), STD_LAW, 1e-2, cells=50, radius_std=math.inf),
    lambda: solve_fp_1d(ou_spec(), STD_PHASE_LAW, 1e-2, cells=50),
    lambda: solve_g_pde_1d(ou_spec(), 1e-2, cells=50, radius_std=-1.0),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 1e-2, cells=(20, 20),
                                radius_std=-1.0),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 1e-2, cells=(20, 20),
                                radius_std=math.nan),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 1e-2, cells=(20.5, 20)),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 1e-2, cells=(20, 20, 20)),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_PHASE_LAW, 1e-2, cells=20),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), STD_LAW, 1e-2, cells=(20, 20)),
    lambda: solve_kinetic_fp_2d(kinetic_spec(), GaussianLaw(np.zeros(3), np.eye(3)), 1e-2,
                                cells=(20, 20)),
    lambda: relative_entropy_grid(gaussian_grid(-5.0, 5.0, 10, 0.0, 1.0),
                                  gaussian_grid(-5.0, 5.0, 12, 0.0, 1.0)),
    lambda: relative_entropy_grid(gaussian_grid(-5.0, 5.0, 10, 0.0, 1.0),
                                  gaussian_grid(-6.0, 6.0, 10, 0.0, 1.0)),
    lambda: solve_fp_1d(ou_spec(), STD_LAW, 0.1, cells=50).density(0.05),
    lambda: ou_moments(ou_spec(), STD_LAW, 1.0, substeps=0),
    lambda: langevin_propagator(kinetic_spec(), [0.0, 1.0], substeps=0).push(STD_PHASE_LAW),
    lambda: optimize_omega(1.0, 1.0, 0.0, 1.0, grid_points=0),
    lambda: optimize_omega(1.0, 1.0, 0.0, 1.0, refine_starts=0),
    lambda: ou_moments_path(ou_spec(), STD_PHASE_LAW, [0.0, 1.0]),
    lambda: langevin_propagator(kinetic_spec(), [0.0, 1.0]).push(STD_LAW),
    lambda: langevin_propagator(kinetic_spec(), [0.0, 1.0]).push(
        GaussianLaw(np.zeros(3), np.eye(3))),
    lambda: gaussian_w2(STD_LAW, STD_PHASE_LAW),
    lambda: ou_moments_path(ou_spec(), STD_LAW, [0.0, 0.5, 0.25]),
    lambda: ou_moments(ou_spec(), STD_LAW, -0.5),
    lambda: langevin_propagator(kinetic_spec(), [0.0, 1.0, 0.5]).push(STD_PHASE_LAW),
    lambda: langevin_propagator(kinetic_spec(), [1.0, 0.0]).fundamental,
    lambda: decay_bound_supremum([0.0, 0.5, 0.25], 0.1, 1.0, 1.0, unit_rate, unit_rate),
    lambda: decay_bound_lipschitz([-0.5, 0.0, 1.0], 0.1, 1.0, 1.0, unit_rate, unit_rate),
    lambda: kinetic_decay_bound_time_dependent(HAND_CERTIFICATE, 0.1, [1.0, 0.5],
                                               unit_rate, unit_rate, unit_rate),
    lambda: decay_bound_supremum([0.0, 0.5, 1.0], -0.1, 1.0, 1.0, unit_rate, unit_rate),
    lambda: decay_bound_lipschitz([0.0, 0.5, 1.0], -1e-300, 1.0, 1.0, unit_rate, unit_rate),
], ids=["fp-no-cells", "fp-zero-dt", "fp-nan-dt", "fp-zero-init", "fp-nan-init",
        "fp-theta-2", "fp-record-0", "fp-init-off-grid", "g-theta-2", "g-zero-dt",
        "g-no-cells", "kinetic-zero-dt", "kinetic-two-cells", "kinetic-record-0",
        "kinetic-init-off-grid", "fp-fractional-cells", "fp-infinite-radius", "fp-2d-init",
        "g-negative-radius", "kinetic-negative-radius", "kinetic-nan-radius",
        "kinetic-fractional-cells", "kinetic-three-cell-counts", "kinetic-scalar-cells",
        "kinetic-1d-init", "kinetic-3d-init", "entropy-grid-mismatch", "entropy-grid-other-box",
        "fp-density-unrecorded-time", "ou-moments-no-substeps",
        "propagator-no-substeps", "omega-no-grid-points", "omega-no-refine-starts",
        "ou-moments-2d-init-on-1d-spec", "propagator-1d-init", "propagator-3d-init",
        "w2-dimension-mismatch", "ou-moments-decreasing-times", "ou-moments-negative-time",
        "propagator-push-decreasing-times", "propagator-flow-decreasing-times",
        "envelope-decreasing-times", "envelope-negative-time",
        "kinetic-envelope-decreasing-times", "envelope-negative-divergence",
        "lipschitz-envelope-negative-divergence"])
def test_bad_grid_arguments_raise_spec_error(call):
    with pytest.raises(SpecError):
        call()


def test_repeated_time_knots_are_legal():
    """A zero-length step moves nothing: the moments at time 0 are the initial law."""
    init = GaussianLaw(np.array([0.4]), np.array([[0.7]]))
    law = ou_moments(ou_spec(k0=1.0, k1=2.0), init, 0.0)
    assert_allclose(law.mean, init.mean, rtol=0.0, atol=0.0)
    assert_allclose(law.cov, init.cov, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("call", [
    lambda: solve_fp_1d(ou_spec(k0=1.0, k1=2.0), STD_LAW, 0.1, cells=3, radius_std=100.0),
    lambda: solve_g_pde_1d(ou_spec(k0=1.0, k1=2.0), 0.1, cells=3, radius_std=100.0),
], ids=["fp-overflowed-rates", "g-overflowed-rates"])
def test_failed_grid_step_raises_quadrature_error(call):
    """Fitted rates that overflow on a huge coarse box poison the tridiagonal
    solve; the step says so with the typed error, not a bare ValueError."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(QuadratureError, match="tridiagonal step"):
        call()
