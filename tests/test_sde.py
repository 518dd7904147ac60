"""Trajectory simulation: moments, work bookkeeping, change-of-measure weights.

Every ensemble is stepped by one block runner.  ``TestBlockRunnerBitIdentity``
keeps the per-kind block loops the runner replaced as condensed references,
and the runner must match them bit for bit.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from noneq import (
    BlowUpError,
    BrownianSpec,
    Constant,
    DiffusionFactor,
    GaussianLaw,
    LangevinSpec,
    Linear,
    QuadraticPotential,
    RotationCirculation,
    Sine,
    SpecError,
    TanhPerturbedPotential,
    feynman_kac_g,
    gibbs_sampler,
    langevin_propagator,
    ou_moments,
    riccati_value_function,
    simulate_forward,
)
from noneq import sde
from noneq.model import Potential
from noneq.rng import BLOCK_SIZE, block_generator, block_layout


class FlatPotential(Potential):
    """V identically zero; turns the overdamped dynamics into pure diffusion."""

    is_quadratic = False
    dimension = 1

    def v(self, x, s):
        return np.zeros(np.asarray(x).shape[:-1])

    def dv_ds(self, x, s):
        return np.zeros(np.asarray(x).shape[:-1])

    def grad(self, x, s):
        return np.zeros_like(np.asarray(x, dtype=float))

    def hess(self, x, s):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (1,))

    def envelope(self, s, beta):
        return 0.0, 1.0


def ou_spec(k0=1.0, k1=None, beta=1.0, horizon=1.0, **kw):
    sched = Constant(k0) if k1 is None else Linear(k0, k1, horizon)
    return BrownianSpec(QuadraticPotential(sched, dimension=1), beta=beta,
                        horizon=horizon, **kw)


class TestForward:
    def test_pure_diffusion_moments(self):
        spec = BrownianSpec(FlatPotential(), beta=1.0, horizon=1.0)
        n = 40000
        ens = simulate_forward(spec, n, dt=2e-3, seed=5,
                               init=np.zeros((n, 1)),
                               store_times=[0.5, 1.0])
        for t in (0.5, 1.0):
            x = ens.states_at(t)[:, 0]
            se_mean = x.std(ddof=1) / math.sqrt(n)
            assert abs(x.mean()) <= 4.0 * se_mean
            var = x.var(ddof=1)
            se_var = var * math.sqrt(2.0 / (n - 1))
            assert abs(var - 2.0 * t) <= 4.0 * se_var

    def test_ou_mean_decay(self):
        spec = ou_spec()
        n, dt = 30000, 1e-3
        ens = simulate_forward(spec, n, dt=dt, seed=3,
                               init=GaussianLaw(np.array([2.0]), np.array([[1e-20]])),
                               store_times=[0.5, 1.0])
        for t in (0.5, 1.0):
            x = ens.states_at(t)[:, 0]
            se = x.std(ddof=1) / math.sqrt(n)
            # O(dt) Euler bias plus Monte Carlo error
            assert abs(x.mean() - 2.0 * math.exp(-t)) <= 4.0 * se + 5.0 * dt

    def test_frozen_potential_has_exactly_zero_work(self):
        ens = simulate_forward(ou_spec(), 500, dt=1e-2, seed=1)
        assert_array_equal(ens.terminal_work, 0.0)

    def test_determinism_bit_identical(self):
        a = simulate_forward(ou_spec(k1=2.0), 300, dt=1e-2, seed=42)
        b = simulate_forward(ou_spec(k1=2.0), 300, dt=1e-2, seed=42)
        assert_array_equal(a.states, b.states)
        assert_array_equal(a.work, b.work)

    def test_adding_paths_keeps_full_blocks(self):
        """Each full block of paths draws from its own stream, so growing the
        ensemble leaves every earlier full block bit-identical."""
        spec = ou_spec(k1=2.0, horizon=0.1)
        a = simulate_forward(spec, 20000, dt=0.02, seed=3)
        b = simulate_forward(spec, 40000, dt=0.02, seed=3)
        full = slice(0, BLOCK_SIZE)
        assert_array_equal(a.states[:, full], b.states[:, full])
        assert_array_equal(a.work[:, full], b.work[:, full])

    def test_weak_order_one_in_dt(self):
        """The sampled-chain mean follows the drift recursion exactly, so a
        zero-noise path isolates the Euler time-discretization error; halving
        dt should halve it."""
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            k = int(round(1.0 / dt))
            ens = simulate_forward(ou_spec(), 1, dt=dt, seed=0,
                                   init=np.array([[2.0]]),
                                   noise=np.zeros((k, 1, 1)))
            errs.append(abs(ens.states_at(1.0)[0, 0] - 2.0 * math.exp(-1.0)))
        assert 1.6 <= errs[0] / errs[1] <= 2.6
        assert 1.6 <= errs[1] / errs[2] <= 2.6

    def test_work_additive_over_subintervals(self):
        """Work accumulated on [0, T] splits exactly across [0, T/2] and
        [T/2, T] when the second half is re-simulated from the stored states
        with the same noise increments."""
        n, dt = 64, 1e-2
        k = int(round(1.0 / dt))
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((k, n, 1))
        full = simulate_forward(ou_spec(k0=1.0, k1=2.0), n, dt=dt, seed=0,
                                noise=noise, store_times=[0.0, 0.5, 1.0])
        # same schedule re-parameterized to start at T/2
        tail_spec = ou_spec(k0=1.5, k1=2.0, horizon=0.5)
        tail = simulate_forward(tail_spec, n, dt=dt, seed=0,
                                init=full.states_at(0.5),
                                noise=noise[k // 2:], store_times=[0.5])
        w_first = full.work[full.times.tolist().index(0.5)]
        assert_allclose(w_first + tail.terminal_work, full.terminal_work,
                        rtol=0, atol=1e-12)
        assert_allclose(tail.states_at(0.5), full.states_at(1.0), atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_paths_raise(self):
        stiff = ou_spec(k0=1e6)
        with pytest.raises(BlowUpError):
            simulate_forward(stiff, 32, dt=1e-2, seed=0,
                             init=np.full((32, 1), 1.0))

    def test_csv_export_headers(self, tmp_path):
        ens = simulate_forward(ou_spec(), 10, dt=0.25, seed=9,
                               store_times=[0.0, 1.0])
        path = tmp_path / "paths.csv"
        ens.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# kind=brownian seed=9")
        assert "units=" in lines[0]
        assert lines[1] == "path,time,x0,work,log_weight"
        assert len(lines) == 2 + 2 * 10


class TestReverse:
    def test_frozen_potential_reverse_equals_forward(self):
        spec = ou_spec()
        fwd = simulate_forward(spec, 200, dt=1e-2, seed=17)
        rev = simulate_forward(spec.reversed(), 200, dt=1e-2, seed=17)
        assert_array_equal(fwd.states, rev.states)

    def test_circulation_sign_flip(self):
        spec = BrownianSpec(QuadraticPotential(Constant(1.0), dimension=2),
                            beta=1.0, horizon=1.0,
                            circulation=RotationCirculation(rate=0.8))
        rev = spec.reversed()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        for s in (0.0, 0.3, 0.9):
            gap = rev.drift(x, s) - spec.drift(x, spec.horizon - s)
            expected = -2.0 * spec.circulation.j(x, spec.horizon - s)
            assert_allclose(gap, expected, atol=1e-12)

    def test_reverse_from_gibbs_is_stationary(self):
        spec = ou_spec(beta=2.0)
        n, dt = 30000, 2e-3
        ens = simulate_forward(spec.reversed(), n, dt=dt, seed=23,
                               store_times=[0.0, 0.5, 1.0])
        sigma2 = 1.0 / 2.0
        for t in (0.0, 0.5, 1.0):
            x = ens.states_at(t)[:, 0]
            se_mean = math.sqrt(sigma2 / n)
            se_var = sigma2 * math.sqrt(2.0 / n)
            assert abs(x.mean()) <= 4.0 * se_mean
            assert abs(x.var(ddof=1) - sigma2) <= 4.0 * se_var + 2.0 * dt


class TestControlled:
    def test_zero_control_reduces_bit_identically(self):
        spec = ou_spec(k1=2.0)
        plain = simulate_forward(spec, 400, dt=5e-3, seed=7)
        ctrl = simulate_forward(spec, 400, dt=5e-3, seed=7,
                                control=lambda x, s: np.zeros((len(x), 1)))
        assert_array_equal(plain.states, ctrl.states)
        assert_array_equal(ctrl.terminal_log_weight, 0.0)

    def test_constant_control_shifts_pure_diffusion(self):
        spec = BrownianSpec(FlatPotential(), beta=1.0, horizon=1.0)
        u0 = 0.7
        n = 30000
        ens = simulate_forward(
            spec, n, dt=2e-3, seed=11, init=np.zeros((n, 1)),
            control=lambda x, s: np.full((len(x), 1), u0))
        x = ens.states_at(1.0)[:, 0]
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - u0) <= 4.0 * se

    def test_exponential_weight_is_normalized(self):
        """The exponential of the accumulated log-weight must average to one;
        this pins both the sign convention and the quadratic penalty factor."""
        spec = ou_spec(k1=1.5)
        n = 50000
        field = lambda x, s: 0.8 * np.tanh(x)
        ens = simulate_forward(spec, n, dt=2e-3, seed=19, control=field)
        w = np.exp(ens.terminal_log_weight)
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0) <= 4.0 * se


class TestLangevin:
    def spec(self, eta1=None, xi=1.0):
        sched = Constant(1.0) if eta1 is None else Linear(1.0, eta1, 1.0)
        return LangevinSpec(QuadraticPotential(sched, dimension=1), beta=1.0,
                            horizon=1.0, xi=xi)

    def test_stationary_start_stays_stationary(self):
        spec = self.spec()
        n, dt = 30000, 1e-3
        ens = simulate_forward(spec, n, dt=dt, seed=31,
                                store_times=[0.0, 0.5, 1.0])
        for t in (0.5, 1.0):
            x = ens.states_at(t)
            for col in range(2):
                se_mean = 1.0 / math.sqrt(n)
                se_var = math.sqrt(2.0 / n)
                assert abs(x[:, col].mean()) <= 4.0 * se_mean
                assert abs(x[:, col].var(ddof=1) - 1.0) <= 4.0 * se_var + 3.0 * dt

    def test_terminal_covariance_matches_propagator(self):
        spec = self.spec(eta1=1.5)
        init = GaussianLaw(np.array([0.5, -0.2]), np.diag([0.7, 1.3]))
        n, dt = 40000, 1e-3
        ens = simulate_forward(spec, n, dt=dt, seed=37, init=init,
                                store_times=[1.0])
        law = langevin_propagator(spec, [0.0, 1.0]).push(init)[-1]
        x = ens.states_at(1.0)
        for col in range(2):
            se = x[:, col].std(ddof=1) / math.sqrt(n)
            assert abs(x[:, col].mean() - law.mean[col]) <= 4.0 * se + 5.0 * dt
            v = x[:, col].var(ddof=1)
            se_v = v * math.sqrt(2.0 / n)
            assert abs(v - law.cov[col, col]) <= 4.0 * se_v + 5.0 * dt

    def test_reverse_flips_hamiltonian_transport_only(self):
        """One zero-noise Euler step forward plus one reverse step from the
        same state cancels the transport part and doubles the friction."""
        spec = self.spec()
        x0 = np.array([[0.8, -0.5]])
        dt = 1e-3
        short = LangevinSpec(spec.potential, beta=1.0, horizon=dt, xi=1.0)
        f = simulate_forward(short, 1, dt=dt, seed=0, init=x0,
                              noise=np.zeros((1, 1, 1)))
        r = simulate_forward(short.reversed(), 1, dt=dt, seed=0, init=x0,
                              noise=np.zeros((1, 1, 1)))
        df = f.states_at(dt)[0] - x0[0]
        dr = r.states_at(dt)[0] - x0[0]
        assert_allclose(df + dr, [0.0, -2.0 * dt * x0[0, 1]], atol=1e-14)

    def test_langevin_girsanov_normalized(self):
        spec = self.spec(eta1=1.5)
        n = 50000
        field = lambda x, s: 0.6 * np.tanh(x[:, :1])
        ens = simulate_forward(spec, n, dt=2e-3, seed=43, control=field)
        w = np.exp(ens.terminal_log_weight)
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0) <= 4.0 * se


def test_store_times_must_lie_on_step_grid():
    with pytest.raises(SpecError):
        simulate_forward(ou_spec(), 4, dt=1e-2, store_times=[0.123456])


def test_ou_moments_api_agreement():
    """Single-time closed-form helper agrees with a direct simulation check."""
    spec = ou_spec()
    law = ou_moments(spec, GaussianLaw(np.array([2.0]), np.array([[1.0]])), 1.0)
    assert_allclose(law.mean[0], 2.0 * math.exp(-1.0), rtol=1e-9)
    assert_allclose(law.cov[0, 0], 1.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# argument checks at the block runner
# ---------------------------------------------------------------------------

def kinetic_spec():
    return LangevinSpec(QuadraticPotential(Constant(1.0), dimension=1), beta=1.0,
                        horizon=1.0, xi=1.0)


@pytest.mark.parametrize("call", [
    lambda: simulate_forward(ou_spec(), 0, 1e-2),
    lambda: simulate_forward(ou_spec(), 4, 1e-2, seed=-1),
    lambda: simulate_forward(ou_spec(), 4, 0.0),
    lambda: simulate_forward(ou_spec(), 4, float("nan")),
    lambda: simulate_forward(ou_spec(), 4, 1e-2, init=np.zeros((4, 2))),
    lambda: simulate_forward(kinetic_spec(), 4, 0.0),
    lambda: simulate_forward(kinetic_spec(), 4, 1e-2, init=np.zeros((4, 3))),
    lambda: feynman_kac_g(ou_spec(), 0.3, 0.0, 4, 0.0),
    lambda: feynman_kac_g(ou_spec(), 0.3, 0.0, 0, 1e-2),
    lambda: feynman_kac_g(ou_spec(), 0.3, 0.0, 1, 0.1),
    lambda: simulate_forward(ou_spec(), 4, 0.5, noise=np.zeros((1, 4, 1))),
    lambda: simulate_forward(ou_spec(), 4, 0.5, noise=np.zeros((2, 2, 1))),
    lambda: simulate_forward(ou_spec(), 4, 0.5, noise=np.zeros((5, 9, 1))),
    lambda: simulate_forward(ou_spec(), 4, 0.5).states_at(0.25),
    lambda: simulate_forward(ou_spec(), 2000, 0.5,
                             init=np.where(np.arange(2000)[:, None] == 7, np.nan, 0.0)),
    lambda: feynman_kac_g(ou_spec(), float("nan"), 0.0, 4, 0.5),
], ids=["forward-no-paths", "forward-negative-seed", "forward-zero-dt", "forward-nan-dt",
        "forward-init-width", "langevin-zero-dt", "langevin-init-width", "fk-zero-dt",
        "fk-no-paths", "fk-one-path", "forward-noise-short", "forward-noise-narrow",
        "forward-noise-oversized", "states-at-unstored-time", "forward-nan-init-row",
        "fk-nan-x0"])
def test_bad_run_arguments_raise_spec_error(call):
    with pytest.raises(SpecError):
        call()


# ---------------------------------------------------------------------------
# the block runner against the per-kind loops it replaced
# ---------------------------------------------------------------------------

def stack_blocks(blocks):
    """(states, work, log_weight, flagged) from per-block lists of stored rows."""
    states, work, logw = (np.concatenate([np.stack([row[i] for row in rows]) for rows in blocks],
                                         axis=1) for i in range(3))
    flagged = ~np.all(np.isfinite(states), axis=(0, 2))
    flagged |= ~np.isfinite(work[-1]) | ~np.isfinite(logw[-1])
    return states, work, logw, flagged


def ref_overdamped(spec, n_paths, dt, seed, init, store, control=None, noise=None, s0=0.0):
    """Reference: the block loop of simulate_forward and of feynman_kac_g, with
    the drift -grad V (sigma sigma^T)^T + J built from the potential, the
    diffusion factor and the circulation rather than read from ``spec.drift``."""
    n_steps = int(round((spec.horizon - s0) / dt))
    m = spec.diffusion.shape[1]
    amp = math.sqrt(2.0 * dt / spec.beta)
    blocks = []
    for block, start, stop in block_layout(n_paths):
        nb = stop - start
        gen = block_generator(seed, block)
        x = init(gen, nb) if callable(init) else init[start:stop]
        w, g = np.zeros(nb), np.zeros(nb)
        rows = [(x, w.copy(), g.copy())] if 0 in store else []
        for k in range(n_steps):
            s = s0 + k * dt
            z = gen.standard_normal((nb, m)) if noise is None else noise[k, start:stop]
            sig = spec.diffusion.sigma(s)
            drift = -spec.potential.grad(x, s) @ (sig @ sig.T).T + spec.circulation.j(x, s)
            if control is not None:
                u = control(x, s).reshape(nb, m)
                drift = drift + u @ sig.T
                g -= math.sqrt(spec.beta / 2.0) * math.sqrt(dt) * np.sum(u * z, axis=1)
                g -= 0.25 * spec.beta * dt * np.sum(u * u, axis=1)
            x_new = x + dt * drift + amp * (z @ sig.T)
            w += dt * spec.potential.dv_ds(0.5 * (x + x_new), s + 0.5 * dt)
            x = x_new
            if k + 1 in store:
                rows.append((x, w.copy(), g.copy()))
        blocks.append(rows)
    return stack_blocks(blocks)


def ref_kinetic(spec, n_paths, dt, seed, store, control=None, reverse=False):
    """Reference: the Euler-Maruyama block loop of a kinetic spec on explicit
    positions and momenta, Gibbs start.  The noise kick is sqrt(xi) z scaled
    by sqrt(2 dt / beta), in the rounding of the step's B z."""
    n_steps = int(round(spec.horizon / dt))
    n, minv = spec.dimension, spec.mass_inv
    xi, beta, T = spec.xi, spec.beta, spec.horizon
    sign = -1.0 if reverse else 1.0
    amp, sqxi = math.sqrt(2.0 * dt / beta), math.sqrt(xi)
    init = gibbs_sampler(spec, T if reverse else 0.0)

    def pot_time(s):
        return T - s if reverse else s

    blocks = []
    for block, start, stop in block_layout(n_paths):
        nb = stop - start
        gen = block_generator(seed, block)
        x = init(gen, nb)
        w, g = np.zeros(nb), np.zeros(nb)
        rows = [(x, w.copy(), g.copy())] if 0 in store else []
        for k in range(n_steps):
            s = k * dt
            t = pot_time(s)
            q, p = x[:, :n], x[:, n:]
            z = gen.standard_normal((nb, n))
            gradv = spec.potential.grad(q, t)
            q_new = q + dt * sign * (p @ minv.T)
            p_drift = -sign * gradv - xi * (p @ minv.T)
            if control is not None:
                u = control(x, s).reshape(nb, n)
                p_drift = p_drift + sqxi * u
                g -= math.sqrt(beta / 2.0) * math.sqrt(dt) * np.sum(u * z, axis=1)
                g -= 0.25 * beta * dt * np.sum(u * u, axis=1)
            p_new = p + dt * p_drift + (z * sqxi) * amp
            dv = spec.potential.dv_ds(0.5 * (q + q_new), pot_time(s + 0.5 * dt))
            w += dt * (-dv if reverse else dv)
            x = np.concatenate([q_new, p_new], axis=1)
            if k + 1 in store:
                rows.append((x, w.copy(), g.copy()))
        blocks.append(rows)
    return stack_blocks(blocks)


def assert_same_ensemble(ens, ref):
    for got, want in zip((ens.states, ens.work, ens.log_weight, ens.flagged), ref):
        assert_array_equal(got, want)


class TestBlockRunnerBitIdentity:
    dt = 0.02

    def spec(self):
        return ou_spec(k0=1.0, k1=2.0, beta=1.3, horizon=0.1)

    def kinetic(self):
        return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 0.1), dimension=1),
                            beta=1.0, horizon=0.1, xi=0.8)

    def test_array_init_spanning_two_blocks(self):
        n = BLOCK_SIZE + 37
        init = np.linspace(-2.0, 2.0, n)[:, None]
        ens = simulate_forward(self.spec(), n, self.dt, seed=4, init=init,
                               store_times=[0.0, 0.04, 0.1])
        assert_same_ensemble(ens, ref_overdamped(self.spec(), n, self.dt, 4, init, {0, 2, 5}))

    def test_controlled(self):
        field = lambda x, s: 0.7 * np.tanh(x) * (1.0 + s)
        ens = simulate_forward(self.spec(), 300, self.dt, seed=5, control=field)
        ref = ref_overdamped(self.spec(), 300, self.dt, 5, gibbs_sampler(self.spec()), {0, 5},
                             control=field)
        assert_same_ensemble(ens, ref)

    def test_injected_noise(self):
        noise = np.random.default_rng(1).standard_normal((5, 50, 1))
        init = np.random.default_rng(2).standard_normal((50, 1))
        ens = simulate_forward(self.spec(), 50, self.dt, init=init, noise=noise)
        assert_same_ensemble(ens, ref_overdamped(self.spec(), 50, self.dt, 0, init, {0, 5},
                                                 noise=noise))

    def test_reverse(self):
        rev = self.spec().reversed()
        ens = simulate_forward(rev, 300, self.dt, seed=6, store_times=[0.0, 0.06, 0.1])
        assert_same_ensemble(ens, ref_overdamped(rev, 300, self.dt, 6, gibbs_sampler(rev),
                                                 {0, 3, 5}))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_langevin_euler(self, reverse):
        spec = self.kinetic().reversed() if reverse else self.kinetic()
        ens = simulate_forward(spec, 300, self.dt, seed=7, store_times=[0.0, 0.04, 0.1])
        assert_same_ensemble(ens, ref_kinetic(self.kinetic(), 300, self.dt, 7, {0, 2, 5},
                                              reverse=reverse))

    def test_langevin_controlled(self):
        field = lambda x, s: 0.6 * np.tanh(x[:, :1])
        ens = simulate_forward(self.kinetic(), 300, self.dt, seed=7, control=field)
        assert_same_ensemble(ens, ref_kinetic(self.kinetic(), 300, self.dt, 7, {0, 5},
                                              control=field))

    # Two blocks, stepped on one thread and on two, against the serial loops:
    # the 1 x 1 factors are scalars in the step, so they are not all 1 here.

    n_two = BLOCK_SIZE + 37

    @pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(sde.os, "sched_getaffinity", lambda pid: set(range(request.param)),
                            raising=False)
        monkeypatch.setattr(sde.os, "cpu_count", lambda: request.param)

    def moving(self):
        return BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 0.1), Sine(0.5, 4.0, 0.2), 1),
                            beta=1.3, horizon=0.1,
                            diffusion=DiffusionFactor.isotropic(1, 0.8, Linear(1.0, 1.5, 0.1)))

    def heavy(self):
        return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 0.1), Sine(0.4, 3.0), 1),
                            beta=1.0, horizon=0.1, xi=0.8, mass=np.array([[2.0]]))

    def test_two_blocks_controlled(self, cpus):
        field = lambda x, s: 0.7 * np.tanh(x) * (1.0 + s)
        spec = self.moving()
        ens = simulate_forward(spec, self.n_two, self.dt, seed=5, control=field,
                               store_times=[0.0, 0.04, 0.1])
        assert_same_ensemble(ens, ref_overdamped(spec, self.n_two, self.dt, 5,
                                                 gibbs_sampler(spec), {0, 2, 5}, control=field))

    def test_two_blocks_reversed(self, cpus):
        rev = self.moving().reversed()
        ens = simulate_forward(rev, self.n_two, self.dt, seed=6, store_times=[0.0, 0.06, 0.1])
        assert_same_ensemble(ens, ref_overdamped(rev, self.n_two, self.dt, 6, gibbs_sampler(rev),
                                                 {0, 3, 5}))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_blocks_kinetic(self, cpus, reverse):
        spec = self.heavy().reversed() if reverse else self.heavy()
        ens = simulate_forward(spec, self.n_two, self.dt, seed=7, store_times=[0.0, 0.04, 0.1])
        assert_same_ensemble(ens, ref_kinetic(self.heavy(), self.n_two, self.dt, 7, {0, 2, 5},
                                              reverse=reverse))

    def test_two_blocks_kinetic_controlled(self, cpus):
        field = lambda x, s: 0.6 * np.tanh(x[:, :1])
        ens = simulate_forward(self.heavy(), self.n_two, self.dt, seed=7, control=field)
        assert_same_ensemble(ens, ref_kinetic(self.heavy(), self.n_two, self.dt, 7, {0, 5},
                                              control=field))

    def test_two_blocks_rotating_plane(self, cpus):
        """Rotation, a scheduled non-diagonal 2 x 3 factor and a control: every
        factor is a matrix, so the step keeps its matmuls."""
        spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 0.1), Sine(0.5, 4.0), 2),
                            beta=1.3, horizon=0.1, circulation=RotationCirculation(0.7),
                            diffusion=DiffusionFactor(np.array([[1.0, 0.3, 0.2],
                                                                [0.0, 0.8, -0.4]]),
                                                      Linear(1.0, 1.5, 0.1)))
        field = lambda x, s: 0.3 * np.tanh(x @ np.array([[1.0, 0.5, -0.2],
                                                         [0.0, 1.0, 0.7]]))
        for control in (None, field):
            ens = simulate_forward(spec, self.n_two, self.dt, seed=9, control=control)
            assert_same_ensemble(ens, ref_overdamped(spec, self.n_two, self.dt, 9,
                                                     gibbs_sampler(spec), {0, 5}, control=control))

    def test_two_blocks_steered_by_the_quadratic_value_function(self, cpus):
        """The Riccati feedback on a rotating plane, from its tilted start, and on a
        kinetic n = 2 spec with a moving centre and anisotropic mass."""
        spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 0.1), Sine(0.5, 4.0), 2),
                            beta=1.3, horizon=0.1, circulation=RotationCirculation(0.7))
        ric = riccati_value_function(spec, np.linspace(0.0, 0.1, 11))
        tilted = ric.tilted_initial_law()
        ens = simulate_forward(spec, self.n_two, self.dt, seed=9, init=tilted,
                               control=ric.control)
        assert_same_ensemble(ens, ref_overdamped(spec, self.n_two, self.dt, 9, tilted.sample,
                                                 {0, 5}, control=ric.control))
        kspec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 0.1), Linear(0.2, -0.4, 0.1), 2),
                             beta=1.0, horizon=0.1, xi=0.8, mass=np.diag([2.0, 0.5]))
        kric = riccati_value_function(kspec, np.linspace(0.0, 0.1, 11))
        ens = simulate_forward(kspec, self.n_two, self.dt, seed=7, control=kric.control)
        assert_same_ensemble(ens, ref_kinetic(kspec, self.n_two, self.dt, 7, {0, 5},
                                              control=kric.control))

    # B and gamma exactly 1.0 and the centre exactly +0.0 at s = 0 and not
    # after, so the step skips their multiply and subtraction at the first
    # step only; the kinetic spec has xi = 1 and a unit mass, whose multiplies
    # it skips at every step.

    def unit_at_start(self):
        return BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 0.1), Linear(0.0, 0.4, 0.1), 1),
                            beta=1.3, horizon=0.1,
                            diffusion=DiffusionFactor.isotropic(1, 1.0, Linear(1.0, 1.5, 0.1)))

    def unit_kinetic(self):
        return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 0.1), Linear(0.0, 0.4, 0.1), 1),
                            beta=1.0, horizon=0.1)

    def test_two_blocks_unit_factor_and_zero_centre_at_the_start(self, cpus):
        spec = self.unit_at_start()
        assert spec.noise_factor(0.0)[0, 0] == 1.0 != spec.noise_factor(self.dt)[0, 0]
        assert math.copysign(1.0, spec.potential.mu.value(0.0)) == 1.0
        field = lambda x, s: 0.7 * np.tanh(x) * (1.0 + s)
        for control in (None, field):
            ens = simulate_forward(spec, self.n_two, self.dt, seed=5, control=control,
                                   store_times=[0.0, 0.02, 0.1])
            assert_same_ensemble(ens, ref_overdamped(spec, self.n_two, self.dt, 5,
                                                     gibbs_sampler(spec), {0, 1, 5},
                                                     control=control))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_blocks_unit_kinetic(self, cpus, reverse):
        spec = self.unit_kinetic()
        assert spec.xi == 1.0 and spec.mass_inv[0, 0] == 1.0
        run = spec.reversed() if reverse else spec
        field = lambda x, s: 0.6 * np.tanh(x[:, :1])
        for control in (None, field):
            ens = simulate_forward(run, self.n_two, self.dt, seed=7, control=control,
                                   store_times=[0.0, 0.02, 0.1])
            assert_same_ensemble(ens, ref_kinetic(spec, self.n_two, self.dt, 7, {0, 1, 5},
                                                  control=control, reverse=reverse))

    # A non-quadratic V is stepped through its methods, not read as floats.

    def tanh_ramp(self):
        return TanhPerturbedPotential(Linear(0.2, 1.5, 0.1))

    def test_two_blocks_tanh_reversed(self, cpus):
        rev = BrownianSpec(self.tanh_ramp(), beta=1.3, horizon=0.1,
                           diffusion=DiffusionFactor.isotropic(1, 0.8, Linear(1.0, 1.5, 0.1))
                           ).reversed()
        ens = simulate_forward(rev, self.n_two, self.dt, seed=6, store_times=[0.0, 0.06, 0.1])
        assert_same_ensemble(ens, ref_overdamped(rev, self.n_two, self.dt, 6, gibbs_sampler(rev),
                                                 {0, 3, 5}))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_blocks_tanh_kinetic(self, cpus, reverse):
        spec = LangevinSpec(self.tanh_ramp(), beta=1.0, horizon=0.1, xi=0.8,
                            mass=np.array([[2.0]]))
        run = spec.reversed() if reverse else spec
        ens = simulate_forward(run, self.n_two, self.dt, seed=7, store_times=[0.0, 0.04, 0.1])
        assert ens.kind == "langevin"
        assert_same_ensemble(ens, ref_kinetic(spec, self.n_two, self.dt, 7, {0, 2, 5},
                                              reverse=reverse))

    def test_caller_arrays_are_left_unmodified(self, cpus):
        rng = np.random.default_rng(3)
        init, noise = rng.standard_normal((self.n_two, 1)), rng.standard_normal((5, self.n_two, 1))
        phase = rng.standard_normal((self.n_two, 2))
        copies = init.copy(), noise.copy(), phase.copy()
        ens = simulate_forward(self.moving(), self.n_two, self.dt, init=init, noise=noise)
        assert_same_ensemble(ens, ref_overdamped(self.moving(), self.n_two, self.dt, 0, init,
                                                 {0, 5}, noise=noise))
        simulate_forward(self.heavy(), self.n_two, self.dt, init=phase, noise=noise)
        for got, want in zip((init, noise, phase), copies):
            assert_array_equal(got, want)

    def test_two_blocks_store_one_copy(self, cpus):
        """The blocks write their columns of one store in place: with five
        store times the traced peak of a two-block run stays under twice the
        stored bytes, which a second copy of the store alone would reach."""
        spec = self.spec()
        times = [0.0, 0.02, 0.04, 0.06, 0.1]
        simulate_forward(spec, 10, self.dt, seed=5)  # first-use imports, untraced
        tracemalloc.start()
        try:
            ens = simulate_forward(spec, self.n_two, self.dt, seed=5, store_times=times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = ens.states.nbytes + ens.work.nbytes + ens.log_weight.nbytes
        assert ens.states.shape == (5, self.n_two, 1)
        assert peak < 2 * stored

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        """Three blocks on three threads, switching every microsecond, give the
        bits of the one-thread run; blocks that shared a buffer would not."""
        spec, field = self.moving(), lambda x, s: 0.7 * np.tanh(x)
        runs = []
        for cpus in (1, 3):
            monkeypatch.setattr(sde.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(sde.os, "cpu_count", lambda: cpus)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                runs.append([simulate_forward(spec, 2 * BLOCK_SIZE + 37, 0.005, seed=11,
                                              control=control) for control in (None, field)])
            finally:
                sys.setswitchinterval(interval)
        for one, three in zip(*runs):
            assert_same_ensemble(three, (one.states, one.work, one.log_weight, one.flagged))

    def test_feynman_kac_from_a_later_start(self):
        spec = ou_spec(k0=1.0, k1=2.0, beta=1.3, horizon=1.0)
        x0, s0, n, dt = np.array([0.3]), 0.25, 500, 0.05
        _, work, _, _ = ref_overdamped(spec, n, dt, 3, lambda gen, nb: np.tile(x0, (nb, 1)),
                                       {15}, s0=s0)
        vals = np.exp(-spec.beta * work[-1])
        want = (float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)))
        assert feynman_kac_g(spec, x0, s0, n, dt, seed=3) == want
