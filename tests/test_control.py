"""Work-tilted expectations and the optimal steering field that flattens them."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noneq import (
    BlowUpError,
    BrownianSpec,
    Constant,
    DiffusionFactor,
    GaussianLaw,
    LangevinSpec,
    Linear,
    QuadraticPotential,
    SpecError,
    Sine,
    feynman_kac_g,
    gibbs_gaussian,
    gibbs_grid,
    riccati_value_function,
    simulate_forward,
    solve_g_pde_1d,
)
from noneq.entropy import derivative_uniform
from noneq.fokker_planck import MARCH_BLOCK, GridDensity1D, _dgtsv, _generator_rates
from noneq.model import PiecewiseFrozen, Schedule


def moving_spec(k0=1.0, k1=2.0, beta=1.0, horizon=1.0):
    return BrownianSpec(QuadraticPotential(Linear(k0, k1, horizon), dimension=1),
                        beta=beta, horizon=horizon)


@pytest.fixture(scope="module")
def grid_and_riccati():
    spec = moving_spec()
    grid = solve_g_pde_1d(spec, dt=1e-3, cells=800)
    ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 21))
    return spec, grid, ric


class TestFeynmanKac:
    def test_frozen_potential_is_exactly_one(self):
        spec = BrownianSpec(QuadraticPotential(Constant(1.3), dimension=1),
                            beta=2.0, horizon=1.0)
        for x0, s0 in ((0.0, 0.0), (-1.7, 0.25), (2.4, 0.9)):
            mean, stderr = feynman_kac_g(spec, x0, s0, n_paths=64, dt=5e-2)
            assert mean == 1.0
            assert stderr == 0.0

    def test_empty_remaining_window_rejected(self):
        spec = moving_spec()
        with pytest.raises(SpecError):
            feynman_kac_g(spec, 0.3, spec.horizon, 100, 1e-2)

    def test_matches_quadratic_solution(self):
        spec = moving_spec(k0=1.0, k1=1.5, beta=2.0, horizon=0.8)
        ric = riccati_value_function(spec, np.linspace(0.0, 0.8, 17))
        for x0 in (-1.0, 0.0, 1.5):
            mean, stderr = feynman_kac_g(spec, x0, 0.0, n_paths=20000,
                                         dt=2e-3, seed=11)
            exact = float(ric.g(np.array([x0]), 0.0))
            assert abs(mean - exact) <= 4.0 * stderr + 5e-3 * exact


class TestGridSolution:
    def test_frozen_potential_gives_trivial_field(self):
        spec = BrownianSpec(QuadraticPotential(Constant(1.3), dimension=1),
                            beta=1.0, horizon=1.0)
        grid = solve_g_pde_1d(spec, dt=2e-3, cells=400)
        xs = np.linspace(-4.0, 4.0, 81)
        assert np.max(np.abs(grid.value(xs, 0.0))) <= 1e-12
        assert np.max(np.abs(grid.control_grid())) <= 1e-12
        assert grid.tilted_initial_mass() == pytest.approx(1.0, abs=1e-10)
        dens = grid.tilted_initial_density()
        ref = gibbs_grid(spec, 0.0, dens)
        h = GridDensity1D.centers(dens.lo, dens.hi, len(dens.values))
        l1 = float(np.sum(np.abs(dens.values - ref.values)) * (h[1] - h[0]))
        assert l1 <= 1e-10

    def test_value_function_matches_quadratic_solution(self, grid_and_riccati):
        _, grid, ric = grid_and_riccati
        xs = np.linspace(-4.0, 4.0, 81)
        for s in (0.0, 0.25, 0.5, 0.75):
            gap = np.max(np.abs(grid.value(xs, s) - ric.value(xs[:, None], s)))
            assert gap <= 1e-3

    def test_tilted_initial_density(self, grid_and_riccati):
        _, grid, ric = grid_and_riccati
        assert grid.tilted_initial_mass() == pytest.approx(1.0, abs=1e-6)
        dens = grid.tilted_initial_density()
        assert dens.mass() == pytest.approx(1.0, abs=1e-12)
        x = GridDensity1D.centers(dens.lo, dens.hi, len(dens.values))
        pdf = np.exp(ric.tilted_initial_law().logpdf(x[:, None]))
        l1 = float(np.sum(np.abs(dens.values - pdf)) * (x[1] - x[0]))
        assert l1 <= 1e-4

    def test_dynamic_programming_residual_shrinks(self, grid_and_riccati, fine_grid):
        _, grid, _ = grid_and_riccati
        coarse = grid.hjb_residual()
        assert coarse <= 1e-2
        assert fine_grid.hjb_residual() <= coarse / 2.0


def full_value_grid(grid):
    return -np.log(grid.g) / grid.spec.beta


def full_control_grid(grid):
    """The control on every grid row, with sigma read one time at a time."""
    u_val = full_value_grid(grid)
    h = (grid.hi - grid.lo) / grid.g.shape[1]
    du = np.empty_like(u_val)
    du[:, 1:-1] = (u_val[:, 2:] - u_val[:, :-2]) / (2 * h)
    du[:, 0] = (u_val[:, 1] - u_val[:, 0]) / h
    du[:, -1] = (u_val[:, -1] - u_val[:, -2]) / h
    sig = np.array([float(grid.spec.diffusion.sigma(s)[0, 0]) for s in grid.times])
    return -2.0 * sig[:, None] * du


def from_full_grid(grid, field, x, s):
    """``field`` (all time rows) read at (x, s) as the grid control reads its rows."""
    j, frac = grid._time_weights(s)
    return np.interp(x, grid.x, (1.0 - frac) * field[j] + frac * field[j + 1])


class TestRowsOnDemand:
    """value, g_at and control_field compute only the two time rows around s;
    they must give the full-grid computation bit for bit."""

    @pytest.fixture(scope="class")
    def grid(self):
        spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), Linear(0.0, 0.5, 1.0)),
                            beta=1.3, horizon=1.0,
                            diffusion=DiffusionFactor.isotropic(1, 1.0, Sine(0.3, base=1.0)))
        return solve_g_pde_1d(spec, dt=0.01, cells=61)

    def query_times(self, grid):
        t = grid.times
        return [t[0], t[1], t[37], t[-2], t[-1], 0.5 * (t[0] + t[1]), 0.3 * t[40] + 0.7 * t[41],
                0.123456789, 0.5 * (t[-2] + t[-1]), -0.25, -1e-9, 1.0 + 1e-9, 7.0]

    def test_control_grid_matches_the_per_time_sigma(self, grid):
        np.testing.assert_array_equal(grid.control_grid(), full_control_grid(grid), strict=True)

    def test_fields_match_the_full_grid(self, grid):
        xs = np.concatenate([grid.x[::3], np.linspace(grid.lo, grid.hi, 29)])
        ugrid, vgrid = full_control_grid(grid), full_value_grid(grid)
        field = grid.control_field()
        for s in self.query_times(grid):
            np.testing.assert_array_equal(field(xs, s), from_full_grid(grid, ugrid, xs, s)[:, None],
                                          strict=True)
            np.testing.assert_array_equal(grid.value(xs, s), from_full_grid(grid, vgrid, xs, s),
                                          strict=True)
            np.testing.assert_array_equal(grid.g_at(xs, s), from_full_grid(grid, grid.g, xs, s),
                                          strict=True)

    def test_one_field_on_two_threads(self, grid):
        field = grid.control_field()
        xs = grid.x[::2]
        queries = np.linspace(-0.1, 1.1, 241)
        serial = [field(xs, s) for s in queries]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda s: field(xs, s), queries))
        for a, b in zip(threaded, serial):
            np.testing.assert_array_equal(a, b, strict=True)


@pytest.fixture(scope="module")
def fine_grid(grid_and_riccati):
    spec, _, _ = grid_and_riccati
    return solve_g_pde_1d(spec, dt=5e-4, cells=1600)


def full_hjb_rows(grid):
    """The residual of ``hjb_residual`` on every (time, cell), computed with U,
    U_s, U_x and the residual held on the whole grid at once."""
    u_val = full_value_grid(grid)
    x = grid.x
    h = x[1] - x[0]
    u_s = derivative_uniform(u_val, grid.times[1] - grid.times[0])
    ux = np.gradient(u_val, h, axis=1)
    resid = np.empty_like(u_val)
    for i in range(0, len(grid.times), MARCH_BLOCK):
        rows = slice(i, i + MARCH_BLOCK)
        s = grid.times[rows]
        gamma, (up, down, _) = _generator_rates(grid.spec, x, h, s)
        u = u_val[rows]
        lu = np.zeros_like(u)
        lu[:, :-1] += down * (u[:, 1:] - u[:, :-1])
        lu[:, 1:] += up * (u[:, :-1] - u[:, 1:])
        resid[rows] = u_s[rows] + lu - gamma * ux[rows] ** 2 \
            + grid.spec.potential.dv_ds(x[:, None], s[:, None])
    return resid


def full_hjb_residual(grid):
    center, std = grid.spec.potential.envelope(0.0, grid.spec.beta)
    core = np.abs(grid.x - center) <= 5.0 * std
    return float(np.max(np.abs(full_hjb_rows(grid)[:, core])))


class TestResidualByBlocks:
    """hjb_residual holds one block of time rows at a time; every row of its
    residual, and so its value, must equal the full-grid computation exactly,
    whatever the length of the last block."""

    def assert_matches_full_grid(self, grid):
        rows = np.concatenate(list(grid._hjb_blocks()))
        np.testing.assert_array_equal(rows, full_hjb_rows(grid), strict=True)
        assert grid.hjb_residual() == full_hjb_residual(grid)

    def test_coarse_and_fine_match_the_full_grid(self, grid_and_riccati, fine_grid):
        _, grid, _ = grid_and_riccati
        self.assert_matches_full_grid(grid)
        self.assert_matches_full_grid(fine_grid)

    # 4 B + 1 and 8 B + 1 rows end on a last block of one row, 4 B + 5 on one
    # of five, for the block B = MARCH_BLOCK
    @pytest.mark.parametrize("n_steps", [4, 4 * MARCH_BLOCK, 4 * MARCH_BLOCK + 4,
                                         8 * MARCH_BLOCK])
    def test_short_last_block(self, n_steps):
        grid = solve_g_pde_1d(moving_spec(), dt=1.0 / n_steps, cells=120, theta=1.0)
        assert len(grid.times) == n_steps + 1
        self.assert_matches_full_grid(grid)

    def test_peak_memory_is_bounded_by_the_grid(self, fine_grid):
        tracemalloc.start()
        try:
            fine_grid.hjb_residual()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * fine_grid.g.nbytes


def test_g_march_holds_g_and_a_few_blocks():
    """The backward march allocates g and the coefficients of a block or two
    of MARCH_BLOCK steps: on reversal-test's grid (800 cells, dt 1e-3,
    theta 0.5) what it holds beyond g stays under a third of g's bytes.
    Blocks of 64 steps held almost as much again as g."""
    spec = moving_spec()
    _dgtsv()  # imports scipy.linalg on first use; not part of the march
    tracemalloc.start()
    try:
        grid = solve_g_pde_1d(spec, dt=1e-3, cells=800, theta=0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.g.shape == (1001, 800)
    assert peak - grid.g.nbytes < grid.g.nbytes / 3


class EarlyKink(Schedule):
    """Stiffness 1 + s from s = 0.5 on, but a steeper ramp before it."""

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= 0.5, 1.0 + s, 0.5 + 2.0 * s)

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= 0.5, 1.0, 2.0)


class TestProtocolLocality:
    def test_control_vanishes_once_drive_stops(self):
        sched = PiecewiseFrozen(Linear(1.0, 2.0, 1.0), 0.5)
        spec = BrownianSpec(QuadraticPotential(sched, dimension=1), beta=1.0,
                            horizon=1.0)
        ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 21))
        xs = np.linspace(-4.0, 4.0, 81)[:, None]
        for s in (0.5, 0.75, 1.0):
            assert np.max(np.abs(ric.control(xs, s))) == 0.0
        assert np.max(np.abs(ric.control(xs, 0.3))) > 0.1

    def test_control_depends_only_on_remaining_protocol(self):
        times = np.linspace(0.0, 1.0, 21)
        xs = np.linspace(-4.0, 4.0, 81)[:, None]
        ref = riccati_value_function(moving_spec(), times)
        alt_spec = BrownianSpec(QuadraticPotential(EarlyKink(), dimension=1),
                                beta=1.0, horizon=1.0)
        alt = riccati_value_function(alt_spec, times)
        for s in (0.5, 0.75, 1.0):
            assert_allclose(alt.control(xs, s), ref.control(xs, s), atol=1e-14)
        # before the protocols merge the fields genuinely differ
        assert np.max(np.abs(alt.control(xs, 0.25) - ref.control(xs, 0.25))) > 0.5


class TestKineticSolution:
    def test_frozen_potential_is_trivial(self):
        spec = LangevinSpec(QuadraticPotential(Constant(1.0), dimension=1),
                            beta=2.0, horizon=1.0, xi=0.8)
        sol = riccati_value_function(spec, np.linspace(0.0, 1.0, 11))
        assert sol.value(np.array([0.4, -1.1]), 0.3) == 0.0
        law = sol.tilted_initial_law()
        ref = gibbs_gaussian(spec, 0.0)
        assert_allclose(law.mean, ref.mean, atol=1e-14)
        assert_allclose(law.cov, ref.cov, atol=1e-14)

    def test_terminal_condition_is_zero(self):
        spec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0),
                                               dimension=1),
                            beta=1.0, horizon=1.0, xi=1.0)
        sol = riccati_value_function(spec, np.linspace(0.0, 1.0, 21))
        for x in ((0.5, -0.3), (1.0, 2.0)):
            assert sol.value(np.array(x), spec.horizon) == 0.0
        assert np.max(np.abs(sol.control(np.array([[0.7, -0.2]]),
                                         spec.horizon))) == 0.0

    def test_tilted_initial_mass_is_unity(self):
        spec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0),
                                               dimension=1),
                            beta=1.0, horizon=1.0, xi=1.0)
        sol = riccati_value_function(spec, np.linspace(0.0, 1.0, 21))
        assert sol.tilted_initial_mass() == pytest.approx(1.0, abs=1e-6)

    def test_matches_path_average_from_point_start(self):
        spec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0),
                                               dimension=1),
                            beta=1.0, horizon=1.0, xi=1.0)
        sol = riccati_value_function(spec, np.linspace(0.0, 1.0, 21))
        init = GaussianLaw(np.array([0.7, -0.2]), np.diag([1e-20, 1e-20]))
        res = simulate_forward(spec, n_paths=40000, dt=1e-3, seed=5, init=init)
        vals = np.exp(-spec.beta * res.work[-1])
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        exact = float(sol.g(np.array([0.7, -0.2]), 0.0))
        assert abs(mean - exact) <= 4.0 * stderr + 5.0 * 1e-3 * exact


RICCATI_SOLVERS = {
    "overdamped": lambda pot, times: riccati_value_function(
        BrownianSpec(pot, beta=1.0, horizon=1.0), times),
    "kinetic": lambda pot, times: riccati_value_function(
        LangevinSpec(pot, beta=1.0, horizon=1.0), times),
}


class TestRiccatiGuards:
    @pytest.mark.parametrize("solver", RICCATI_SOLVERS)
    @pytest.mark.parametrize("times", [[1.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.4, 1.0]],
                             ids=["one-knot", "repeated", "unsorted"])
    def test_degenerate_grid_is_a_spec_error(self, solver, times):
        with pytest.raises(SpecError, match="strictly increasing"):
            RICCATI_SOLVERS[solver](QuadraticPotential(Linear(1.0, 2.0, 1.0)), np.array(times))

    @pytest.mark.parametrize("solver, where", [("overdamped", "0.999375"),
                                               ("kinetic", "0.99875")])
    def test_blow_up_reports_the_stage_time(self, solver, where):
        pot = QuadraticPotential(Linear(1.0, 1e10, 1.0))
        with pytest.raises(BlowUpError,
                           match=rf"^riccati coefficients exceeded 1e\+08 at s={where}$"):
            RICCATI_SOLVERS[solver](pot, np.linspace(0.0, 1.0, 201))

    @pytest.mark.parametrize("solver", RICCATI_SOLVERS)
    def test_nan_stiffness_is_a_blow_up(self, solver):
        """No comparison with NaN is true, so the stage guard alone lets a NaN
        schedule through; the solved coefficients are checked for it."""
        pot = QuadraticPotential(Linear(1.0, float("nan"), 1.0))
        with pytest.raises(BlowUpError,
                           match=r"^riccati coefficients are not finite at s=0.995$"):
            RICCATI_SOLVERS[solver](pot, np.linspace(0.0, 1.0, 201))
