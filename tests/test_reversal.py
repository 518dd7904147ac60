"""The time-flipped reverse process against the steered forward process."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

from noneq import (
    BrownianSpec,
    Constant,
    DiffusionFactor,
    LangevinSpec,
    Linear,
    QuadraticPotential,
    RotationCirculation,
    drift_identity_check,
    grid_drift_identity_check,
    law_equivalence_test,
    reverse_density_check,
    riccati_value_function,
    solve_g_pde_1d,
)
from noneq.reversal import _ks_statistic, _sidak_ks_coefficient

KNOTS = np.linspace(0.0, 1.0, 21)
CHECK_TIMES = np.linspace(0.0, 1.0, 11)


def moving_spec():
    return BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=1),
                        beta=1.0, horizon=1.0)


def frozen_spec():
    return BrownianSpec(QuadraticPotential(Constant(1.0), dimension=1),
                        beta=1.0, horizon=1.0)


def kinetic_spec():
    return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1),
                        beta=1.0, horizon=1.0, xi=1.0)


def rotating_spec():
    """Rotation about the well's centre under anisotropic noise, so that the
    circulation changes the control."""
    return BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=2), beta=1.0,
                        horizon=1.0, circulation=RotationCirculation(0.7),
                        diffusion=DiffusionFactor(np.array([[1.0, 0.0], [0.3, 0.8]])))


def kinetic_plane_spec():
    return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), Linear(0.2, -0.4, 1.0), 2),
                        beta=0.9, horizon=1.0, xi=0.7, mass=np.diag([2.0, 0.5]))


MOVING_SPECS = pytest.mark.parametrize(
    "make", [moving_spec, kinetic_spec, rotating_spec, kinetic_plane_spec],
    ids=["overdamped", "kinetic", "rotating-plane", "kinetic-plane"])


class TestDriftIdentity:
    def test_frozen_case_is_exact(self):
        spec = frozen_spec()
        ric = riccati_value_function(spec, KNOTS)
        rep = drift_identity_check(spec, ric, CHECK_TIMES)
        assert rep.max_residual == 0.0

    @MOVING_SPECS
    def test_moving_schedule(self, make):
        spec = make()
        ric = riccati_value_function(spec, KNOTS)
        rep = drift_identity_check(spec, ric, CHECK_TIMES)
        assert rep.max_residual <= 1e-6
        assert rep.times.shape == rep.residuals.shape

    def test_unflipped_circulation_fails(self, monkeypatch):
        """A reverse process that keeps the circulation's sign breaks the
        identity on the rotating plane by far more than the tolerance."""
        spec = rotating_spec()
        ric = riccati_value_function(spec, KNOTS)
        unflipped = replace(spec.reversed(), circulation=spec.circulation)
        monkeypatch.setattr(spec, "reversed", lambda: unflipped)
        assert drift_identity_check(spec, ric, CHECK_TIMES).max_residual > 1.0

    @MOVING_SPECS
    def test_residual_reflects_knot_interpolation(self, make):
        """Between value-function knots the identity only holds to the
        interpolation error, so off-knot probes must sit well above the
        on-knot floor while still shrinking with the knot spacing."""
        spec = make()
        off = np.linspace(0.0, 1.0, 9)  # multiples of 0.125, off the knots
        coarse = drift_identity_check(spec, riccati_value_function(spec, KNOTS),
                                      off).max_residual
        fine_knots = np.linspace(0.0, 1.0, 81)
        fine = drift_identity_check(spec, riccati_value_function(spec, fine_knots),
                                    off).max_residual
        assert coarse > 1e-4
        assert fine <= coarse / 8.0


class TestGridIdentity:
    def test_frozen_case(self):
        spec = frozen_spec()
        ctl = solve_g_pde_1d(spec, dt=2e-3, cells=400)
        rep = grid_drift_identity_check(spec, ctl, dt=2e-3, cells=400)
        assert rep.max_residual <= 1e-10

    def test_moving_schedule_within_method_accuracy(self):
        spec = moving_spec()
        ctl = solve_g_pde_1d(spec, dt=1e-3, cells=800)
        rep = grid_drift_identity_check(spec, ctl, dt=1e-3, cells=800)
        assert rep.max_residual <= 2e-2

    def test_residual_shrinks_under_refinement(self):
        spec = moving_spec()
        coarse = grid_drift_identity_check(
            spec, solve_g_pde_1d(spec, dt=2e-3, cells=400), dt=2e-3,
            cells=400).max_residual
        fine = grid_drift_identity_check(
            spec, solve_g_pde_1d(spec, dt=1e-3, cells=800), dt=1e-3,
            cells=800).max_residual
        assert fine < coarse


class TestLawEquivalence:
    def test_matched_marginals(self):
        spec = moving_spec()
        ric = riccati_value_function(spec, KNOTS)
        rep = law_equivalence_test(spec, ric, n_paths=4000, dt=2e-3, seed=0)
        assert rep.ok, rep.summary()
        assert rep.n_forward == rep.n_reverse == 4000
        assert len(rep.rows) == 5
        assert rep.rows[-1].time == pytest.approx(spec.horizon)

    def test_stable_across_seeds(self):
        spec = moving_spec()
        ric = riccati_value_function(spec, KNOTS)
        passed = sum(law_equivalence_test(spec, ric, n_paths=4000, dt=2e-3,
                                          seed=seed).ok for seed in range(10))
        assert passed >= 9

    def test_frozen_case(self):
        spec = frozen_spec()
        ric = riccati_value_function(spec, KNOTS)
        rep = law_equivalence_test(spec, ric, n_paths=4000, dt=2e-3, seed=1)
        assert rep.ok, rep.summary()

    def test_kinetic_matched_marginals(self):
        spec = kinetic_spec()
        sol = riccati_value_function(spec, KNOTS)
        rep = law_equivalence_test(spec, sol, n_paths=4000, dt=2e-3,
                                           seed=3)
        assert rep.ok, rep.summary()
        assert len(rep.rows) == 10  # position and momentum at five times

    @pytest.mark.parametrize("seed", range(5))
    def test_rejects_zero_control(self, seed):
        """Tilted start but no steering: the marginals drift off the reverse law."""
        spec = moving_spec()
        ric = riccati_value_function(spec, KNOTS)
        unsteered = SimpleNamespace(tilted_initial_law=ric.tilted_initial_law,
                                    control=lambda x, s: 0.0 * ric.control(x, s))
        rep = law_equivalence_test(spec, unsteered, n_paths=4000, dt=2e-3, seed=seed)
        assert not rep.ok, rep.summary()


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("n1, n2, ties", [(37, 53, True), (400, 250, True),
                                              (1000, 1300, False), (5, 3, False)])
    def test_statistic_matches_scipy(self, n1, n2, ties):
        rng = np.random.default_rng(n1 * n2)
        for shift in (-0.3, 0.0, 0.3):  # either side of the CDF gap may win
            a = rng.standard_normal(n1)
            b = rng.standard_normal(n2) + shift
            if ties:
                a, b = np.round(a, 1), np.round(b, 1)
            expected = ks_2samp(a, b, method="asymp").statistic
            assert _ks_statistic(a, b) == expected

    def test_sidak_coefficient(self):
        assert _sidak_ks_coefficient(0.01, 1) == pytest.approx(1.6276, abs=5e-5)
        assert _sidak_ks_coefficient(0.01, 15) == pytest.approx(2.0002, abs=5e-5)


class TestReverseDensity:
    def test_frozen_case_rides_the_invariant_law(self):
        spec = frozen_spec()
        ctl = solve_g_pde_1d(spec, dt=2e-3, cells=400)
        rep = reverse_density_check(spec, ctl, dt=2e-3, cells=400)
        assert rep.max_l1 <= 1e-10

    def test_moving_schedule(self):
        spec = moving_spec()
        ctl = solve_g_pde_1d(spec, dt=1e-3, cells=800)
        rep = reverse_density_check(spec, ctl, dt=1e-3, cells=800)
        assert rep.max_l1 <= 5e-3
        # last comparison happens at the full flip, against the tilted start
        assert rep.times[-1] == pytest.approx(spec.horizon)

    def test_reports_the_compared_times(self):
        # the record stride 250 // 20 = 12 steps misses T/5, 2T/5, ...; the
        # report gives the recorded times it compared, as the drift check does
        spec = moving_spec()
        ctl = solve_g_pde_1d(spec, dt=4e-3, cells=200)
        rep = reverse_density_check(spec, ctl, dt=4e-3, cells=200)
        drift = grid_drift_identity_check(spec, ctl, dt=4e-3, cells=200)
        assert_allclose(rep.times, [0.192, 0.384, 0.624, 0.816, 1.0], rtol=0, atol=1e-12)
        assert_allclose(rep.times, spec.horizon - drift.times, rtol=0, atol=1e-12)

    def test_error_shrinks_under_refinement(self):
        spec = moving_spec()
        coarse = reverse_density_check(
            spec, solve_g_pde_1d(spec, dt=2e-3, cells=400), dt=2e-3,
            cells=400).max_l1
        fine = reverse_density_check(
            spec, solve_g_pde_1d(spec, dt=1e-3, cells=800), dt=1e-3,
            cells=800).max_l1
        assert fine < coarse
