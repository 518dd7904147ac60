"""Exponential-work free-energy estimators and their reweighted variants."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noneq import (
    BrownianSpec,
    Constant,
    EstimatorReport,
    Linear,
    QuadraticPotential,
    SpecError,
    TanhPerturbedPotential,
    estimate_free_energy_is,
    estimate_free_energy_vanilla,
    free_energy_difference,
    riccati_value_function,
    simulate_forward,
    solve_g_pde_1d,
    variance_report,
)
from noneq.jarzynski import _logsumexp
from noneq.sde import TrajectoryEnsemble

HALF_LN2 = 0.5 * math.log(2.0)


def doubling_spec(beta=1.0):
    return BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=1),
                        beta=beta, horizon=1.0)


def frozen_spec():
    return BrownianSpec(QuadraticPotential(Constant(1.0), dimension=1),
                        beta=1.0, horizon=1.0)


def value_feedback(spec, knots=1001):
    ric = riccati_value_function(spec, np.linspace(0.0, spec.horizon, knots))
    return ric.tilted_initial_law(), ric.control


class TestVanillaEstimator:
    def test_frozen_protocol_is_exactly_zero(self):
        spec = frozen_spec()
        ens = simulate_forward(spec, 500, 2e-3, seed=3)
        rep = estimate_free_energy_vanilla(spec, ens)
        assert rep.value == 0.0
        assert rep.stderr == 0.0

    def test_stiffness_doubling(self):
        spec = doubling_spec()
        ens = simulate_forward(spec, 20000, 1e-3, seed=21)
        rep = estimate_free_energy_vanilla(spec, ens)
        assert abs(rep.value - HALF_LN2) <= 3.0 * rep.stderr
        assert rep.kind == "vanilla"
        assert rep.n_paths == 20000

    def test_pure_translation_costs_nothing(self):
        spec = BrownianSpec(
            QuadraticPotential(Constant(1.0), center=Linear(0.0, 1.0, 1.0),
                               dimension=1), beta=1.0, horizon=1.0)
        ens = simulate_forward(spec, 20000, 1e-3, seed=7)
        rep = estimate_free_energy_vanilla(spec, ens)
        assert abs(rep.value) <= 3.0 * rep.stderr

    def test_sample_jensen_inequality(self):
        spec = doubling_spec()
        ens = simulate_forward(spec, 20000, 1e-3, seed=21)
        rep = estimate_free_energy_vanilla(spec, ens)
        assert rep.value <= float(ens.terminal_work.mean())

    def test_estimates_scatter_like_their_stderr(self):
        spec = doubling_spec()
        vals, errs = [], []
        for seed in range(10):
            ens = simulate_forward(spec, 2000, 2e-3, seed=seed)
            rep = estimate_free_energy_vanilla(spec, ens)
            vals.append(rep.value)
            errs.append(rep.stderr)
        spread = float(np.std(vals, ddof=1))
        typical = float(np.mean(errs))
        assert typical / 2.0 <= spread <= 2.0 * typical


class TestReweightedEstimator:
    def test_reduces_to_vanilla_without_control(self):
        spec = doubling_spec()
        ens = simulate_forward(spec, 5000, 1e-3, seed=21)
        vanilla = estimate_free_energy_vanilla(spec, ens)
        reweighted = estimate_free_energy_is(spec, ens)
        assert reweighted.value == vanilla.value
        assert reweighted.stderr == vanilla.stderr

    def test_bounded_control_corrects_to_zero(self):
        spec = frozen_spec()
        ctl = lambda x, s: 0.6 * np.tanh(x)
        ens = simulate_forward(spec, 20000, 1e-3, seed=13, control=ctl)
        rep = estimate_free_energy_is(spec, ens)
        assert abs(rep.value) <= 3.0 * rep.stderr

    def test_value_feedback_flattens_the_weights(self):
        spec = BrownianSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0),
                                               dimension=1),
                            beta=1.0, horizon=1.0)
        tilted, ctl = value_feedback(spec)
        exact = free_energy_difference(spec)
        cvs = []
        for dt in (2e-3, 1e-3, 5e-4):
            ens = simulate_forward(spec, 2000, dt, seed=5, init=tilted,
                                   control=ctl)
            rep = estimate_free_energy_is(spec, ens, initial_law=tilted)
            vr = variance_report(rep)
            cvs.append(vr.cv)
            assert abs(rep.value - exact) <= 5.0 * dt
        assert cvs[1] <= 1e-2
        assert cvs[0] > cvs[1] > cvs[2]
        # residual weight noise comes from the time discretisation alone,
        # so quartering dt should roughly halve the coefficient of variation
        assert 1.5 <= cvs[0] / cvs[2] <= 2.8

    def test_beats_vanilla_at_high_inverse_temperature(self):
        spec = doubling_spec(beta=4.0)
        ens = simulate_forward(spec, 4000, 1e-3, seed=9)
        cv_vanilla = variance_report(estimate_free_energy_vanilla(spec, ens)).cv
        tilted, ctl = value_feedback(spec)
        steered = simulate_forward(spec, 4000, 1e-3, seed=9, init=tilted,
                                   control=ctl)
        cv_is = variance_report(
            estimate_free_energy_is(spec, steered, initial_law=tilted)).cv
        assert cv_is < cv_vanilla / 10.0

    def test_grid_start_law_steers_a_tanh_ramp(self):
        """The grid value function's tilted start, drawn and evaluated as a start
        law, with its feedback: on this non-quadratic ramp the weights flatten
        to the time-discretisation floor.  Over seeds 0-49 the CV at dt 4e-3
        reads at most 1.48e-2; 0.9x feedback reads 4.6e-2 and 0.5x 0.24."""
        spec = BrownianSpec(TanhPerturbedPotential(Linear(0.0, 1.5, 1.0)), beta=1.0, horizon=1.0)
        ctl = solve_g_pde_1d(spec, 1e-3, cells=800)
        start = ctl.tilted_initial_density()
        exact = free_energy_difference(spec)
        cvs = []
        for dt in (4e-3, 2e-3):
            ens = simulate_forward(spec, 1000, dt, seed=7, init=start,
                                   control=ctl.control_field())
            rep = estimate_free_energy_is(spec, ens, initial_law=start)
            cvs.append(variance_report(rep).cv)
            assert abs(rep.value - exact) <= 5.0 * dt
        assert cvs[0] <= 2e-2
        assert cvs[1] < cvs[0]


class TestVarianceReport:
    def test_equal_weights_have_zero_variance_and_full_ess(self):
        rep = EstimatorReport(value=0.3, stderr=0.0, n_paths=4, kind="vanilla",
                              beta=1.0, log_values=np.full(4, -0.3), dt=1e-3,
                              seed=0)
        vr = variance_report(rep)
        assert vr.variance == 0.0
        assert vr.cv == 0.0
        assert vr.ess == pytest.approx(4.0)
        assert vr.n_paths == 4

    def test_ess_drops_below_n_for_uneven_weights(self):
        rep = EstimatorReport(value=0.0, stderr=0.1, n_paths=3, kind="vanilla",
                              beta=1.0, log_values=np.array([0.0, 0.0, -3.0]),
                              dt=1e-3, seed=0)
        vr = variance_report(rep)
        assert vr.ess < 3.0
        assert vr.variance > 0.0


class TestGuards:
    def test_too_few_finite_paths(self):
        spec = frozen_spec()
        ens = TrajectoryEnsemble(
            times=np.array([0.0, 1.0]),
            states=np.zeros((2, 3, 1)),
            work=np.zeros((2, 3)),
            log_weight=np.zeros((2, 3)),
            flagged=np.array([True, True, False]),
            seed=0, dt=0.1, kind="brownian")
        with pytest.raises(SpecError):
            estimate_free_energy_vanilla(spec, ens)

    def test_initial_law_must_expose_log_density(self):
        spec = frozen_spec()
        ens = simulate_forward(spec, 16, 1e-2, seed=1)
        with pytest.raises(SpecError):
            estimate_free_energy_is(spec, ens, initial_law=object())


def logsumexp_cases():
    rng = np.random.default_rng(23)
    draws = rng.normal(size=(4, 500))
    tied = draws[0].copy()
    tied[[3, 77, 401]] = tied.max() + 0.5
    return {
        "tie at the maximum": tied,
        "all tied": np.full(64, -3.25),
        "n=2": np.array([0.1, -0.7]),
        "n=2 tied": np.array([2.5, 2.5]),
        "single dominant term": np.concatenate([[40.0], draws[1]]),
        "dominant beyond roundoff": np.array([0.0, -800.0, -745.5, -40.0]),
        "magnitudes near 300": 300.0 + draws[2],
        "magnitudes near -300": -300.0 + 3.0 * draws[3],
        "mixed signs near 300": np.array([299.5, -301.0, 300.25, 298.0]),
        "vanished weights": np.array([-np.inf, -np.inf, -np.inf]),
    }


@pytest.mark.parametrize("name", sorted(logsumexp_cases()))
def test_logsumexp_matches_scipy(name):
    """The estimators' logsumexp keeps scipy's arithmetic: equal, not close."""
    from scipy.special import logsumexp

    a = logsumexp_cases()[name]
    assert _logsumexp(a) == float(logsumexp(a))
