"""Entropy balance identities, decay envelopes, and decay-rate certificates."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noneq import (
    BrownianSpec,
    CertificateInfeasible,
    Constant,
    GaussianLaw,
    GridDensity1D,
    LangevinSpec,
    Linear,
    QuadraticPotential,
    QuadratureError,
    SpecError,
    TanhPerturbedPotential,
    bakry_emery_kappa,
    decay_bound_lipschitz,
    decay_bound_supremum,
    fisher_and_rate_terms,
    gaussian_kl,
    gaussian_modified_functional,
    gaussian_tv_1d,
    gaussian_w2,
    gibbs_gaussian,
    hypocoercivity_certificate,
    kinetic_decay_bound,
    kinetic_decay_bound_time_dependent,
    langevin_propagator,
    modified_functional_trace,
    optimize_omega,
    ou_moments_path,
    pinsker_talagrand_report,
    production_rate_check,
    solve_fp_1d,
)
import noneq.entropy as entropy_module
from noneq.cli import DEFAULTS, QUICK, main
from noneq.model import Potential


def ou_spec(k0=1.0, k1=None, beta=1.0, horizon=1.0):
    sched = Constant(k0) if k1 is None else Linear(k0, k1, horizon)
    return BrownianSpec(QuadraticPotential(sched, dimension=1), beta=beta,
                        horizon=horizon)


def kin_spec(eta0=1.0, eta1=None, beta=1.0, horizon=1.0, xi=1.0):
    sched = Constant(eta0) if eta1 is None else Linear(eta0, eta1, horizon)
    return LangevinSpec(QuadraticPotential(sched, dimension=1), beta=beta,
                        horizon=horizon, xi=xi)


class TestProductionRateBrownian:
    def test_analytic_gaussian_identity(self):
        spec = ou_spec()
        times = np.linspace(0.0, 1.0, 401)
        laws = ou_moments_path(spec, GaussianLaw(np.array([2.0]),
                                                 np.array([[0.5]])), times)
        trace = production_rate_check(spec, laws, times)
        assert trace.max_residual <= 1e-6
        assert np.all(trace.r >= 0.0)

    def test_stationary_case_is_identically_zero(self):
        spec = ou_spec(k0=1.3, beta=2.0)
        times = np.linspace(0.0, 1.0, 101)
        laws = ou_moments_path(spec, gibbs_gaussian(spec, 0.0), times)
        trace = production_rate_check(spec, laws, times)
        assert np.max(np.abs(trace.r)) <= 1e-12
        assert np.max(np.abs(trace.dr_ds)) <= 1e-10
        assert np.max(np.abs(trace.rhs)) <= 1e-10

    def test_laws_need_one_time_each(self):
        spec = ou_spec()
        times = np.linspace(0.0, 1.0, 11)
        laws = ou_moments_path(spec, gibbs_gaussian(spec, 0.0), times)
        for args in ((laws[:-1], times), (laws, None)):
            with pytest.raises(SpecError):
                production_rate_check(spec, *args)

    def test_grid_identity_with_moving_schedule(self):
        spec = ou_spec(k0=1.0, k1=1.5)  # stiffness 1 + s/2
        init = GaussianLaw(np.array([0.5]), np.array([[0.7]]))
        sol = solve_fp_1d(spec, init, dt=1e-3, cells=1000, theta=0.5)
        trace = production_rate_check(spec, sol)
        assert trace.max_residual <= 1e-4

    def test_grid_residual_first_order_in_dt(self):
        """With the fully implicit stepper the identity residual is dominated
        by the O(dt) time discretization, so halving dt should halve it."""
        spec = ou_spec(k0=1.0, k1=1.5)
        init = GaussianLaw(np.array([0.5]), np.array([[0.7]]))
        res = []
        for dt in (2e-3, 1e-3):
            every = 5 * int(round(2e-3 / dt))
            sol = solve_fp_1d(spec, init, dt=dt, cells=1000, theta=1.0,
                              record_every=every)
            res.append(production_rate_check(spec, sol).max_residual)
        assert 1.6 <= res[0] / res[1] <= 2.6

    def test_grid_trace_builds_one_gibbs_density_per_slice(self, monkeypatch):
        from noneq import entropy, fokker_planck

        spec = ou_spec(k0=1.0, k1=1.5)
        init = GaussianLaw(np.array([0.5]), np.array([[0.7]]))
        sol = solve_fp_1d(spec, init, dt=1e-2, cells=200, theta=1.0, record_every=10)
        assert len(sol.times) == 11
        original, calls = fokker_planck.gibbs_grid, []

        def counted(spec, s, like):
            calls.append(s)
            return original(spec, s, like)

        for mod in (entropy, fokker_planck):
            monkeypatch.setattr(mod, "gibbs_grid", counted)
        trace = production_rate_check(spec, sol)
        assert len(calls) == 11
        monkeypatch.undo()
        want = [fisher_and_rate_terms(spec, sol.density(t), float(t)).rhs(spec.beta)
                for t in sol.times]
        assert trace.rhs.tolist() == want

    def test_homogeneous_entropy_is_monotone(self):
        spec = ou_spec()
        init = GaussianLaw(np.array([1.2]), np.array([[0.4]]))
        sol = solve_fp_1d(spec, init, dt=1e-3, cells=800, theta=1.0)
        trace = production_rate_check(spec, sol)
        assert trace.max_dr <= 1e-6


class TestProductionRateLangevin:
    def test_analytic_homogeneous_identity(self):
        spec = kin_spec()
        times = np.linspace(0.0, 1.0, 401)
        init = GaussianLaw(np.array([0.8, -0.4]), np.diag([0.6, 1.2]))
        laws = langevin_propagator(spec, times).push(init)
        trace = production_rate_check(spec, laws, times)
        assert trace.max_residual <= 1e-6

    def test_stationary_case_is_identically_zero(self):
        spec = kin_spec(eta0=1.5, beta=0.7)
        times = np.linspace(0.0, 1.0, 101)
        laws = langevin_propagator(spec, times).push(
            gibbs_gaussian(spec, 0.0))
        trace = production_rate_check(spec, laws, times)
        assert np.max(np.abs(trace.r)) <= 1e-10
        assert np.max(np.abs(trace.residual)) <= 1e-10

    def test_schedule_identity_via_propagator(self):
        spec = kin_spec(eta1=1.25)  # stiffness 1 + s/4
        times = np.linspace(0.0, 1.0, 401)
        init = GaussianLaw(np.array([0.8, -0.4]), np.diag([0.6, 1.2]))
        laws = langevin_propagator(spec, times).push(init)
        trace = production_rate_check(spec, laws, times)
        assert trace.max_residual <= 1e-5


class TestDecayEnvelopes:
    def test_zero_forcing_is_pure_exponential(self):
        times = np.linspace(0.0, 2.0, 81)
        r0, beta, gm, kappa = 0.8, 1.0, 1.0, 1.5
        env = decay_bound_supremum(times, r0, beta, gm, lambda s: kappa + 0.0 * s,
                                   lambda s: 0.0 * s)
        assert_allclose(env.bound, r0 * np.exp(-2.0 * gm * kappa * times / beta),
                        rtol=1e-9)

    def test_initial_value_is_exact(self):
        env = decay_bound_supremum(np.linspace(0.0, 1.0, 11), 0.37, 2.0, 0.5,
                                   lambda s: 1.0 + 0.0 * s,
                                   lambda s: 0.2 + 0.0 * s)
        assert env.bound[0] == pytest.approx(0.37, abs=1e-14)

    def test_constant_forcing_closed_form(self):
        """Zero start, constant rate bound and curvature: quadrature against
        the closed-form convolution."""
        times = np.linspace(0.0, 3.0, 121)
        beta, gm, kappa, l1 = 1.3, 0.8, 1.1, 0.45
        env = decay_bound_supremum(times, 0.0, beta, gm,
                                   lambda s: kappa + 0.0 * s,
                                   lambda s: l1 + 0.0 * s, tol=1e-12)
        rate = gm * kappa / beta
        closed = (beta * l1 / math.sqrt(2.0) * (1.0 - np.exp(-rate * times))
                  / rate) ** 2
        assert np.max(np.abs(env.bound - closed)) <= 1e-10

    def test_lipschitz_variant_closed_form(self):
        times = np.linspace(0.0, 2.0, 81)
        beta, gm, kappa, l2 = 1.0, 1.0, 0.9, 0.3
        env = decay_bound_lipschitz(times, 0.0, beta, gm,
                                    lambda s: kappa + 0.0 * s,
                                    lambda s: l2 + 0.0 * s, tol=1e-12)
        rate = gm * kappa / beta
        closed = (beta * (l2 / math.sqrt(kappa)) / math.sqrt(2.0)
                  * (1.0 - np.exp(-rate * times)) / rate) ** 2
        assert np.max(np.abs(env.bound - closed)) <= 1e-10

    def test_lipschitz_variant_needs_positive_curvature(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(CertificateInfeasible):
            decay_bound_lipschitz(times, 0.1, 1.0, 1.0,
                                  lambda s: 0.0 * s, lambda s: 0.2 + 0.0 * s)


class TestGronwallQuadrature:
    """The envelopes' shared quadrature: cumulative Simpson on doubling grids,
    read at the output times with cubic Lagrange weights, so both the
    quadrature and the readout are fourth order."""

    RATES = dict(beta=1.3, gamma_minus=0.8, kappa=1.1, l1=0.45)

    def supremum(self, times, r0=0.6, **kw):
        p = self.RATES
        return decay_bound_supremum(times, r0, p["beta"], p["gamma_minus"],
                                    lambda s: p["kappa"] + 0.0 * s,
                                    lambda s: p["l1"] + 0.0 * s, **kw)

    def closed_sqrt(self, times, r0=0.6):
        p = self.RATES
        rate = p["gamma_minus"] * p["kappa"] / p["beta"]
        decay = np.exp(-rate * np.asarray(times))
        return math.sqrt(r0) * decay + p["beta"] * p["l1"] / math.sqrt(2.0) * (1.0 - decay) / rate

    def test_constant_rates_match_the_closed_form_to_roundoff(self):
        times = np.linspace(0.0, 3.0, 121)
        env = self.supremum(times)
        assert np.max(np.abs(env.sqrt_bound - self.closed_sqrt(times))) <= 1e-13

    @pytest.mark.parametrize("l1, l2", [(0.0, 0.0), (0.3, 0.2)])
    def test_kinetic_constant_rates_match_the_closed_form_to_roundoff(self, l1, l2):
        cert = hypocoercivity_certificate(0.05, 0.04, 0.05, xi=1.0, beta=1.0,
                                          hessian_bound=0.0, lsi_kappa=1.0)
        times = np.linspace(0.0, 4.0, 81)
        got = kinetic_decay_bound_time_dependent(
            cert, 0.5, times, lambda s: cert.omega + 0.0 * s,
            lambda s: l1 + 0.0 * s, lambda s: l2 + 0.0 * s)
        forcing = 0.5 * cert.beta ** 2 * l1 ** 2 / cert.omega \
            + cert.beta ** 2 * (cert.c + 0.5 * cert.b) * l2 ** 2
        decay = np.exp(-cert.omega * times)
        assert np.max(np.abs(got - (0.5 * decay + forcing * (1.0 - decay) / cert.omega))) <= 1e-13

    def test_times_with_repeats(self):
        times = np.array([0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 2.5, 2.5])
        env = self.supremum(times)
        assert env.sqrt_bound[1] == env.sqrt_bound[2]
        assert env.sqrt_bound[3] == env.sqrt_bound[4] == env.sqrt_bound[5]
        assert env.sqrt_bound[6] == env.sqrt_bound[7]
        assert env.sqrt_bound[0] == math.sqrt(0.6)
        assert np.max(np.abs(env.sqrt_bound - self.closed_sqrt(times))) <= 1e-13

    def test_a_single_time_at_zero_is_the_start(self):
        assert self.supremum([0.0, 0.0]).sqrt_bound.tolist() == [math.sqrt(0.6)] * 2

    def test_unreachable_tolerance_is_a_typed_error(self):
        with pytest.raises(QuadratureError, match="did not settle"):
            self.supremum(np.linspace(0.0, 3.0, 121), tol=0.0)

    @pytest.mark.parametrize("times", [[0.0, float("nan")], [0.0, float("inf")],
                                       [-0.1, 1.0], [0.0, 1.0, 0.5]])
    def test_times_off_the_grid_are_rejected(self, times):
        with pytest.raises(SpecError):
            self.supremum(times)

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_cli_envelopes_converge_within_three_grids(self, quick, tmp_path, monkeypatch):
        """Each envelope the CLI draws settles within 3 grids (at most 4097
        points), counted by the calls to the quadrature's ``terms``."""
        grids = []
        gronwall = entropy_module._gronwall

        def counting(times, y0, terms, tol):
            sizes = []
            grids.append(sizes)
            return gronwall(times, y0, lambda grid, h: (sizes.append(len(grid)),
                                                        terms(grid, h))[1], tol)

        monkeypatch.setattr(entropy_module, "_gronwall", counting)
        flag = ["--quick"] if quick else []
        for name in ("bound-overdamped", "bound-kinetic"):
            assert main([name, *flag, "--out", str(tmp_path / name)]) == 0
        assert len(grids) == 4
        for sizes in grids:
            assert 2 <= len(sizes) <= 3 and sizes[-1] <= 4097, sizes


class QuarticDoubleWell(Potential):
    """x^4 - x^2: strictly negative curvature near the origin."""

    is_quadratic = False
    dimension = 1

    def v(self, x, s):
        x0 = np.asarray(x, dtype=float)[..., 0]
        return x0 ** 4 - x0 ** 2

    def dv_ds(self, x, s):
        return np.zeros(np.asarray(x).shape[:-1])

    def grad(self, x, s):
        x0 = np.asarray(x, dtype=float)[..., 0]
        return (4.0 * x0 ** 3 - 2.0 * x0)[..., None]

    def hess(self, x, s):
        x0 = np.asarray(x, dtype=float)[..., 0]
        return (12.0 * x0 ** 2 - 2.0)[..., None, None]

    def envelope(self, s, beta):
        return 0.0, 1.0


class TestCurvatureProbe:
    def test_quadratic_recovers_beta(self):
        for beta in (0.5, 1.0, 3.0):
            spec = ou_spec(beta=beta)
            assert_allclose(bakry_emery_kappa(spec, 0.3), beta, rtol=1e-12)

    def test_tanh_perturbation_curvature(self):
        spec = BrownianSpec(TanhPerturbedPotential(Constant(0.5)), beta=1.0,
                            horizon=1.0)
        kappa = bakry_emery_kappa(spec, 0.0)
        assert_allclose(kappa, 1.0 - 0.5 * 4.0 / (3.0 * math.sqrt(3.0)),
                        atol=1e-4)
        assert_allclose(kappa, 0.6151, atol=1e-4)

    def test_nonconvex_rejected(self):
        spec = BrownianSpec(QuarticDoubleWell(), beta=1.0, horizon=1.0)
        with pytest.raises(CertificateInfeasible) as exc:
            bakry_emery_kappa(spec, 0.0)
        assert exc.value.constraint == "convexity"


class TestCertificates:
    def test_equal_diagonal_eigenvalues(self):
        # the weight matrix [[1, 0.5], [0.5, 1]] has eigenvalues 0.5, 1.5 ...
        eigs = np.linalg.eigvalsh(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert_allclose(eigs, [0.5, 1.5], rtol=1e-14)
        # ... but these weights violate 2b > c and must be rejected, by name
        with pytest.raises(CertificateInfeasible) as exc:
            hypocoercivity_certificate(1.0, 0.5, 1.0, xi=1.0, beta=1.0,
                                       hessian_bound=0.0, lsi_kappa=1.0)
        assert "2b" in exc.value.constraint

    def test_infeasible_certificate_survives_a_process_boundary(self):
        """An experiment's error reaches `noneq all --jobs` pickled; its
        message and constraint name arrive unchanged."""
        import pickle

        err = CertificateInfeasible("S >= 0", "min eig S = -1.000e-03")
        back = pickle.loads(pickle.dumps(err))
        assert (str(back), back.constraint) == (str(err), err.constraint)

    def test_hand_computed_certificate(self):
        cert = hypocoercivity_certificate(0.05, 0.04, 0.05, xi=1.0, beta=1.0,
                                          hessian_bound=0.0, lsi_kappa=1.0)
        lam1_tilde = 0.525 - math.sqrt(0.253125)
        assert_allclose(cert.lambda1_tilde, lam1_tilde, rtol=1e-12)
        assert_allclose(cert.lambda1_tilde, 0.0218847, atol=1e-6)
        assert_allclose(cert.lambda2, 0.09, rtol=1e-12)
        assert_allclose(cert.omega, 0.5 * lam1_tilde / (0.5 + 0.09), rtol=1e-12)
        assert_allclose(cert.omega, 0.0185464, atol=1e-6)

    def test_determinant_constraint_named(self):
        with pytest.raises(CertificateInfeasible) as exc:
            hypocoercivity_certificate(0.01, 0.04, 0.05, xi=1.0, beta=1.0,
                                       hessian_bound=0.0, lsi_kappa=1.0)
        assert "ac" in exc.value.constraint

    def test_scaled_down_weights_stay_admissible(self):
        for t in (1.0, 0.5, 0.1):
            cert = hypocoercivity_certificate(0.05 * t, 0.04 * t, 0.05 * t,
                                              xi=1.0, beta=1.0,
                                              hessian_bound=0.0, lsi_kappa=1.0)
            assert cert.omega > 0.0


class TestKineticEnvelope:
    def cert(self):
        return hypocoercivity_certificate(0.05, 0.04, 0.05, xi=1.0, beta=1.0,
                                          hessian_bound=0.0, lsi_kappa=1.0)

    def test_zero_forcing_decay(self):
        cert = self.cert()
        times = np.linspace(0.0, 5.0, 41)
        bound = kinetic_decay_bound(cert, 0.7, times)
        assert_allclose(bound, 0.7 * np.exp(-cert.omega * times), rtol=1e-12)

    def test_asymptote_with_forcing(self):
        cert = self.cert()
        l1, l2 = 0.2, 0.1
        beta = cert.beta
        plateau = (beta ** 2 * l1 ** 2 / (2.0 * cert.omega ** 2)
                   + beta ** 2 / cert.omega * (cert.c + cert.b / 2.0) * l2 ** 2)
        far = kinetic_decay_bound(cert, 0.7, np.array([0.0, 3000.0]), l1, l2)
        assert_allclose(far[-1], plateau, rtol=1e-10)

    def test_time_dependent_matches_constant_without_forcing(self):
        cert = self.cert()
        times = np.linspace(0.0, 4.0, 81)
        const = kinetic_decay_bound(cert, 0.5, times)
        vari = kinetic_decay_bound_time_dependent(
            cert, 0.5, times, lambda s: cert.omega + 0.0 * s,
            lambda s: 0.0 * s, lambda s: 0.0 * s, tol=1e-12)
        assert np.max(np.abs(const - vari)) <= 1e-8

    def test_time_dependent_is_sharper_under_forcing(self):
        cert = self.cert()
        times = np.linspace(0.0, 4.0, 81)
        const = kinetic_decay_bound(cert, 0.5, times, l1=0.3, l2=0.2)
        vari = kinetic_decay_bound_time_dependent(
            cert, 0.5, times, lambda s: cert.omega + 0.0 * s,
            lambda s: 0.3 + 0.0 * s, lambda s: 0.2 + 0.0 * s, tol=1e-12)
        assert np.all(vari <= const + 1e-12)

    def test_gaussian_energy_respects_envelope(self):
        spec = kin_spec(eta0=1.0, horizon=6.0)
        cert = optimize_omega(1.0, 1.0, 1.0, 1.0)
        times = np.linspace(0.0, 6.0, 121)
        init = GaussianLaw(np.array([1.0, -0.5]), np.diag([0.5, 1.5]))
        laws = langevin_propagator(spec, times).push(init)
        energy = modified_functional_trace(spec, laws, times, cert.a, cert.b,
                                           cert.c)
        envelope = kinetic_decay_bound(cert, energy[0], times)
        assert np.all(energy <= envelope * (1.0 + 1e-6))
        assert energy[0] >= gaussian_kl(init, gibbs_gaussian(spec, 0.0))


class TestOmegaOptimizer:
    def test_returned_point_is_feasible_and_consistent(self):
        cert = optimize_omega(1.0, 1.0, 0.0, 1.0)
        rebuilt = hypocoercivity_certificate(cert.a, cert.b, cert.c, xi=1.0,
                                             beta=1.0, hessian_bound=0.0,
                                             lsi_kappa=1.0)
        assert_allclose(rebuilt.omega, cert.omega, rtol=1e-12)

    def test_dominates_hand_picked_point(self):
        cert = optimize_omega(1.0, 1.0, 0.0, 1.0)
        assert cert.omega >= 0.018546

    def test_feasible_down_to_small_friction(self):
        for xi in (1e-3, 1e-2, 1.0, 1e2):
            cert = optimize_omega(xi, 1.0, 1.0, 1.0, grid_points=15,
                                  refine_starts=3)
            assert cert.omega > 0.0

    def test_empty_feasible_set_reports_rescaling(self):
        with pytest.raises(CertificateInfeasible) as exc:
            optimize_omega(1.0, 1.0, 1e9, 1.0, grid_points=8, refine_starts=1)
        assert "rescal" in str(exc.value)


# The best certified rate, at beta = kappa = 1, of each (friction, curvature
# bound) the CLI optimises: omega-opt, bound-kinetic and omega-scaling, full
# and --quick.  From a 41-point grid scan with 20 refinement starts.
REFERENCE_RATES = {
    (1.0, 0.0): 0.05073120127920673,
    (1.0, 1.0): 0.03443820079465724,
    (0.001, 1.0): 5.9989374236566166e-05,
    (0.0017782794100389228, 1.0): 0.00010662394980204412,
    (0.0021544346900318843, 1.0): 0.00012914631020292746,
    (0.0031622776601683794, 1.0): 0.00018943685320423623,
    (0.004641588833612777, 1.0): 0.0002777884462724996,
    (0.005623413251903491, 1.0): 0.00033633409707232564,
    (0.01, 1.0): 0.0005964019441343848,
    (100.0, 1.0): 0.007501156456794912,
    (177.82794100389228, 1.0): 0.004539336927561902,
    (215.44346900318845, 1.0): 0.00382210126190791,
    (316.2277660168379, 1.0): 0.00269486083034624,
    (464.15888336127773, 1.0): 0.0018884108139135185,
    (562.341325190349, 1.0): 0.0015777324039693433,
    (1000.0, 1.0): 0.0009142904096816444,
}


def cli_omega_cases() -> dict:
    """label -> (quick, friction, curvature bound, grid points, refinement
    starts) of every feasible optimize_omega call the CLI makes."""
    cases = {}
    for quick in (False, True):
        mode = "quick" if quick else "full"
        opt, kin, scaling = ({**DEFAULTS[name], **(QUICK[name] if quick else {})}
                             for name in ("omega-opt", "bound-kinetic", "omega-scaling"))
        for hb in (0.0, 1.0):
            cases[f"omega-opt-{mode}-{hb}"] = (quick, 1.0, hb, opt["grid_points"],
                                               opt["refine_starts"])
        cases[f"bound-kinetic-{mode}"] = (quick, kin["xi"], 1.0, kin["grid_points"],
                                          kin["refine_starts"])
        for lo, hi in ((1e-3, 1e-2), (1e2, 1e3)):
            for xi in np.logspace(math.log10(lo), math.log10(hi), scaling["points"]):
                cases[f"omega-scaling-{mode}-{xi:.4g}"] = (
                    quick, float(xi), 1.0, scaling["grid_points"], scaling["refine_starts"])
    return cases


CLI_OMEGA_CASES = cli_omega_cases()


@pytest.mark.parametrize("quick, xi, hessian_bound, grid_points, refine_starts",
                         CLI_OMEGA_CASES.values(), ids=CLI_OMEGA_CASES.keys())
def test_cli_rates_match_the_reference(quick, xi, hessian_bound, grid_points, refine_starts):
    """Each CLI rate is within 1e-9 (full) or 5e-9 (--quick) of the reference."""
    reference = next(rate for (x, hb), rate in REFERENCE_RATES.items()
                     if hb == hessian_bound and math.isclose(x, xi, rel_tol=1e-12))
    cert = optimize_omega(xi, 1.0, hessian_bound, 1.0, grid_points=grid_points,
                          refine_starts=refine_starts)
    assert abs(cert.omega - reference) <= (5e-9 if quick else 1e-9) * reference


class TestInequalityToolkit:
    def test_identical_laws_all_zero(self):
        p = GaussianLaw(np.array([0.4]), np.array([[1.2]]))
        rep = pinsker_talagrand_report(p, p, kappa=1.0 / 1.2)
        assert rep.tv == 0.0 and rep.w2 == 0.0 and rep.sqrt_two_kl == 0.0
        assert rep.pinsker_ok and rep.talagrand_ok

    def test_unit_translation_saturates_transport_bound(self):
        p = GaussianLaw(np.array([1.0]), np.array([[1.0]]))
        q = GaussianLaw(np.array([0.0]), np.array([[1.0]]))
        rep = pinsker_talagrand_report(p, q, kappa=1.0)
        assert_allclose(rep.w2, 1.0, rtol=1e-14)
        assert_allclose(rep.talagrand_bound, 1.0, rtol=1e-14)
        assert abs(rep.w2 - rep.talagrand_bound) <= 1e-12

    def test_seeded_sweep_holds(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            m = rng.normal(size=2) * 2.0
            s = np.exp(rng.normal(size=2) * 0.5)
            p = GaussianLaw(m[:1], np.array([[s[0] ** 2]]))
            q = GaussianLaw(m[1:], np.array([[s[1] ** 2]]))
            rep = pinsker_talagrand_report(p, q, kappa=1.0 / s[1] ** 2)
            assert rep.pinsker_ok and rep.talagrand_ok

    def test_grid_w2_skips_empty_cells(self):
        """Uniform on [0, 1] u [3, 4] against uniform on [1, 3]: the quantiles
        differ by exactly 1 everywhere, so W2 = 1.  Interpolating the inverse
        CDF across the empty cells would shrink it."""
        p = GridDensity1D(0.0, 4.0, np.array([1.0, 0.0, 0.0, 1.0]))
        q = GridDensity1D(0.0, 4.0, np.array([0.0, 1.0, 1.0, 0.0]))
        assert_allclose(pinsker_talagrand_report(p, q, kappa=1.0).w2, 1.0, rtol=1e-12)

    def test_grid_branch_matches_gaussian_branch(self):
        """N(0.3, 0.8) against N(0, 1), as Gaussian laws and as 2000-cell grids."""
        p = GaussianLaw(np.array([0.3]), np.array([[0.8]]))
        q = GaussianLaw(np.array([0.0]), np.array([[1.0]]))
        x = GridDensity1D.centers(-10.0, 10.0, 2000)[:, None]
        grid = pinsker_talagrand_report(GridDensity1D(-10.0, 10.0, p.pdf(x)),
                                        GridDensity1D(-10.0, 10.0, q.pdf(x)), kappa=1.0)
        exact = pinsker_talagrand_report(p, q, kappa=1.0)
        assert abs(grid.tv - gaussian_tv_1d(p, q)) <= 1e-5
        assert abs(grid.w2 - gaussian_w2(p, q)) <= 1e-5
        assert abs(grid.sqrt_two_kl - exact.sqrt_two_kl) <= 1e-5
        assert grid.pinsker_ok and grid.talagrand_ok
