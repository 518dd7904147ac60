"""End-to-end acceptance checks, one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; under plain
pytest the lines still appear for failing criteria.
"""

import math
import time

import numpy as np

from noneq import (
    BrownianSpec,
    Constant,
    GaussianLaw,
    LangevinSpec,
    Linear,
    QuadraticPotential,
    Sine,
    TanhPerturbedPotential,
    bakry_emery_kappa,
    decay_bound_lipschitz,
    decay_bound_supremum,
    drift_identity_check,
    estimate_free_energy_is,
    estimate_free_energy_vanilla,
    free_energy_difference,
    grid_drift_identity_check,
    langevin_propagator,
    law_equivalence_test,
    modified_functional_trace,
    optimize_omega,
    ou_moments_path,
    pinsker_talagrand_report,
    production_rate_check,
    riccati_value_function,
    simulate_forward,
    solve_fp_1d,
    solve_g_pde_1d,
    variance_report,
)
from noneq.model import DiffusionFactor


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    flag = "PASS" if ok else "FAIL"
    line = f"[{flag}] criterion {num:02d}: {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_production_identity_brownian():
    t0 = time.perf_counter()
    spec = BrownianSpec(QuadraticPotential(Constant(1.0), dimension=1),
                        beta=1.0, horizon=1.0)
    times = np.linspace(0.0, 1.0, 401)
    laws = ou_moments_path(spec, GaussianLaw(np.array([2.0]),
                                             np.array([[0.5]])), times)
    trace = production_rate_check(spec, laws, times)
    elapsed = time.perf_counter() - t0
    ok = trace.max_residual <= 1e-6 and elapsed < 5.0
    verdict(1, "entropy production identity, analytic diffusion case", ok,
            f"residual {trace.max_residual:.2e} <= 1e-06, {elapsed:.1f}s < 5s")


def test_criterion_02_production_identity_langevin():
    t0 = time.perf_counter()
    spec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.25, 1.0), dimension=1),
                        beta=1.0, horizon=1.0, xi=1.0)
    times = np.linspace(0.0, 1.0, 401)
    init = GaussianLaw(np.array([0.8, -0.4]), np.diag([0.6, 1.2]))
    laws = langevin_propagator(spec, times).push(init)
    trace = production_rate_check(spec, laws, times)
    elapsed = time.perf_counter() - t0
    ok = trace.max_residual <= 1e-5 and elapsed < 10.0
    verdict(2, "entropy production identity, kinetic propagator case", ok,
            f"residual {trace.max_residual:.2e} <= 1e-05, {elapsed:.1f}s < 10s")


def test_criterion_03_monotone_decay_moving_diffusion():
    spec = BrownianSpec(
        QuadraticPotential(Constant(1.0), dimension=1), beta=1.0, horizon=1.0,
        diffusion=DiffusionFactor.isotropic(1, 1.0, Sine(0.5, 1.0, 1.25)),
        gamma_minus=1.5)
    init = GaussianLaw(np.array([0.5]), np.array([[0.7]]))
    sol = solve_fp_1d(spec, init, dt=1e-3, cells=800, theta=1.0, record_every=5)
    trace = production_rate_check(spec, sol)
    ok = trace.max_dr <= 1e-6
    verdict(3, "divergence decays under a frozen potential, moving noise", ok,
            f"max dR/ds {trace.max_dr:.2e} <= 1e-06 at {len(trace.times)} times")


def test_criterion_04_decay_envelopes_tanh_perturbation():
    t0 = time.perf_counter()
    amp = 0.3
    spec = BrownianSpec(TanhPerturbedPotential(Sine(amp)), beta=1.0,
                        horizon=1.0, gamma_minus=1.0)
    def init(x):  # Gibbs state at s=0, normalised by the solver
        return np.exp(-spec.beta * spec.potential.v(x[:, None], 0.0))

    sol = solve_fp_1d(spec, init, dt=2.5e-4, cells=1200, radius_std=10.0,
                      theta=0.5, record_every=40)
    trace = production_rate_check(spec, sol)
    coeff = 4.0 / (3.0 * math.sqrt(3.0))

    def kappa_fn(s):
        return spec.beta * (1.0 - coeff * np.abs(amp * np.sin(np.pi * np.asarray(s))))

    def rate_fn(s):
        return np.abs(amp * np.pi * np.cos(np.pi * np.asarray(s)))

    sup = decay_bound_supremum(trace.times, trace.r[0], spec.beta, 1.0,
                               kappa_fn, rate_fn)
    lip = decay_bound_lipschitz(trace.times, trace.r[0], spec.beta, 1.0,
                                kappa_fn, rate_fn)
    gap_sup = float(np.max(trace.r - sup.bound))
    gap_lip = float(np.max(trace.r - lip.bound))
    kappa_probe = bakry_emery_kappa(spec, 0.37)
    elapsed = time.perf_counter() - t0
    ok = (gap_sup <= 1e-10 and gap_lip <= 1e-10
          and abs(kappa_probe - float(kappa_fn(0.37))) <= 1e-4
          and elapsed < 60.0)
    verdict(4, "divergence sits below both decay envelopes", ok,
            f"worst gaps {gap_sup:.2e}/{gap_lip:.2e} <= 1e-10, {elapsed:.1f}s < 60s")


def test_criterion_05_flow_determinant_identity():
    residuals = []
    for dim, mass in ((1, None), (2, np.diag([2.0, 0.5]))):
        spec = LangevinSpec(QuadraticPotential(Constant(1.0), dimension=dim),
                            beta=1.0, horizon=2.0, xi=1.0, mass=mass)
        prop = langevin_propagator(spec, np.linspace(0.0, 2.0, 161))
        residuals.append(prop.fundamental.det_identity_residual())
    worst = max(residuals)
    ok = worst <= 1e-8
    verdict(5, "fundamental-matrix determinant identity, n in {1, 2}", ok,
            f"max residual {worst:.2e} <= 1e-08 on s in [0, 2]")


def test_criterion_06_kinetic_exponential_decay():
    t0 = time.perf_counter()
    spec = LangevinSpec(QuadraticPotential(Constant(1.0), dimension=1),
                        beta=1.0, horizon=6.0, xi=1.0)
    cert = optimize_omega(1.0, 1.0, 1.0, 1.0)
    times = np.linspace(0.0, 6.0, 241)
    init = GaussianLaw(np.array([1.0, -0.5]), np.diag([0.5, 1.5]))
    laws = langevin_propagator(spec, times).push(init)
    energy = modified_functional_trace(spec, laws, times, cert.a, cert.b, cert.c)
    envelope = energy[0] * np.exp(-cert.omega * times)
    worst = float(np.max(energy / envelope))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-6 and elapsed < 10.0
    verdict(6, "modified functional decays at the certified rate", ok,
            f"max ratio {worst:.9f} <= 1+1e-06, omega {cert.omega:.4f}, "
            f"{elapsed:.1f}s < 10s")


def test_criterion_07_rate_scaling_in_friction():
    slopes = []
    for lo, hi in ((1e-3, 1e-2), (1e2, 1e3)):
        xis = np.logspace(math.log10(lo), math.log10(hi), 5)
        omegas = [optimize_omega(xi, 1.0, 1.0, 1.0).omega for xi in xis]
        slopes.append(float(np.polyfit(np.log(xis), np.log(omegas), 1)[0]))
    ok = abs(slopes[0] - 1.0) <= 0.15 and abs(slopes[1] + 1.0) <= 0.15
    verdict(7, "certified rate scales like friction at both extremes", ok,
            f"slopes {slopes[0]:+.3f} (target +1) / {slopes[1]:+.3f} (target -1)")


def test_criterion_08_work_estimator_recovers_free_energy():
    t0 = time.perf_counter()
    spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=1),
                        beta=1.0, horizon=1.0)
    ens = simulate_forward(spec, 100000, 1e-3, seed=42)
    rep = estimate_free_energy_vanilla(spec, ens)
    target = 0.5 * math.log(2.0)
    elapsed = time.perf_counter() - t0
    gap = abs(rep.value - target)
    ok = gap <= 3.0 * rep.stderr and elapsed < 60.0
    verdict(8, "exponential-work estimate matches the closed form", ok,
            f"|dF - ln(2)/2| = {gap:.2e} <= 3 x {rep.stderr:.2e}, "
            f"{elapsed:.1f}s < 60s")


def test_criterion_09_flattened_estimator_variance():
    spec = BrownianSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1),
                        beta=1.0, horizon=1.0)
    ric = riccati_value_function(spec, np.linspace(0.0, 1.0, 1001))
    tilted = ric.tilted_initial_law()
    ctl = ric.control
    cvs = []
    for dt in (1e-3, 5e-4):
        ens = simulate_forward(spec, 2000, dt, seed=5, init=tilted, control=ctl)
        rep = estimate_free_energy_is(spec, ens, initial_law=tilted)
        cvs.append(variance_report(rep).cv)
    ok = cvs[0] <= 1e-2 and cvs[1] < cvs[0]
    verdict(9, "steered estimator is near zero-variance and improves with dt",
            ok, f"CV {cvs[0]:.2e} <= 1e-02 at dt=1e-3, {cvs[1]:.2e} at dt=5e-4")


def test_criterion_10_reverse_forward_equivalence():
    t0 = time.perf_counter()
    knots = np.linspace(0.0, 1.0, 21)
    check_times = np.linspace(0.0, 1.0, 11)

    spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=1),
                        beta=1.0, horizon=1.0)
    ric = riccati_value_function(spec, knots)
    law_b = law_equivalence_test(spec, ric, n_paths=20000, dt=1e-3, seed=0)
    drift_b = drift_identity_check(spec, ric, check_times).max_residual

    kspec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1),
                         beta=1.0, horizon=1.0, xi=1.0)
    ksol = riccati_value_function(kspec, knots)
    law_k = law_equivalence_test(kspec, ksol, n_paths=20000, dt=1e-3,
                                         seed=0)
    drift_k = drift_identity_check(kspec, ksol, check_times).max_residual

    grid = solve_g_pde_1d(spec, dt=1e-3, cells=800)
    drift_g = grid_drift_identity_check(spec, grid, dt=1e-3,
                                        cells=800).max_residual
    elapsed = time.perf_counter() - t0
    ok = (law_b.ok and law_k.ok and drift_b <= 1e-6 and drift_k <= 1e-6
          and drift_g <= 2e-2 and elapsed < 120.0)
    verdict(10, "reverse process matches the steered forward process", ok,
            f"marginals ok/ok, drift residuals {drift_b:.1e}/{drift_k:.1e} "
            f"<= 1e-06, grid {drift_g:.1e} <= 2e-02, {elapsed:.0f}s < 120s")


def test_criterion_11_change_of_measure_normalisation():
    spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=1),
                        beta=1.0, horizon=1.0)
    controls = [
        lambda x, s: 0.8 * np.tanh(x),
        lambda x, s: 0.5 * np.cos(2.0 * x),
        lambda x, s: 0.4 * math.sin(math.pi * s) * np.ones_like(x),
    ]
    zs = []
    for ctl in controls:
        ens = simulate_forward(spec, 100000, 2e-3, seed=17, control=ctl)
        w = np.exp(ens.terminal_log_weight)
        se = float(w.std(ddof=1) / math.sqrt(len(w)))
        zs.append(abs(float(w.mean()) - 1.0) / se)
    worst = max(zs)
    ok = worst <= 4.0
    verdict(11, "path reweighting is normalised for bounded feedbacks", ok,
            f"worst |mean-1|/stderr = {worst:.2f} <= 4 over {len(controls)} "
            "controls, N=1e5")


def test_criterion_12_inequality_toolkit():
    rng = np.random.default_rng(7)
    n_ok = 0
    worst_sat = 0.0
    for trial in range(100):
        mean_p, mean_q = rng.normal(size=2) * 2.0
        if trial % 2 == 0:  # translation pair: shared variance
            var = float(np.exp(rng.normal() * 0.5)) ** 2
            p = GaussianLaw(np.array([mean_p]), np.array([[var]]))
            q = GaussianLaw(np.array([mean_q]), np.array([[var]]))
            rep = pinsker_talagrand_report(p, q, kappa=1.0 / var)
            worst_sat = max(worst_sat, abs(rep.w2 - rep.talagrand_bound))
        else:
            sp, sq = np.exp(rng.normal(size=2) * 0.5)
            p = GaussianLaw(np.array([mean_p]), np.array([[sp ** 2]]))
            q = GaussianLaw(np.array([mean_q]), np.array([[sq ** 2]]))
            rep = pinsker_talagrand_report(p, q, kappa=1.0 / sq ** 2)
        n_ok += int(rep.pinsker_ok and rep.talagrand_ok)
    ok = n_ok == 100 and worst_sat <= 1e-12
    verdict(12, "variation/transport inequalities on seeded Gaussian pairs",
            ok, f"{n_ok}/100 pairs ok, translation saturation gap "
            f"{worst_sat:.1e} <= 1e-12")
