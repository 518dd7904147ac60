"""Command-line runner: named experiments with deterministic artifacts.

Each subcommand runs one experiment, writes <out>/<name>/summary.json plus
CSV traces, prints a verdict line, and exits 0 (all checks pass), 1 (a check
failed) or 2 (configuration problem).  Artifacts embed the seed and a hash of
the resolved parameters, never timestamps, so repeated runs with the same
arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import CertificateInfeasible, ConfigError, SpecError
from .model import (BrownianSpec, Constant, DiffusionFactor, LangevinSpec, Linear,
                    QuadraticPotential, RadialLinearCirculation, RotationCirculation,
                    Sine, TanhPerturbedPotential, free_energy_difference, spec_from_config,
                    validate_spec)

# The numerical library names the runners read, by home module.  Argument
# parsing, config checks and `validate` need none of them, so they are bound
# as attributes of this module by _bind_library, on the first other run.
_LIBRARY = {
    "control": ("solve_g_pde_1d",),
    "entropy": ("bakry_emery_kappa", "decay_bound_lipschitz", "decay_bound_supremum",
                "hypocoercivity_certificate", "kinetic_decay_bound",
                "kinetic_decay_bound_time_dependent", "modified_functional_trace",
                "optimize_omega", "production_rate_check"),
    "fokker_planck": ("GridDensity", "_box_from_spec", "gibbs_grid", "solve_fp_1d"),
    "gaussian_oracle": ("GaussianLaw", "langevin_propagator", "ou_moments_path",
                        "riccati_value_function"),
    "jarzynski": ("estimate_free_energy_is", "estimate_free_energy_vanilla",
                  "variance_report"),
    "odes": ("_step_count",),
    "reversal": ("_grid_reversal_reports", "drift_identity_check", "law_equivalence_test"),
    "sde": ("simulate_forward",),
}
_library_bound = False

SCHEMA_VERSION = 1
DEFAULT_SEED = 2026


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if math.isfinite(v) else repr(v)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_json(path: Path, obj: dict):
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, meta: str, header: list, rows):
    with open(path, "w") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (float, np.floating)):
                    cells.append(f"{float(v):.12g}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


def _check(name: str, observed, threshold, comparison: str = "<="):
    observed = float(observed)
    threshold = float(threshold)
    if comparison == "<=":
        ok = observed <= threshold
    elif comparison == ">=":
        ok = observed >= threshold
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return {"name": name, "observed": observed, "threshold": threshold,
            "comparison": comparison, "pass": bool(ok)}


def _check_flag(name: str, ok: bool):
    return {"name": name, "observed": bool(ok), "threshold": True,
            "comparison": "is", "pass": bool(ok)}


# ---------------------------------------------------------------------------
# built-in model builders
# ---------------------------------------------------------------------------

def _ou_spec(k0: float = 1.0, k1: float | None = None, horizon: float = 1.0,
             beta: float = 1.0) -> BrownianSpec:
    sched = Constant(k0) if k1 is None else Linear(k0, k1, horizon)
    return BrownianSpec(potential=QuadraticPotential(sched, Constant(0.0), 1),
                        beta=beta, horizon=horizon,
                        diffusion=DiffusionFactor.isotropic(1, 1.0), gamma_minus=1.0)


def _tanh_spec(amplitude: float = 0.3, horizon: float = 1.0, beta: float = 1.0) -> BrownianSpec:
    return BrownianSpec(potential=TanhPerturbedPotential(Sine(amplitude)),
                        beta=beta, horizon=horizon,
                        diffusion=DiffusionFactor.isotropic(1, 1.0), gamma_minus=1.0)


def _kin_spec(eta0: float = 1.0, eta1: float | None = None, horizon: float = 1.0,
              beta: float = 1.0, xi: float = 1.0, dimension: int = 1,
              mass=None) -> LangevinSpec:
    sched = Constant(eta0) if eta1 is None else Linear(eta0, eta1, horizon)
    return LangevinSpec(potential=QuadraticPotential(sched, Constant(0.0), dimension),
                        beta=beta, horizon=horizon, xi=xi, mass=mass)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_validate(p, out, seed, meta):
    checks = []
    detail = []
    if p.get("spec") is not None:
        spec = spec_from_config(p["spec"])
        rep = validate_spec(spec)
        checks.append(_check_flag("configured spec is well-posed", rep.ok))
        detail.append({"case": "configured", "ok": rep.ok,
                       "stationarity_residual": rep.max_stationarity_residual,
                       "min_gamma_eig": rep.min_gamma_eigenvalue,
                       "messages": rep.messages})
    else:
        ok_1d = validate_spec(_ou_spec(k1=2.0))
        rot = BrownianSpec(potential=QuadraticPotential(Constant(1.0), Constant(0.0), 2),
                           beta=1.0, horizon=1.0, circulation=RotationCirculation(0.7),
                           diffusion=DiffusionFactor.isotropic(2, 1.0), gamma_minus=1.0)
        ok_rot = validate_spec(rot)
        bad = BrownianSpec(potential=QuadraticPotential(Constant(1.0), Constant(0.0), 1),
                           beta=1.0, horizon=1.0, circulation=RadialLinearCirculation(0.5),
                           diffusion=DiffusionFactor.isotropic(1, 1.0), gamma_minus=1.0)
        ok_bad = validate_spec(bad)
        checks.append(_check_flag("gradient system passes", ok_1d.ok))
        checks.append(_check_flag("rotational circulation passes", ok_rot.ok))
        checks.append(_check_flag("radial circulation is rejected", not ok_bad.ok))
        for label, rep in [("gradient-1d", ok_1d), ("rotation-2d", ok_rot),
                           ("radial-1d", ok_bad)]:
            detail.append({"case": label, "ok": rep.ok,
                           "stationarity_residual": rep.max_stationarity_residual,
                           "min_gamma_eig": rep.min_gamma_eigenvalue,
                           "messages": rep.messages})
    return {"checks": checks, "cases": detail}


def run_simulate(p, out, seed, meta):
    spec = _ou_spec(k0=p["stiffness"], horizon=p["horizon"], beta=p["beta"])
    init = GaussianLaw(np.array([p["init_mean"]]), np.array([[p["init_var"]]]))
    store = list(np.linspace(0.0, spec.horizon, 5))
    ens = simulate_forward(spec, p["n_paths"], p["dt"], seed=seed, init=init,
                           store_times=store)
    ens.to_csv(out / "trajectories.csv", every=max(1, p["n_paths"] // 200))
    oracle = ou_moments_path(spec, init, np.asarray(store))
    checks = []
    rows = []
    for t, law in zip(store, oracle):
        xs = ens.states_at(t)[ens.finite()][:, 0]
        n = len(xs)
        mean_gap = abs(xs.mean() - law.mean[0])
        mean_tol = 4.0 * math.sqrt(law.cov[0, 0] / n)
        var_gap = abs(xs.var(ddof=1) - law.cov[0, 0])
        var_tol = 4.0 * math.sqrt(2.0 * law.cov[0, 0] ** 2 / n) + 4.0 * p["dt"]
        rows.append([t, xs.mean(), law.mean[0], xs.var(ddof=1), law.cov[0, 0]])
        checks.append(_check(f"mean matches oracle at s={t:g}", mean_gap, mean_tol))
        checks.append(_check(f"variance matches oracle at s={t:g}", var_gap, var_tol))
    checks.append(_check("work vanishes for a frozen potential",
                         float(np.max(np.abs(ens.terminal_work))), 1e-12))
    _write_csv(out / "moments.csv", meta,
               ["time", "sample_mean", "oracle_mean", "sample_var", "oracle_var"], rows)
    return {"checks": checks, "n_paths": int(ens.finite().sum())}


def run_entropy_brownian(p, out, seed, meta):
    # part 1: all-analytic identity for a quadratic well out of equilibrium
    spec = _ou_spec(k0=1.0, horizon=p["horizon"], beta=p["beta"])
    times = np.linspace(0.0, spec.horizon, p["n_times"])
    init = GaussianLaw(np.array([2.0]), np.array([[0.5]]))
    laws = ou_moments_path(spec, init, times, substeps=8)
    trace = production_rate_check(spec, laws, times)
    _write_csv(out / "analytic_trace.csv", meta,
               ["time", "divergence", "d_divergence_ds", "production_rhs", "residual"],
               zip(trace.times, trace.r, trace.dr_ds, trace.rhs, trace.residual))
    checks = [_check("analytic production-rate residual", trace.max_residual, 1e-6)]

    # part 2: grid monotonicity under a frozen potential with scheduled noise
    grid_spec = BrownianSpec(
        potential=QuadraticPotential(Constant(1.0), Constant(0.0), 1),
        beta=p["beta"], horizon=p["horizon"],
        diffusion=DiffusionFactor.isotropic(1, 1.0, Sine(0.5, 1.0, 1.25)),
        gamma_minus=0.5)
    n_steps = _step_count(grid_spec.horizon, p["grid_dt"])
    sol = solve_fp_1d(grid_spec, GaussianLaw(np.array([1.5]), np.array([[0.3]])),
                      p["grid_dt"], cells=p["cells"], radius_std=10.0,
                      record_every=max(1, n_steps // 100), theta=1.0)
    gtrace = production_rate_check(grid_spec, sol)
    _write_csv(out / "grid_trace.csv", meta,
               ["time", "divergence", "d_divergence_ds", "production_rhs"],
               zip(gtrace.times, gtrace.r, gtrace.dr_ds, gtrace.rhs))
    checks.append(_check("divergence is non-increasing under scheduled noise",
                         gtrace.max_dr, 1e-6))
    return {"checks": checks, "grid_mass_drift": sol.mass_drift}


def run_entropy_langevin(p, out, seed, meta):
    spec = _kin_spec(eta0=1.0, eta1=1.25, horizon=p["horizon"], beta=p["beta"])
    times = np.linspace(0.0, spec.horizon, p["n_times"])
    init = GaussianLaw(np.array([1.2, -0.6]), np.array([[0.6, 0.1], [0.1, 1.4]]))
    laws = ou_moments_path(spec, init, times, substeps=32)
    trace = production_rate_check(spec, laws, times)
    _write_csv(out / "kinetic_trace.csv", meta,
               ["time", "divergence", "d_divergence_ds", "production_rhs", "residual"],
               zip(trace.times, trace.r, trace.dr_ds, trace.rhs, trace.residual))
    checks = [_check("kinetic production-rate residual", trace.max_residual, 1e-5)]

    # determinant identity of the fundamental matrix, n = 1 and n = 2
    for n, mass in ((1, None), (2, np.diag([2.0, 0.5]))):
        dspec = _kin_spec(eta0=1.0, eta1=1.5, horizon=2.0, beta=p["beta"],
                          dimension=n, mass=mass)
        dtimes = np.linspace(0.0, 2.0, 81)
        dprop = langevin_propagator(dspec, dtimes, substeps=64)
        resid = dprop.fundamental.det_identity_residual()
        checks.append(_check(f"flow-map determinant identity (n={n})", resid, 1e-8))
    return {"checks": checks}


def run_bound_overdamped(p, out, seed, meta):
    spec = _tanh_spec(amplitude=p["amplitude"], horizon=p["horizon"], beta=p["beta"])
    lo, hi = _box_from_spec(spec, 10.0)
    init = gibbs_grid(spec, 0.0, GridDensity(((lo, hi),), np.zeros(p["cells"])))
    n_steps = _step_count(spec.horizon, p["dt"])
    sol = solve_fp_1d(spec, init, p["dt"], cells=p["cells"], radius_std=10.0,
                      record_every=max(1, n_steps // 100), theta=0.5)
    trace = production_rate_check(spec, sol)
    amp = p["amplitude"]
    coeff = 4.0 / (3.0 * math.sqrt(3.0))

    def kappa_fn(s):
        return spec.beta * (1.0 - coeff * np.abs(amp * np.sin(np.pi * np.asarray(s))))

    def rate_fn(s):
        return np.abs(amp * np.pi * np.cos(np.pi * np.asarray(s)))

    probe_kappa = bakry_emery_kappa(spec, 0.37)
    b_sup = decay_bound_supremum(trace.times, trace.r[0], spec.beta, 1.0,
                                 kappa_fn, rate_fn)
    b_lip = decay_bound_lipschitz(trace.times, trace.r[0], spec.beta, 1.0,
                                  kappa_fn, rate_fn)
    _write_csv(out / "bound_trace.csv", meta,
               ["time", "divergence", "supremum_bound", "lipschitz_bound"],
               zip(trace.times, trace.r, b_sup.bound, b_lip.bound))
    gap_sup = float(np.max(trace.r - b_sup.bound))
    gap_lip = float(np.max(trace.r - b_lip.bound))
    checks = [
        _check("divergence below supremum-rate envelope", gap_sup, 1e-10),
        _check("divergence below gradient-rate envelope", gap_lip, 1e-10),
        _check("probed convexity constant matches closed form",
               abs(probe_kappa - float(kappa_fn(0.37))), 1e-4),
    ]
    return {"checks": checks, "grid_mass_drift": sol.mass_drift}


def run_bound_kinetic(p, out, seed, meta):
    spec = _kin_spec(eta0=1.0, horizon=p["horizon"], beta=p["beta"], xi=p["xi"])
    cert = optimize_omega(p["xi"], p["beta"], 1.0, 1.0,
                          grid_points=p["grid_points"], refine_starts=p["refine_starts"])
    times = np.linspace(0.0, spec.horizon, p["n_times"])
    init = GaussianLaw(np.array([1.0, -0.5]), np.array([[0.5, 0.05], [0.05, 1.5]]))
    laws = ou_moments_path(spec, init, times, substeps=32)
    energy = modified_functional_trace(spec, laws, times, cert.a, cert.b, cert.c)
    envelope = kinetic_decay_bound(cert, energy[0], times)
    _write_csv(out / "energy_trace.csv", meta,
               ["time", "modified_divergence", "certified_envelope"],
               zip(times, energy, envelope))
    ratio = float(np.max(energy / np.maximum(envelope, 1e-300)))
    time_dep = kinetic_decay_bound_time_dependent(
        cert, energy[0], times, lambda s: cert.omega + 0.0 * np.asarray(s),
        lambda s: 0.0 * np.asarray(s), lambda s: 0.0 * np.asarray(s))
    consistency = float(np.max(np.abs(time_dep - envelope)))
    forced_const = kinetic_decay_bound(cert, energy[0], times, l1=0.3)
    forced_time = kinetic_decay_bound_time_dependent(
        cert, energy[0], times, lambda s: cert.omega + 0.0 * np.asarray(s),
        lambda s: 0.3 + 0.0 * np.asarray(s), lambda s: 0.0 * np.asarray(s))
    ordering = float(np.max(forced_time - forced_const))
    checks = [
        _check("decay envelope holds along the flow", ratio, 1.0 + 1e-6),
        _check("time-dependent envelope matches closed form (no driving)",
               consistency, 1e-8),
        _check("time-dependent envelope is the sharper of the two (driven)",
               ordering, 1e-12),
    ]
    return {"checks": checks,
            "certificate": {"a": cert.a, "b": cert.b, "c": cert.c,
                            "lambda1_tilde": cert.lambda1_tilde,
                            "lambda2": cert.lambda2, "omega": cert.omega}}


def run_jarzynski(p, out, seed, meta):
    spec = _ou_spec(k0=p["k0"], k1=p["k1"], horizon=p["horizon"], beta=p["beta"])
    ens = simulate_forward(spec, p["n_paths"], p["dt"], seed=seed)
    est = estimate_free_energy_vanilla(spec, ens)
    rep = variance_report(est)
    exact = free_energy_difference(spec)
    mean_work = float(np.mean(ens.terminal_work[ens.finite()]))
    checks = [
        _check("exponential-average estimate brackets the closed form",
               abs(est.value - exact), 3.0 * est.stderr),
        _check("sample mean work dominates the estimate (convexity)",
               est.value - mean_work, 1e-12),
    ]
    _write_csv(out / "estimate.csv", meta,
               ["quantity", "value"],
               [["estimate", est.value], ["stderr", est.stderr], ["exact", exact],
                ["mean_work", mean_work], ["cv", rep.cv], ["ess", rep.ess],
                ["n_paths", float(est.n_paths)]])
    return {"checks": checks, "estimate": est.value, "stderr": est.stderr,
            "exact": exact, "cv": rep.cv, "ess": rep.ess}


def run_zero_variance(p, out, seed, meta):
    spec = _ou_spec(k0=p["k0"], k1=p["k1"], horizon=p["horizon"], beta=p["beta"])
    ric = riccati_value_function(spec, np.linspace(0.0, spec.horizon, 201))
    tilted = ric.tilted_initial_law()
    exact = free_energy_difference(spec)
    rows = []
    cvs = []
    for i, dt in enumerate([p["dt"], p["dt"] / 2.0]):
        ens = simulate_forward(spec, p["n_paths"], dt, seed=seed + i, init=tilted,
                               control=ric.control)
        est = estimate_free_energy_is(spec, ens, initial_law=tilted)
        rep = variance_report(est)
        rows.append([dt, est.value, est.stderr, rep.cv, rep.ess])
        cvs.append(rep.cv)
    _write_csv(out / "variance.csv", meta,
               ["dt", "estimate", "stderr", "cv", "ess"], rows)
    checks = [
        _check("coefficient of variation at the base step", cvs[0], p["cv_tol"]),
        _check("halving the step shrinks the variation",
               cvs[1], cvs[0]),
        _check("estimate tracks the closed form", abs(rows[0][1] - exact),
               5.0 * p["dt"]),
    ]
    return {"checks": checks, "exact": exact, "cv_base": cvs[0], "cv_half": cvs[1]}


def run_reversal_test(p, out, seed, meta):
    spec = _ou_spec(k0=p["k0"], k1=p["k1"], horizon=p["horizon"], beta=p["beta"])
    ric = riccati_value_function(spec, np.linspace(0.0, spec.horizon, 201))
    probe_times = np.linspace(0.1, 0.9, 5) * spec.horizon
    drift_rep = drift_identity_check(spec, ric, probe_times)
    law_rep = law_equivalence_test(spec, ric, p["n_paths"], p["dt"], seed=seed)

    kspec = _kin_spec(eta0=1.0, eta1=1.5, horizon=p["horizon"], beta=p["beta"])
    kric = riccati_value_function(kspec, np.linspace(0.0, kspec.horizon, 201))
    kdrift_rep = drift_identity_check(kspec, kric, probe_times)
    klaw_rep = law_equivalence_test(kspec, kric, p["n_paths"], p["dt"], seed=seed + 1)

    gcontrol = solve_g_pde_1d(spec, p["grid_dt"], cells=p["cells"], theta=0.5)
    gdrift_rep, dens_rep = _grid_reversal_reports(spec, gcontrol, p["grid_dt"], p["cells"])

    rows = [[r.time, r.coordinate, r.mean_gap, r.mean_tol, r.var_gap, r.var_tol,
             r.ks_stat, r.ks_crit, int(r.ok)] for r in law_rep.rows + klaw_rep.rows]
    _write_csv(out / "matched_marginals.csv", meta,
               ["time", "coordinate", "mean_gap", "mean_tol", "var_gap", "var_tol",
                "ks_stat", "ks_crit", "ok"], rows)
    checks = [
        _check("overdamped drift identity (analytic)", drift_rep.max_residual, 1e-6),
        _check_flag("overdamped matched marginals", law_rep.ok),
        _check("kinetic drift identity (analytic)", kdrift_rep.max_residual, 1e-6),
        _check_flag("kinetic matched marginals", klaw_rep.ok),
        _check("overdamped drift identity (grid)", gdrift_rep.max_residual,
               p["grid_drift_tol"]),
        _check("reverse density factorisation (grid)", dens_rep.max_l1,
               p["grid_l1_tol"]),
    ]
    return {"checks": checks,
            "marginal_summary": law_rep.summary() + "\n" + klaw_rep.summary()}


def run_omega_opt(p, out, seed, meta):
    hand = hypocoercivity_certificate(0.05, 0.04, 0.05, xi=1.0, beta=1.0,
                                      hessian_bound=0.0, lsi_kappa=1.0)
    lam1_exact = 0.525 - math.sqrt(0.253125)
    omega_exact = 0.5 * lam1_exact / (0.5 + 0.09)
    best_free = optimize_omega(1.0, 1.0, 0.0, 1.0, grid_points=p["grid_points"],
                               refine_starts=p["refine_starts"])
    best_curved = optimize_omega(1.0, 1.0, 1.0, 1.0, grid_points=p["grid_points"],
                                 refine_starts=p["refine_starts"])
    try:
        optimize_omega(1.0, 1.0, 1e9, 1.0, grid_points=p["grid_points"],
                       refine_starts=p["refine_starts"])
        raised = False
    except CertificateInfeasible:
        raised = True
    checks = [
        _check("hand-checked smallest dissipation eigenvalue",
               abs(hand.lambda1_tilde - lam1_exact), 1e-12),
        _check("hand-checked largest weight eigenvalue",
               abs(hand.lambda2 - 0.09), 1e-12),
        _check("hand-checked certified rate", abs(hand.omega - omega_exact), 1e-12),
        _check("optimiser beats the hand certificate", best_free.omega,
               hand.omega, comparison=">="),
        _check_flag("hopeless curvature bound is rejected", raised),
    ]
    return {"checks": checks,
            "hand": {"lambda1_tilde": hand.lambda1_tilde, "lambda2": hand.lambda2,
                     "omega": hand.omega},
            "optimised_flat": {"a": best_free.a, "b": best_free.b, "c": best_free.c,
                               "omega": best_free.omega},
            "optimised_curved": {"a": best_curved.a, "b": best_curved.b,
                                 "c": best_curved.c, "omega": best_curved.omega}}


def run_omega_scaling(p, out, seed, meta):
    def branch(lo, hi):
        xis = np.logspace(math.log10(lo), math.log10(hi), p["points"])
        oms = [optimize_omega(float(x), 1.0, 1.0, 1.0, grid_points=p["grid_points"],
                              refine_starts=p["refine_starts"]).omega for x in xis]
        slope = float(np.polyfit(np.log(xis), np.log(oms), 1)[0])
        return xis, np.asarray(oms), slope

    xis_lo, oms_lo, slope_lo = branch(1e-3, 1e-2)
    xis_hi, oms_hi, slope_hi = branch(1e2, 1e3)
    rows = [[x, o, "low"] for x, o in zip(xis_lo, oms_lo)] + \
           [[x, o, "high"] for x, o in zip(xis_hi, oms_hi)]
    _write_csv(out / "scaling.csv", meta, ["friction", "rate", "branch"], rows)
    checks = [
        _check("small-friction slope is +1", abs(slope_lo - 1.0), p["slope_tol"]),
        _check("large-friction slope is -1", abs(slope_hi + 1.0), p["slope_tol"]),
    ]
    return {"checks": checks, "slope_low": slope_lo, "slope_high": slope_hi}


# ---------------------------------------------------------------------------
# registry, defaults, and dispatch
# ---------------------------------------------------------------------------

DEFAULTS = {
    "validate": {"spec": None},
    "simulate": {"n_paths": 20000, "dt": 1e-3, "horizon": 1.0, "beta": 1.0,
                 "stiffness": 1.0, "init_mean": 1.0, "init_var": 0.25},
    "entropy-brownian": {"horizon": 1.0, "beta": 1.0, "n_times": 401,
                         "grid_dt": 2e-4, "cells": 500},
    "entropy-langevin": {"horizon": 1.0, "beta": 1.0, "n_times": 401},
    "bound-overdamped": {"horizon": 1.0, "beta": 1.0, "amplitude": 0.3,
                         "dt": 2.5e-4, "cells": 1200},
    "bound-kinetic": {"horizon": 10.0, "beta": 1.0, "xi": 1.0, "n_times": 201,
                      "grid_points": 25, "refine_starts": 5},
    "jarzynski": {"n_paths": 100000, "dt": 1e-3, "horizon": 1.0, "beta": 1.0,
                  "k0": 1.0, "k1": 2.0},
    "zero-variance": {"n_paths": 4000, "dt": 1e-3, "horizon": 1.0, "beta": 1.0,
                      "k0": 1.0, "k1": 1.5, "cv_tol": 1e-2},
    "reversal-test": {"n_paths": 20000, "dt": 1e-3, "horizon": 1.0, "beta": 1.0,
                      "k0": 1.0, "k1": 2.0, "grid_dt": 1e-3, "cells": 800,
                      "grid_drift_tol": 2e-2, "grid_l1_tol": 5e-3},
    "omega-opt": {"grid_points": 25, "refine_starts": 5},
    "omega-scaling": {"points": 5, "grid_points": 25, "refine_starts": 5,
                      "slope_tol": 0.15},
}

QUICK = {
    "simulate": {"n_paths": 4000, "dt": 5e-3},
    "entropy-brownian": {"n_times": 161, "grid_dt": 1e-3, "cells": 300},
    "entropy-langevin": {"n_times": 161},
    "bound-overdamped": {"dt": 1e-3, "cells": 400},
    "bound-kinetic": {"n_times": 81, "grid_points": 15, "refine_starts": 3},
    "jarzynski": {"n_paths": 20000, "dt": 4e-3},
    "zero-variance": {"n_paths": 1000, "dt": 4e-3, "cv_tol": 4e-2},
    "reversal-test": {"n_paths": 4000, "dt": 4e-3, "grid_dt": 2e-3, "cells": 400,
                      "grid_drift_tol": 6e-2, "grid_l1_tol": 2e-2},
    "omega-opt": {"grid_points": 15, "refine_starts": 3},
    "omega-scaling": {"points": 4, "grid_points": 15, "refine_starts": 3},
}

RUNNERS = {
    "validate": run_validate,
    "simulate": run_simulate,
    "entropy-brownian": run_entropy_brownian,
    "entropy-langevin": run_entropy_langevin,
    "bound-overdamped": run_bound_overdamped,
    "bound-kinetic": run_bound_kinetic,
    "jarzynski": run_jarzynski,
    "zero-variance": run_zero_variance,
    "reversal-test": run_reversal_test,
    "omega-opt": run_omega_opt,
    "omega-scaling": run_omega_scaling,
}

ORDER = list(RUNNERS)


def _check_type(key: str, value, default):
    """ConfigError unless ``value`` suits a parameter whose default is
    ``default``: an int where the default is an int, an int or a finite float
    where it is a float.  A bool is neither; other defaults are not checked here."""
    allowed = {int: (int,), float: (int, float)}.get(type(default))
    if allowed and (isinstance(value, bool) or not isinstance(value, allowed)
                    or isinstance(value, float) and not math.isfinite(value)):
        kind = "an integer" if allowed == (int,) else "a finite number"
        raise ConfigError(f"{key!r} must be {kind}, got {value!r}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import yaml  # only a --config run reads YAML

    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a mapping")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; "
                          f"expected {SCHEMA_VERSION}")
    stray = set(cfg) - {"schema_version", "seed", "experiments", "spec"}
    if stray:
        raise ConfigError(f"unknown top-level key(s) in config: {sorted(stray)}")
    _check_type("seed", cfg.get("seed", DEFAULT_SEED), DEFAULT_SEED)
    experiments = cfg.get("experiments", {})
    if not isinstance(experiments, dict):
        raise ConfigError("'experiments' must be a mapping")
    for name, overrides in experiments.items():
        if name not in DEFAULTS:
            raise ConfigError(f"unknown experiment {name!r} in config")
        if not isinstance(overrides, dict):
            raise ConfigError(f"overrides for {name!r} must be a mapping")
        unknown = set(overrides) - set(DEFAULTS[name])
        if unknown:
            raise ConfigError(f"unknown parameter(s) for {name!r}: {sorted(unknown)}")
        for key, value in overrides.items():
            _check_type(f"{name}.{key}", value, DEFAULTS[name][key])
    return cfg


def _resolve_params(name: str, cfg: dict, quick: bool) -> dict:
    params = dict(DEFAULTS[name])
    if quick:
        params.update(QUICK.get(name, {}))
    params.update(cfg.get("experiments", {}).get(name, {}))
    if name == "validate" and cfg.get("spec") is not None:
        params["spec"] = cfg["spec"]
    return params


def _bind_library():
    """Import the numerical library once and bind the names in ``_LIBRARY``
    as attributes of this module, where the runners read them."""
    global _library_bound
    if _library_bound:
        return
    namespace = globals()
    for module, names in _LIBRARY.items():
        home = importlib.import_module(f".{module}", __package__)
        for attr in names:
            namespace[attr] = getattr(home, attr)
    _library_bound = True


def _run_one(name: str, cfg: dict, seed: int, quick: bool, out_root: Path):
    if name != "validate":
        _bind_library()
    params = _resolve_params(name, cfg, quick)
    resolved = {"experiment": name, "parameters": params, "seed": seed, "quick": quick}
    chash = hashlib.sha256(
        json.dumps(_jsonable(resolved), sort_keys=True).encode()).hexdigest()[:16]
    out = out_root / name
    out.mkdir(parents=True, exist_ok=True)
    meta = f"experiment={name} config={chash} seed={seed}"
    body = RUNNERS[name](params, out, seed, meta)
    ok = all(c["pass"] for c in body["checks"])
    summary = {"experiment": name, "schema_version": SCHEMA_VERSION,
               "config_hash": chash, "seed": seed, "quick": quick,
               "parameters": params, "pass": ok, **body}
    _write_json(out / "summary.json", summary)
    return ok, summary


def _verdict_line(name: str, ok: bool, summary: dict) -> str:
    n = len(summary["checks"])
    good = sum(1 for c in summary["checks"] if c["pass"])
    flag = "PASS" if ok else "FAIL"
    return f"[{flag}] {name}: {good}/{n} checks"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noneq",
        description="Nonequilibrium diffusion experiments with checked artifacts.")
    parser.add_argument("command", choices=ORDER + ["all"],
                        help="experiment to run, or 'all'")
    parser.add_argument("--config", default=None, help="YAML parameter overrides")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes when running 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="reduced path counts / step counts / resolutions")
    parser.add_argument("--out", default="artifacts", help="artifact directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        out_root = Path(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    names = ORDER if args.command == "all" else [args.command]
    results: dict[str, tuple[bool, dict]] = {}
    try:
        if len(names) > 1 and args.jobs > 1:
            import multiprocessing  # the pool's modules stay off the start-up path
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=args.jobs,
                                     mp_context=multiprocessing.get_context("spawn")) as pool:
                futures = {name: pool.submit(_run_one, name, cfg, seed, args.quick,
                                             out_root) for name in names}
                try:
                    for name in names:
                        results[name] = futures[name].result()
                finally:  # after a failure, start no further experiment
                    pool.shutdown(cancel_futures=True)
        else:
            for name in names:
                results[name] = _run_one(name, cfg, seed, args.quick, out_root)
    except (ConfigError, SpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    for name in names:
        ok, summary = results[name]
        print(_verdict_line(name, ok, summary))
    all_ok = all(ok for ok, _ in results.values())
    if args.command == "all":
        _write_json(out_root / "summary.json",
                    {"schema_version": SCHEMA_VERSION, "seed": seed,
                     "quick": args.quick, "pass": all_ok,
                     "experiments": {n: results[n][0] for n in names}})
        print(f"[{'PASS' if all_ok else 'FAIL'}] all: "
              f"{sum(1 for ok, _ in results.values() if ok)}/{len(names)} experiments")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
