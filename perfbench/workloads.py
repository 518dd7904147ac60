"""The benchmark's workloads: user-path CLI calls plus two checked library runs.

A workload is a list of parts.  A part runs once per pass and returns its
checks as ``(name, passed)`` pairs and a digest of its output.  CLI parts run
``noneq.cli.main`` in-process and read back the ``summary.json`` it wrote;
every threshold they apply is the CLI's own.  The two library parts reuse
thresholds that already exist in the repository and set none of their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np

# Package functions are called through their modules, so that the tracer's
# wrappers, which it installs into those modules, see these calls too.
from noneq import cli, control, fokker_planck, gaussian_oracle, reversal
from noneq.model import (BrownianSpec, Constant, DiffusionFactor, LangevinSpec, Linear,
                         QuadraticPotential)
from noneq.rng import BLOCK_SIZE

# Kinetic march: the stiffness ramp of tests/test_fokker_planck.py
# ::test_moments_match_propagator on a coarser grid and step, over the first
# quarter of the ramp, checked against the propagator moments at that test's
# tolerance.
KINETIC_CELLS = (96, 96)
KINETIC_DT = 1e-3
KINETIC_HORIZON = 0.25
KINETIC_RECORDS = 10
KINETIC_MOMENT_TOL = 5e-4


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cli_part(experiment: str, quick: bool = False, overrides: dict | None = None):
    """Run ``noneq <experiment>`` and read its verdicts from ``summary.json``.

    ``quick`` adds the CLI's own ``--quick``; ``overrides`` go in through a
    ``--config`` file, as a user would pass them.
    """

    def run(out, seed):
        argv = [experiment, "--seed", str(seed), "--out", str(out)]
        if quick:
            argv.append("--quick")
        if overrides:
            out.mkdir(parents=True, exist_ok=True)
            config = out / f"{experiment}.yaml"
            config.write_text(json.dumps({"experiments": {experiment: overrides}}))
            argv += ["--config", str(config)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.main(argv)
        raw = (out / experiment / "summary.json").read_bytes()
        checks = [(c["name"], bool(c["pass"])) for c in json.loads(raw)["checks"]]
        return checks, _digest(raw)

    run.__name__ = experiment
    return run


def grid_duality(out, seed):
    """The grid half of reversal-test: backward g-march against the density march."""
    p = cli.DEFAULTS["reversal-test"]
    spec = BrownianSpec(potential=QuadraticPotential(Linear(p["k0"], p["k1"], p["horizon"]),
                                                     Constant(0.0), 1),
                        beta=p["beta"], horizon=p["horizon"],
                        diffusion=DiffusionFactor.isotropic(1, 1.0), gamma_minus=1.0)
    gcontrol = control.solve_g_pde_1d(spec, p["grid_dt"], cells=p["cells"], theta=0.5)
    drift = reversal.grid_drift_identity_check(spec, gcontrol, p["grid_dt"], cells=p["cells"])
    dens = reversal.reverse_density_check(spec, gcontrol, p["grid_dt"], cells=p["cells"])
    checks = [("grid drift identity", drift.max_residual <= p["grid_drift_tol"]),
              ("reverse density factorisation", dens.max_l1 <= p["grid_l1_tol"])]
    return checks, _digest(repr((drift.max_residual, dens.max_l1)).encode())


def kinetic_moments(out, seed):
    """A 2-D kinetic march whose moments must follow the Gaussian propagator."""
    spec = LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), dimension=1),
                        beta=1.0, horizon=KINETIC_HORIZON, xi=1.0)
    init = gaussian_oracle.GaussianLaw(np.array([0.6, -0.3]), np.diag([0.5, 0.8]))
    n_steps = int(round(KINETIC_HORIZON / KINETIC_DT))
    sol = fokker_planck.solve_kinetic_fp_2d(spec, init, dt=KINETIC_DT, cells=KINETIC_CELLS,
                                           radius_std=9.0,
                                           record_every=n_steps // KINETIC_RECORDS)
    laws = gaussian_oracle.langevin_propagator(spec, sol.times).push(init)
    err = 0.0
    for t, law in zip(sol.times, laws):
        mean, cov = sol.density(float(t)).moments()
        err = max(err, float(np.max(np.abs(mean - law.mean))),
                  float(np.max(np.abs(cov - law.cov))))
    checks = [("kinetic moments follow the propagator", err <= KINETIC_MOMENT_TOL)]
    return checks, _digest(repr((err, sol.mass_drift)).encode())


# Two workloads split the package along its layers: "paths" draws paths and
# runs no grid solver or ODE-heavy certificate, "solvers" draws no paths.  A
# pass takes a few seconds on a 2-core machine, so that a run holds enough
# passes for a steady median; README.md says what each part is for.
WORKLOADS = {
    "paths": [
        # two full 16 384-path blocks at the full 1 000 steps: the wide stepper
        cli_part("jarzynski", overrides={"n_paths": 2 * BLOCK_SIZE}),
        # one small block with feedback control, and the kinetic stepper
        cli_part("zero-variance", quick=True),
        cli_part("reversal-test", quick=True),
    ],
    "solvers": [
        cli_part("bound-overdamped", quick=True),
        cli_part("entropy-brownian", quick=True),
        grid_duality,
        kinetic_moments,
        cli_part("omega-opt", quick=True),
        cli_part("omega-scaling", quick=True),
        cli_part("bound-kinetic", quick=True),
        cli_part("entropy-langevin", quick=True),
    ],
}
