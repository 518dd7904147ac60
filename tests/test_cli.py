"""Command-line experiment runner: exit codes, artifacts, determinism."""

import ast
import filecmp
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noneq
from noneq.cli import main


def write_config(tmp_path: Path, payload: str) -> str:
    cfg = tmp_path / "config.yaml"
    cfg.write_text(payload)
    return str(cfg)


def read_artifact(out: Path, experiment: str) -> dict:
    path = out / experiment / "summary.json"
    assert path.exists(), f"missing artifact {path}"
    return json.loads(path.read_text())


def last_line_of_fresh_run(script: str) -> str:
    """The last line a new interpreter prints running ``script`` on this package."""
    src = str(Path(noneq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestExitCodes:
    def test_quick_experiment_passes(self, tmp_path):
        assert main(["simulate", "--quick", "--out", str(tmp_path / "a")]) == 0

    def test_unknown_experiment_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                   "experiments:\n  warp-drive:\n    n_paths: 10\n")
        code = main(["simulate", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_unsupported_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "schema_version: 99\n")
        code = main(["simulate", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                   "experiments:\n  jarzynski:\n    warp_factor: 3\n")
        code = main(["jarzynski", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_malformed_yaml_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiments: [unclosed\n")
        code = main(["validate", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 2
        assert "config error: config file is not valid YAML" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--quick", "--seed", "-4",
                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, overrides", [
        ("entropy-brownian", "grid_dt: 0"),
        ("entropy-brownian", "grid_dt: 0.0003"),
        ("bound-overdamped", "dt: 0"),
    ], ids=["grid-dt-zero", "grid-dt-not-dividing", "dt-zero"])
    def test_bad_step_in_config_is_a_config_error(self, tmp_path, capsys, experiment,
                                                  overrides):
        cfg = write_config(tmp_path, f"experiments:\n  {experiment}:\n    {overrides}\n")
        code = main([experiment, "--quick", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 2
        assert "config error: dt" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ("seed: abc\n", "'seed'"),
        ("seed: 1.7\n", "'seed'"),
        ("seed: true\n", "'seed'"),
        ("experiments:\n  jarzynski:\n    n_paths: many\n", "'jarzynski.n_paths'"),
        ("experiments:\n  jarzynski:\n    n_paths: 2000.0\n", "'jarzynski.n_paths'"),
        ("experiments:\n  jarzynski:\n    dt: 4e-3\n", "'jarzynski.dt'"),
        ("experiments:\n  jarzynski:\n    dt: true\n", "'jarzynski.dt'"),
    ], ids=["seed-text", "seed-float", "seed-bool", "int-text", "int-float",
            "float-yaml-string", "float-bool"])
    def test_value_of_the_wrong_type_is_a_config_error(self, tmp_path, capsys, payload, key):
        """Ints where the default is an int, ints or floats where it is a
        float, never a bool; PyYAML reads ``4e-3`` (no dot) as a string."""
        cfg = write_config(tmp_path, payload)
        code = main(["jarzynski", "--quick", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    SPEC = ("spec:\n  schema_version: 1\n  kind: brownian\n  beta: {beta}\n  horizon: 1.0\n"
            "  potential:\n    family: quadratic\n"
            "    stiffness: {{kind: linear, start: 1.0, end: {end}}}\n")

    @pytest.mark.parametrize("experiment, payload, key", [
        ("validate", SPEC.format(beta=1.0, end=".nan"), "'potential.stiffness.end'"),
        ("validate", SPEC.format(beta="abc", end=2.0), "'beta'"),
        ("simulate", "experiments:\n  simulate:\n    horizon: .nan\n", "'simulate.horizon'"),
        ("jarzynski", "experiments:\n  jarzynski:\n    beta: .nan\n", "'jarzynski.beta'"),
        ("zero-variance", "experiments:\n  zero-variance:\n    cv_tol: .inf\n",
         "'zero-variance.cv_tol'"),
    ], ids=["spec-schedule-nan", "spec-beta-text", "horizon-nan", "beta-nan", "tolerance-inf"])
    def test_number_that_is_not_finite_is_a_config_error(self, tmp_path, capsys, experiment,
                                                         payload, key):
        """A NaN, an infinity or a text where a number belongs names its field,
        in the spec as in the experiment parameters."""
        cfg = write_config(tmp_path, payload)
        code = main([experiment, "--quick", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 2
        assert f"config error: {key} must be a finite number" in capsys.readouterr().err

    FIELD = ("spec:\n  schema_version: 1\n  kind: brownian\n  beta: 1.0\n  horizon: 1.0\n"
             "  potential:\n    family: quadratic\n  {field}\n")

    @pytest.mark.parametrize("field, key", [
        ("circulation: [1, 2]", "'circulation'"),
        ("diffusion: constant", "'diffusion'"),
        ("dimension: 3", "'dimension'"),
        ("dimension: abc", "'dimension'"),
        ("dimension: 1.7", "'dimension'"),
        ("diffusion: {family: matrix}", "'diffusion.value'"),
        ("diffusion: {family: matrix, value: [[1, 0], [0]]}", "'diffusion.value'"),
        ("dimension: 2\n  diffusion: {family: matrix, value: [[1.0], [0.5]]}",
         "'diffusion.value'"),
    ], ids=["circulation-list", "diffusion-text", "dimension-3", "dimension-text",
            "dimension-float", "matrix-missing", "matrix-ragged", "matrix-too-few-columns"])
    def test_malformed_spec_field_is_a_config_error(self, tmp_path, capsys, field, key):
        """A spec field of the wrong shape names itself and exits 2, before
        any spec is built; the dimension is the integer 1 or 2."""
        cfg = write_config(tmp_path, self.FIELD.format(field=field))
        code = main(["validate", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 2
        assert f"config error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        "dimension: 2", "diffusion: {family: matrix, value: [[0.5]]}",
        "diffusion: {family: matrix, value: [[1.0, 0.5]]}"])
    def test_well_formed_spec_field_passes(self, tmp_path, field):
        """A matrix diffusion has n rows and at least n columns (noise channels)."""
        cfg = write_config(tmp_path, self.FIELD.format(field=field))
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0

    KINETIC = FIELD.replace("brownian", "langevin")

    @pytest.mark.parametrize("field", ["mass: abc", "mass: {a: 1}", "mass: [[.inf]]",
                                       "mass: [[.nan]]"],
                             ids=["text", "mapping", "infinite", "nan"])
    def test_malformed_mass_is_a_config_error(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, self.KINETIC.format(field=field))
        code = main(["validate", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 2
        assert "config error: 'mass'" in capsys.readouterr().err

    @pytest.mark.parametrize("template, field, key", [
        (FIELD, "foo: 1", "'foo'"),
        (FIELD.replace("quadratic", "quadratic\n    foo: 1"), "", "'foo'"),
        (FIELD, "friction: 1.0", "'friction'"),
        (FIELD, "mass: [[1.0]]", "'mass'"),
        (KINETIC, "diffusion: {family: constant}", "'diffusion'"),
        (KINETIC, "gamma_minus: 0.5", "'gamma_minus'"),
        (KINETIC, "circulation: {family: rotation}", "'circulation'"),
        (FIELD, "circulation: {family: none, rate: 1.0}", "'rate'"),
        (FIELD, "diffusion: {value: 1.0, scale: 2.0}", "'scale'"),
        (FIELD.replace("quadratic", "quadratic\n    stiffness: {{kind: sine, frequncy: 2.0}}"),
         "", "'frequncy'"),
    ], ids=["spec", "potential", "brownian-friction", "brownian-mass", "langevin-diffusion",
            "langevin-gamma-minus", "langevin-circulation", "circulation", "diffusion",
            "schedule"])
    def test_unknown_spec_key_is_a_config_error(self, tmp_path, capsys, template, field, key):
        """Each mapping of a spec refuses the keys it does not read, by name."""
        cfg = write_config(tmp_path, template.format(field=field))
        code = main(["validate", "--config", cfg, "--out", str(tmp_path / "a")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key") and key in err

    def test_config_error_in_a_worker_process_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "experiments:\n  entropy-brownian:\n    grid_dt: 0\n")
        code = main(["all", "--quick", "--jobs", "2", "--config", cfg,
                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert "config error: dt" in capsys.readouterr().err

    def test_unattainable_tolerance_fails_cleanly(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "experiments:\n  zero-variance:\n    cv_tol: 1.0e-9\n")
        code = main(["zero-variance", "--quick", "--config", cfg,
                     "--out", str(tmp_path / "a")])
        assert code == 1
        art = read_artifact(tmp_path / "a", "zero-variance")
        assert art["pass"] is False


class TestArtifacts:
    def test_result_schema(self, tmp_path):
        out = tmp_path / "a"
        assert main(["entropy-brownian", "--quick", "--out", str(out)]) == 0
        art = read_artifact(out, "entropy-brownian")
        assert art["schema_version"] == 1
        assert isinstance(art["seed"], int)
        assert isinstance(art["config_hash"], str) and len(art["config_hash"]) >= 8
        assert art["pass"] is True
        assert art["checks"] and all("threshold" in c and "observed" in c
                                     for c in art["checks"])

    def test_quick_and_full_run_the_same_checks(self, tmp_path):
        quick_out, full_out = tmp_path / "q", tmp_path / "f"
        assert main(["entropy-brownian", "--quick", "--out", str(quick_out)]) == 0
        assert main(["entropy-brownian", "--out", str(full_out)]) == 0
        names_q = [c["name"] for c in
                   read_artifact(quick_out, "entropy-brownian")["checks"]]
        names_f = [c["name"] for c in
                   read_artifact(full_out, "entropy-brownian")["checks"]]
        assert names_q == names_f

    def test_trajectory_csv_carries_metadata(self, tmp_path):
        out = tmp_path / "a"
        assert main(["simulate", "--quick", "--seed", "9",
                     "--out", str(out)]) == 0
        csv = (out / "simulate" / "trajectories.csv").read_text().splitlines()
        assert csv[0].startswith("#")
        assert "seed=9" in csv[0]
        assert "units=dimensionless" in csv[0]
        assert csv[1].startswith("path,time,")

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["jarzynski", "--quick", "--seed", "5",
                         "--out", str(out)]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel


def test_reversal_test_marches_the_reverse_density_once(tmp_path, monkeypatch):
    """Both grid reports of reversal-test come from one reverse march."""
    from noneq import fokker_planck, reversal

    original, calls = fokker_planck.solve_fp_1d, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod in (fokker_planck, reversal):
        monkeypatch.setattr(mod, "solve_fp_1d", counted)
    assert main(["reversal-test", "--quick", "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 1


class TestAggregateRun:
    def test_all_quick_writes_summary(self, tmp_path):
        out = tmp_path / "a"
        assert main(["all", "--quick", "--jobs", "4", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["quick"] is True
        assert len(summary["experiments"]) == 11
        assert all(summary["experiments"].values())

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "noneq.cli", "validate", "--quick",
             "--out", str(tmp_path / "a")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "validate" in proc.stdout

    def test_validate_does_not_load_scipy(self, tmp_path):
        """No run imports scipy, start-up included."""
        script = ("import sys\n"
                  "import noneq.cli\n"
                  f"assert noneq.cli.main(['validate', '--out', {str(tmp_path / 'a')!r}]) == 0\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert last_line_of_fresh_run(script) == "[]"

    def test_path_experiments_do_not_load_scipy(self, tmp_path):
        """Runs that only draw paths and estimate need numpy alone."""
        script = ("import sys\n"
                  "import noneq.cli\n"
                  "for name in ('jarzynski', 'zero-variance'):\n"
                  f"    out = {str(tmp_path)!r} + '/' + name\n"
                  "    assert noneq.cli.main([name, '--quick', '--out', out]) == 0\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert last_line_of_fresh_run(script) == "[]"

    def test_all_experiments_do_not_load_scipy(self, tmp_path):
        """The grid solvers step with numpy's own LAPACK: after every
        experiment, a fresh interpreter holds no scipy module."""
        script = ("import sys\n"
                  "import noneq.cli\n"
                  f"assert noneq.cli.main(['all', '--quick', '--out', {str(tmp_path)!r}]) == 0\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert last_line_of_fresh_run(script) == "[]"

    def test_certificate_experiments_do_not_load_scipy_optimize(self, tmp_path):
        """The certificate optimiser runs on floats: no scipy.optimize import."""
        script = ("import sys\n"
                  "import noneq.cli\n"
                  "for name in ('omega-opt', 'bound-kinetic'):\n"
                  f"    out = {str(tmp_path)!r} + '/' + name\n"
                  "    assert noneq.cli.main([name, '--quick', '--out', out]) == 0\n"
                  "print('scipy.optimize' in sys.modules)\n")
        assert last_line_of_fresh_run(script) == "False"


def loaded_after_fresh_runs(runs) -> list:
    """The ``noneq``, ``yaml`` and ``scipy`` modules a new interpreter holds
    after ``import noneq.cli`` and ``main(argv)`` for each ``(argv, exit code)``
    of ``runs``; an exit through ``SystemExit`` (``--help``) counts too."""
    script = ("import contextlib, io, sys\n"
              "import noneq.cli\n"
              f"for argv, code in {runs!r}:\n"
              "    sink = io.StringIO()\n"
              "    try:\n"
              "        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
              "            got = noneq.cli.main(argv)\n"
              "    except SystemExit as exc:\n"
              "        got = exc.code\n"
              "    assert got == code, (argv, got, sink.getvalue())\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] in ('noneq', 'yaml', 'scipy')))\n")
    return ast.literal_eval(last_line_of_fresh_run(script))


LIGHT = ["noneq", "noneq.cli", "noneq.errors", "noneq.model"]

# perfbench/tracing.py's MODULES: the tracer reads each from sys.modules
TRACED = ("cli", "sde", "fokker_planck", "control", "gaussian_oracle", "odes", "entropy",
          "reversal", "jarzynski", "model")


class TestStartUp:
    """Argument parsing, config checks and validate load no numerical module,
    and pyyaml loads only for --config; the first other run loads them all."""

    def test_validate_help_and_config_errors_stay_light(self, tmp_path):
        out = str(tmp_path / "a")
        runs = [(["validate", "--out", out], 0), (["--help"], 0),
                (["simulate", "--seed", "-1", "--out", out], 2),
                (["warp-drive"], 2)]
        assert loaded_after_fresh_runs(runs) == LIGHT

    def test_config_loads_yaml_only(self, tmp_path):
        out = str(tmp_path / "a")
        good = write_config(tmp_path, "seed: 3\n")
        bad = tmp_path / "bad.yaml"
        bad.write_text("experiments: [unclosed\n")
        runs = [(["validate", "--config", good, "--out", out], 0),
                (["simulate", "--config", str(bad), "--out", out], 2)]
        loaded = loaded_after_fresh_runs(runs)
        assert [m for m in loaded if m.startswith("noneq")] == LIGHT
        assert "yaml" in loaded
        assert not [m for m in loaded if m.startswith("scipy")]

    def test_one_numerical_run_binds_the_whole_library(self, tmp_path):
        """perfbench's tracer reads every traced module after one warm-up pass
        and rebinds the names cli holds; omega-opt uses neither sde nor jarzynski."""
        out = str(tmp_path / "a")
        script = ("import sys\n"
                  "import noneq.cli\n"
                  f"assert noneq.cli.main(['omega-opt', '--quick', '--out', {out!r}]) == 0\n"
                  f"missing = [m for m in {TRACED!r} if 'noneq.' + m not in sys.modules]\n"
                  "from noneq import cli, sde\n"
                  "print(missing, cli.simulate_forward is sde.simulate_forward)\n")
        assert last_line_of_fresh_run(script) == "[] True"


# Every name noneq exports, by home module.
EXPORTED = {
    "errors": ["BlowUpError", "CertificateInfeasible", "ConfigError", "PositivityError",
               "QuadratureError", "SpecError"],
    "model": ["BrownianSpec", "Constant", "DiffusionFactor", "GibbsSnapshot", "LangevinSpec",
              "Linear", "NoCirculation", "PiecewiseFrozen", "QuadraticPotential",
              "RadialLinearCirculation", "RotationCirculation", "Schedule", "Sine",
              "TanhPerturbedPotential", "ValidationReport", "free_energy_difference",
              "gibbs_gaussian", "gibbs_logpdf", "gibbs_sampler", "partition_function",
              "spec_from_config", "validate_spec"],
    "gaussian_oracle": ["FundamentalMatrix", "GaussianLaw", "LangevinPropagator",
                        "QuadraticValueFunction", "gaussian_kl", "gaussian_modified_functional",
                        "gaussian_tv_1d", "gaussian_w2", "gaussian_weighted_fisher",
                        "langevin_propagator", "ou_moments", "ou_moments_path",
                        "riccati_value_function"],
    "sde": ["TrajectoryEnsemble", "simulate_forward"],
    "fokker_planck": ["FPSolution", "GridDensity", "fisher_and_rate_terms", "gibbs_grid",
                      "relative_entropy_grid", "solve_fp_1d", "solve_kinetic_fp_2d"],
    "entropy": ["DecayBound", "EntropyTrace", "HypocoercivityCertificate", "InequalityReport",
                "bakry_emery_kappa", "decay_bound_lipschitz", "decay_bound_supremum",
                "hypocoercivity_certificate", "kinetic_decay_bound",
                "kinetic_decay_bound_time_dependent", "modified_functional_trace",
                "optimize_omega", "pinsker_talagrand_report", "production_rate_check"],
    "control": ["GridControl1D", "feynman_kac_g", "solve_g_pde_1d"],
    "reversal": ["DriftIdentityReport", "LawEquivalenceReport", "ReverseDensityReport",
                 "drift_identity_check", "grid_drift_identity_check",
                 "law_equivalence_test", "reverse_density_check"],
    "jarzynski": ["EstimatorReport", "VarianceReport", "estimate_free_energy_is",
                  "estimate_free_energy_vanilla", "variance_report"],
}


class TestLazySurface:
    def test_every_name_is_its_home_modules_object(self):
        names = [n for group in EXPORTED.values() for n in group]
        assert sorted(noneq.__all__) == sorted(names)
        for module, group in EXPORTED.items():
            home = importlib.import_module(f"noneq.{module}")
            for name in group:
                assert getattr(noneq, name) is getattr(home, name), name

    def test_dir_lists_the_names_and_unknown_names_raise(self):
        assert set(noneq.__all__) <= set(dir(noneq))
        with pytest.raises(AttributeError, match="no attribute 'warp_drive'"):
            noneq.warp_drive  # noqa: B018

    def test_submodules_resolve_as_attributes(self):
        assert noneq.sde is importlib.import_module("noneq.sde")

    def test_bare_import_loads_no_module(self):
        script = ("import sys\n"
                  "import noneq\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'noneq'))\n")
        assert last_line_of_fresh_run(script) == "['noneq']"

    def test_star_import_loads_every_name(self):
        script = ("from noneq import *\n"
                  "print(simulate_forward.__module__, optimize_omega.__module__)\n")
        assert last_line_of_fresh_run(script) == "noneq.sde noneq.entropy"
