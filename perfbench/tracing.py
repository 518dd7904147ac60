"""Spans and counters recorded from outside the package.

The package modules import each other by name (``from .sde import
simulate_forward``), so a wrapper has to replace the function in every
``noneq`` module that holds it, not only in its home module.  ``Tracer``
does that on ``install`` and puts every original back on ``restore``.

A span is ``[name, start, end, parent]``; spans nest through a stack, so a
child always lies inside its parent.  Counts are taken at the same wrapper
from the call's arguments and return value.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from noneq.rng import BLOCK_SIZE


def _steps(horizon, dt):
    return int(round(horizon / dt))


def _count_paths(a, ens, c):
    n, k = a["n_paths"], _steps(a["spec"].horizon, a["dt"])
    name = f"sde.{a['__name__']}"
    # "wide" runs fill at least one path block; "narrow" ones are a single
    # partial block, where per-step overhead outweighs the array arithmetic.
    width = "wide" if n >= BLOCK_SIZE else "narrow"
    c["sde.path_steps"] += n * k
    c[f"{name}.path_steps"] += n * k
    c[f"{name}.{width}.path_steps"] += n * k
    c[f"{name}.{width}.s"] += a["__seconds__"]
    c["sde.blocks"] += math.ceil(n / BLOCK_SIZE)
    c["sde.paths_attempted"] += n
    c["sde.paths_finite"] += int(ens.finite().sum())


def _count_fp_1d(a, sol, c):
    c["fokker_planck.solve_fp_1d.cell_steps"] += a["cells"] * _steps(a["spec"].horizon, a["dt"])
    c["fokker_planck.mass_drift_max"] = max(c["fokker_planck.mass_drift_max"], sol.mass_drift)


def _count_fp_2d(a, sol, c):
    c["fokker_planck.solve_kinetic_fp_2d.steps"] += _steps(a["spec"].horizon, a["dt"])
    c["fokker_planck.mass_drift_max"] = max(c["fokker_planck.mass_drift_max"], sol.mass_drift)


def _count_g_pde(a, _ret, c):
    c["control.solve_g_pde_1d.cell_steps"] += a["cells"] * _steps(a["spec"].horizon, a["dt"])


def _count_rk4(a, _ret, c):
    c["odes.rk4_steps"] += (len(a["times"]) - 1) * a["substeps"]


def _count_ess(a, rep, c):
    c["jarzynski.ess"] += rep.ess
    c["jarzynski.ess_paths"] += rep.n_paths


# The layers are the package's modules.  Block and Philox set-up in rng is
# reached only from sde and is reported there; odes is kept apart from
# gaussian_oracle so that the integrator's share shows on its own.
MODULES = ("cli", "sde", "fokker_planck", "control", "gaussian_oracle", "odes",
           "entropy", "reversal", "jarzynski", "model")

# Every public function of MODULES is spanned under "<module>.<function>",
# except these: some share a name so that they are reported together, some
# are per-step helpers whose spans would cost more than they tell, and one is
# called thousands of times inside Nelder-Mead, so it is counted instead.
GROUPED = {
    "entropy.decay_bound_supremum": "entropy.gronwall",
    "entropy.decay_bound_lipschitz": "entropy.gronwall",
    "entropy.kinetic_decay_bound_time_dependent": "entropy.gronwall",
    "jarzynski.estimate_free_energy_vanilla": "jarzynski.estimate",
    "jarzynski.estimate_free_energy_is": "jarzynski.estimate",
    "jarzynski.variance_report": "jarzynski.estimate",
}
SKIPPED = {"odes.rk4_step"}
COUNTED = {"entropy.hypocoercivity_certificate": "entropy.certificate"}
HOOKS = {
    "sde.simulate_forward": _count_paths,
    "sde.simulate_langevin": _count_paths,
    "fokker_planck.solve_fp_1d": _count_fp_1d,
    "fokker_planck.solve_kinetic_fp_2d": _count_fp_2d,
    "control.solve_g_pde_1d": _count_g_pde,
    "odes.rk4_path": _count_rk4,
    "jarzynski.variance_report": _count_ess,
}

POTENTIAL_METHODS = ("v", "grad", "dv_ds", "hess")


class Tracer:
    """Installs span-recording wrappers into the ``noneq`` modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _spanned(self, fn, name, hook=None):
        sig = inspect.signature(fn) if hook else None
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            counters[f"{name}.calls"] += 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                _, start, end, _ = self.spans[idx]
                hook(dict(bound.arguments, __name__=fn.__name__, __seconds__=end - start),
                     result, counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[f"{name}_evals"] += 1
            result = fn(*args, **kwargs)  # an infeasible certificate raises
            counters[f"{name}_feasible"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "noneq" and not modname.startswith("noneq."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self):
        import noneq.cli  # noqa: F401  (loads every module the CLI uses)
        from noneq import model

        for modname in MODULES:
            mod = sys.modules[f"noneq.{modname}"]
            for attr, fn in list(vars(mod).items()):
                key = f"{modname}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or key in SKIPPED):
                    continue
                if key in COUNTED:
                    self._rebind(fn, self._counted(fn, COUNTED[key]))
                else:
                    self._rebind(fn, self._spanned(fn, GROUPED.get(key, key), HOOKS.get(key)))
        for cls in model.Potential.__subclasses__():
            if cls.__name__.startswith("_"):
                continue  # mirrored potentials delegate to a public one
            for meth in POTENTIAL_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is not None:
                    setattr(cls, meth, self._spanned(fn, "model.potential"))
                    self._restore.append((cls, meth, fn))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


# ---------------------------------------------------------------------------
# reduction of spans to per-layer numbers
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def inclusive_times(spans) -> dict[str, float]:
    """Per span name, the summed duration of spans with no same-named ancestor."""
    out: dict[str, float] = defaultdict(float)
    names = [s[0] for s in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        p = parent
        while p is not None and names[p] != name:
            p = spans[p][3]
        if p is None:
            out[name] += end - start
    return out


def layer_metrics(spans, counters) -> dict[str, float]:
    """The traced per-layer metrics of one pass (0 where a layer did not run)."""
    inc = inclusive_times(spans)
    own = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        by_layer[name.split(".")[0]] += t
    total = sum(by_layer.values())
    c = counters

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    m = {
        "sde.simulate_forward.s": inc["sde.simulate_forward"],
        "sde.simulate_forward.ns_per_path_step": per(
            inc["sde.simulate_forward"], c["sde.simulate_forward.path_steps"], 1e9),
        "sde.simulate_forward.wide_ns_per_path_step": per(
            c["sde.simulate_forward.wide.s"], c["sde.simulate_forward.wide.path_steps"], 1e9),
        "sde.simulate_forward.narrow_ns_per_path_step": per(
            c["sde.simulate_forward.narrow.s"], c["sde.simulate_forward.narrow.path_steps"], 1e9),
        "sde.simulate_langevin.s": inc["sde.simulate_langevin"],
        "sde.simulate_langevin.ns_per_path_step": per(
            inc["sde.simulate_langevin"], c["sde.simulate_langevin.path_steps"], 1e9),
        "sde.path_steps": c["sde.path_steps"],
        "sde.blocks": c["sde.blocks"],
        "sde.finite_path_ratio": per(c["sde.paths_finite"], c["sde.paths_attempted"], 1.0),
        "fokker_planck.solve_fp_1d.s": inc["fokker_planck.solve_fp_1d"],
        "fokker_planck.solve_fp_1d.ns_per_cell_step": per(
            inc["fokker_planck.solve_fp_1d"], c["fokker_planck.solve_fp_1d.cell_steps"], 1e9),
        "fokker_planck.solve_kinetic_fp_2d.s": inc["fokker_planck.solve_kinetic_fp_2d"],
        "fokker_planck.solve_kinetic_fp_2d.ms_per_step": per(
            inc["fokker_planck.solve_kinetic_fp_2d"],
            c["fokker_planck.solve_kinetic_fp_2d.steps"], 1e3),
        "fokker_planck.mass_drift_max": c["fokker_planck.mass_drift_max"],
        "control.solve_g_pde_1d.s": inc["control.solve_g_pde_1d"],
        "control.solve_g_pde_1d.ns_per_cell_step": per(
            inc["control.solve_g_pde_1d"], c["control.solve_g_pde_1d.cell_steps"], 1e9),
        "control.langevin_control_solution.s": inc["control.langevin_control_solution"],
        "gaussian_oracle.riccati_value_function.s": inc["gaussian_oracle.riccati_value_function"],
        "gaussian_oracle.langevin_propagator.s": inc["gaussian_oracle.langevin_propagator"],
        "gaussian_oracle.ou_moments_path.s": inc["gaussian_oracle.ou_moments_path"],
        "odes.rk4_path.s": inc["odes.rk4_path"],
        "odes.rk4_steps": c["odes.rk4_steps"],
        "odes.us_per_rk4_step": per(inc["odes.rk4_path"], c["odes.rk4_steps"], 1e6),
        "entropy.optimize_omega.s": inc["entropy.optimize_omega"],
        "entropy.optimize_omega.calls": c["entropy.optimize_omega.calls"],
        "entropy.certificate_evals": c["entropy.certificate_evals"],
        "entropy.certificate_feasible_ratio": per(
            c["entropy.certificate_feasible"], c["entropy.certificate_evals"], 1.0),
        "entropy.gronwall.s": inc["entropy.gronwall"],
        "reversal.self_s": by_layer["reversal"],
        "jarzynski.estimate.s": inc["jarzynski.estimate"],
        "jarzynski.ess_ratio": per(c["jarzynski.ess"], c["jarzynski.ess_paths"], 1.0),
        "model.potential.calls": c["model.potential.calls"],
        "model.potential.s": inc["model.potential"],
        "cli.self_s": by_layer["cli"],
    }
    for layer in MODULES + ("perfbench",):
        m[f"self_share.{layer}"] = per(by_layer[layer], total, 1.0)
    return m
