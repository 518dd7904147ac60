"""Path simulation for the overdamped and kinetic dynamics.

Both kinds are one SDE, dx = (b + B u) ds + sqrt(2/beta) B dw, with the
drift b = ``spec.drift`` and the noise factor B = ``spec.noise_factor``, and
one Euler-Maruyama step moves either.  Work is accumulated with the midpoint
rule on the explicit time derivative of the potential; the change-of-measure
exponent of a controlled run is accumulated from the *realised* noise
increments, so

    log dP/dP^u = -sqrt(beta/2) int u . dw - (beta/4) int |u|^2 ds

is available per path.  Paths that leave the finite range are flagged and
excluded from statistics; a run fails if more than a small fraction blow up.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, SpecError
from .gaussian_oracle import GaussianLaw
from .model import BrownianSpec, LangevinSpec, gibbs_sampler
from .odes import _step_count, _time_index
from . import rng as rngmod

BLOWUP_FRACTION = 1e-3


@dataclass
class TrajectoryEnsemble:
    """States, cumulative work and change-of-measure exponents on snapshot times."""

    times: np.ndarray        # (S,)
    states: np.ndarray       # (S, N, d)
    work: np.ndarray         # (S, N) cumulative work up to each snapshot
    log_weight: np.ndarray   # (S, N) cumulative Girsanov exponent
    flagged: np.ndarray      # (N,) blow-up flags
    seed: int
    dt: float
    kind: str

    @property
    def n_paths(self) -> int:
        return self.states.shape[1]

    @property
    def terminal_work(self) -> np.ndarray:
        return self.work[-1]

    @property
    def terminal_log_weight(self) -> np.ndarray:
        return self.log_weight[-1]

    def states_at(self, t: float) -> np.ndarray:
        return self.states[_time_index(self.times, t)]

    def finite(self) -> np.ndarray:
        return ~self.flagged

    def to_csv(self, path, every: int = 1):
        """Long-format CSV: one row per stored time per path."""
        d = self.states.shape[2]
        cols = ",".join(f"x{i}" for i in range(d))
        with open(path, "w") as fh:
            fh.write(f"# kind={self.kind} seed={self.seed} dt={self.dt:.12g} "
                     f"units=dimensionless paths={self.n_paths}\n")
            fh.write(f"path,time,{cols},work,log_weight\n")
            for it, t in enumerate(self.times):
                for ip in range(0, self.n_paths, every):
                    xs = ",".join(f"{v:.12g}" for v in self.states[it, ip])
                    fh.write(f"{ip},{t:.12g},{xs},{self.work[it, ip]:.12g},"
                             f"{self.log_weight[it, ip]:.12g}\n")


def _store_indices(store_times, dt, n_steps):
    if store_times is None:
        store_times = [0.0, n_steps * dt]
    idx = []
    for t in store_times:
        k = int(round(t / dt))
        if k < 0 or k > n_steps or abs(k * dt - t) > 1e-9:
            raise SpecError(f"store time {t} is not on the step grid")
        idx.append(k)
    idx = sorted(set(idx))
    return idx, np.array([k * dt for k in idx])


def _resolve_init(spec, init):
    """A sampler ``(gen, size) -> states`` of the initial law, or an array of states.

    The default is the Gibbs law at time 0; for a reversed spec that is the
    Gibbs law of the original potential at the horizon.
    """
    if init is None:
        return gibbs_sampler(spec)
    if isinstance(init, GaussianLaw):
        return lambda gen, size: init.sample(gen, size)
    if callable(init):
        return init
    return np.asarray(init, dtype=float)


def _finalize(store, times, seed, dt, kind):
    states, work, logw = store
    flagged = ~np.all(np.isfinite(states), axis=(0, 2))
    flagged |= ~np.isfinite(work[-1]) | ~np.isfinite(logw[-1])
    frac = flagged.mean()
    if frac > BLOWUP_FRACTION:
        raise BlowUpError(
            f"{flagged.sum()} of {flagged.size} paths blew up "
            f"({100 * frac:.3f}% > {100 * BLOWUP_FRACTION:.3f}%)")
    return TrajectoryEnsemble(times=times, states=states, work=work, log_weight=logw,
                              flagged=flagged, seed=seed, dt=dt, kind=kind)


def _run_blocks(spec, control, span, n_paths, dt, seed, init, store_times=None,
                noise=None, s0=0.0) -> TrajectoryEnsemble:
    """Step every path block of ``spec``, under the feedback ``control`` or
    none, over ``span`` from time ``s0``.

    ``init`` is a sampler ``(gen, size) -> states`` or an ``(n_paths, width)``
    array whose rows ``init[start:stop]`` start the block [start, stop); the
    state width and the noise channel count m are the shape of
    ``spec.noise_factor``.  The step (see ``_step``) is made only after the
    arguments are checked, so a bad ``dt`` or ``noise`` shape raises
    ``SpecError`` before any arithmetic uses it.  Noise is
    ``noise[k, start:stop]`` when injected, else drawn from the block's own
    stream.  A non-finite initial-state array raises ``SpecError``.

    Each block's state, stream and step are made here, on the calling thread;
    the blocks are then stepped on up to one thread per usable CPU, which
    gives the same bits as stepping them in turn.  The stored states, work
    and log-weights are allocated once per run, and each block writes its
    columns ``[start, stop)`` of them in place.
    """
    if n_paths < 1:
        raise SpecError(f"n_paths must be at least 1, got {n_paths}")
    if seed < 0:
        raise SpecError(f"seed must be non-negative, got {seed}")
    width, m = spec.noise_factor(0.0).shape
    n_steps = _step_count(span, dt)
    if noise is not None and np.shape(noise) != (n_steps, n_paths, m):
        raise SpecError(f"noise array has shape {np.shape(noise)}, "
                        f"expected ({n_steps}, {n_paths}, {m})")
    idx, times = _store_indices(store_times, dt, n_steps)
    slot = {k: i for i, k in enumerate(idx)}
    from_array = isinstance(init, np.ndarray)
    if from_array and init.shape != (n_paths, width):
        raise SpecError(f"initial state array has shape {init.shape}, "
                        f"expected ({n_paths}, {width})")
    if from_array and not np.all(np.isfinite(init)):
        raise SpecError("initial state array has non-finite entries")
    build = _step(spec, dt, control)
    store = (np.empty((len(idx), n_paths, width)), np.empty((len(idx), n_paths)),
             np.empty((len(idx), n_paths)))

    blocks = []
    for block, start, stop in rngmod.block_layout(n_paths):
        nb = stop - start
        gen = rngmod.block_generator(seed, block)
        x = init[start:stop] if from_array else \
            np.asarray(init(gen, nb), dtype=float).reshape(nb, width)
        keep = tuple(a[:, start:stop] for a in store)
        blocks.append((start, stop, gen, x, np.zeros(nb), np.zeros(nb),
                       np.empty((nb, m)) if noise is None else None, keep, build(nb)))

    def march(block):
        start, stop, gen, x, w, g, z, keep, step = block
        for k in range(n_steps + 1):
            if k in slot:
                keep[0][slot[k]], keep[1][slot[k]], keep[2][slot[k]] = x, w, g
            if k == n_steps:
                return
            z = gen.standard_normal(out=z) if noise is None else noise[k, start:stop]
            x = step(x, z, s0 + k * dt, w, g)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(blocks), cpus or 1)
    if workers == 1:
        for block in blocks:
            march(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(march, blocks))
    return _finalize(store, times, seed, dt, spec.kind)


def _mul_t(a, mat, out=None):
    """``a @ mat.T``, into ``out`` when it is given; a 1 x 1 ``mat`` multiplies
    by its entry, the same bits without a matmul."""
    if mat.shape == (1, 1):
        return np.multiply(a, mat[0, 0], out=out)
    return np.dot(a, mat.T, out=out)


def _rowsum(a):
    """``a`` summed over its last axis; a single column is read, not summed."""
    return a[:, 0] if a.shape[1] == 1 else np.sum(a, axis=1)


def _power(pot, x, s, out):
    """dV/ds at the points ``x``, which it may overwrite; for a quadratic V
    with one coordinate, into ``out``.  A quadratic V is read as floats at
    time s, in the operation order of its methods: the bits are the same, and
    a step running on a worker thread calls no method of V."""
    if not pot.is_quadratic:
        return pot.dv_ds(x, s)
    c1 = 0.5 * float(pot.k.derivative(s))
    c2 = float(pot.k.value(s)) * float(pot.mu.derivative(s))
    x -= float(pot.mu.value(s))
    if x.shape[1] > 1:
        return c1 * np.sum(x * x, axis=1) - c2 * np.sum(x, axis=1)
    d = x[:, 0]
    out = np.multiply(d, d, out=out)
    out *= c1
    d *= c2
    out -= d
    return out


def _girsanov(g, u, z, beta, dt):
    """Add one step's change-of-measure exponent of the control ``u`` to ``g``."""
    g -= math.sqrt(beta / 2.0) * math.sqrt(dt) * _rowsum(u * z)
    g -= 0.25 * beta * dt * _rowsum(u * u)


def _step(spec, dt: float, control: Optional[Callable]):
    """The builder ``nb -> step`` of the Euler-Maruyama step of either kind
    of spec, optionally controlled:

        x' = x + (b(x, s) + B(s) u) dt + sqrt(2 dt / beta) B(s) z,

    with b = ``spec.drift`` and B = ``spec.noise_factor``.  The step writes
    the next state to one of two buffers that alternate, adds its
    change-of-measure exponent to ``g``, and adds the midpoint work of the
    positions, the first ``spec.dimension`` coordinates, to ``w``.
    """
    pot, n = spec.potential, spec.dimension
    width, m = spec.noise_factor(0.0).shape
    amp = math.sqrt(2.0 * dt / spec.beta)

    def build(nb):
        states = [np.empty((nb, width)), np.empty((nb, width))]
        f, e = np.empty((nb, width)), np.empty(nb)

        def step(x, z, s, w, g):
            out = states[0]
            states.reverse()
            b = spec.noise_factor(s)
            drift = spec.drift(x, s, out=out)
            if control is not None:
                u = np.asarray(control(x, s), dtype=float).reshape(nb, m)
                drift += _mul_t(u, b)
                _girsanov(g, u, z, spec.beta, dt)
            drift *= dt
            np.add(x, drift, out=out)
            kick = _mul_t(z, b, out=f)
            kick *= amp
            out += kick
            mid = np.add(x[:, :n], out[:, :n], out=f[:, :n])
            mid *= 0.5
            w += np.multiply(_power(pot, mid, s + 0.5 * dt, e), dt, out=e)
            return out

        return step

    return build


def simulate_forward(spec: BrownianSpec | LangevinSpec, n_paths: int, dt: float, seed: int = 0,
                     init=None, store_times=None, control: Optional[Callable] = None,
                     noise: Optional[np.ndarray] = None) -> TrajectoryEnsemble:
    """Euler-Maruyama ensemble of either kind of spec on [0, T].

    A kinetic state is stacked (q, p).  ``control`` is a feedback ``u(x, s)``
    valued in the noise space R^m, m the column count of
    ``spec.noise_factor``; the path blocks of a run may call it from several
    threads at once, so it must not mutate shared state.  ``noise`` may
    inject standard-normal increments of shape (K, N, m) for reproducibility
    experiments; otherwise each path block draws its own counter-based
    stream.  The reverse process is ``spec.reversed()``; its default initial
    law is the Gibbs law at the horizon.
    """
    return _run_blocks(spec, control, spec.horizon, n_paths, dt, seed,
                       _resolve_init(spec, init), store_times, noise)
