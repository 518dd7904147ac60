"""Floors under the path stepper, reported beside ``sde.*`` per path-step.

Both run on one full path block from ``noneq.rng.block_generator``:

* ``rng.philox_ns_per_draw``: Philox ``standard_normal`` alone;
* ``sde.fused_step_ns_per_path_step``: a hand-fused Euler-Maruyama step of
  the ``jarzynski`` OU ramp (k: 1 -> 2 over unit time) with the midpoint work
  increment, into preallocated buffers, draws included.

The stepper cannot beat the first, and the second is what numpy can do per
step with no Python-level overhead beyond one loop iteration.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from noneq.rng import BLOCK_SIZE, block_generator

REPEATS = 5
DRAW_BATCHES = 32
FUSED_STEPS = 200


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def philox_ns_per_draw(seed: int) -> float:
    gen = block_generator(seed, 0)

    def draws():
        for _ in range(DRAW_BATCHES):
            gen.standard_normal((BLOCK_SIZE, 1))

    return 1e9 * _median_time(draws) / (DRAW_BATCHES * BLOCK_SIZE)


def fused_step_ns_per_path_step(seed: int) -> float:
    gen = block_generator(seed, 0)
    dt, beta, k0, rate = 1e-3, 1.0, 1.0, 1.0
    amp = math.sqrt(2.0 * dt / beta)
    x0 = gen.standard_normal(BLOCK_SIZE)

    def steps():
        x, x_new = x0.copy(), np.empty(BLOCK_SIZE)
        mid, w = np.empty(BLOCK_SIZE), np.zeros(BLOCK_SIZE)
        for k in range(FUSED_STEPS):
            stiffness = k0 + rate * k * dt
            gen.standard_normal(out=x_new)
            x_new *= amp
            np.multiply(x, 1.0 - dt * stiffness, out=mid)  # x + dt * (-k x)
            x_new += mid
            # work: dt * dV/ds at the midpoint, dV/ds = rate x^2 / 2
            np.add(x, x_new, out=mid)
            np.square(mid, out=mid)
            mid *= 0.125 * rate * dt
            w += mid
            x, x_new = x_new, x

    return 1e9 * _median_time(steps) / (FUSED_STEPS * BLOCK_SIZE)


def measure_floors(seed: int) -> dict[str, float]:
    return {"rng.philox_ns_per_draw": philox_ns_per_draw(seed),
            "sde.fused_step_ns_per_path_step": fused_step_ns_per_path_step(seed)}
