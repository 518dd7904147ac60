"""Counter-based random number streams for reproducible path ensembles.

Ensembles are split into fixed-width blocks of paths.  Each block draws its
noise from an independent Philox stream keyed by ``(base_seed, block_index)``,
so a run is bit-identical whether the blocks are processed serially or in
parallel, and adding paths never perturbs the noise of existing full blocks.
A trailing partial block draws ``nb`` normals per step, so its noise changes
when the ensemble grows past it.
"""

from __future__ import annotations

import numpy as np

# Width of a path block.  Part of the reproducibility contract: changing it
# changes the noise assignment, so it is a constant, not a tunable.
BLOCK_SIZE = 16384


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Return the Generator that owns paths [block*BLOCK_SIZE, (block+1)*BLOCK_SIZE)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block_index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_layout(n_paths: int) -> list[tuple[int, int, int]]:
    """Partition ``n_paths`` into blocks: list of (block_index, start, stop)."""
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    spans = []
    start = 0
    block = 0
    while start < n_paths:
        stop = min(start + BLOCK_SIZE, n_paths)
        spans.append((block, start, stop))
        start = stop
        block += 1
    return spans

