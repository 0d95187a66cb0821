"""Counter-based RNG streams with deterministic per-cell seed derivation.

Every experiment cell (kind, n, replicate) gets its own Philox stream derived
from the master seed, so execution order and parallelism cannot change any
output. The derived 64-bit seed is recorded in manifests and is sufficient on
its own to regenerate the cell.
"""

from __future__ import annotations

import numpy as np

# Stable codes for seed derivation, one per experiment kind; never reorder
# or reuse. Codes 7 and 8 are retired (no seed was derived under them) and
# must not be reused.
KIND_CODES = {
    "match_curve": 1,
    "proximity_curve": 2,
    "d2": 3,
    "h2": 4,
    "diagnostics": 5,
    "returns": 6,
}


def derive_seed(master_seed: int, kind: str, n: int, replicate: int) -> int:
    """Derive the 64-bit seed of one experiment cell.

    Uses numpy's SeedSequence spawning, which is platform-stable. The result
    alone determines the cell's stream (see make_rng).
    """
    if kind not in KIND_CODES:
        raise KeyError(f"unknown experiment kind {kind!r}")
    ss = np.random.SeedSequence(
        entropy=int(master_seed) & ((1 << 64) - 1),
        spawn_key=(KIND_CODES[kind], int(n) & 0xFFFFFFFF, int(replicate) & 0xFFFFFFFF),
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & ((1 << 64) - 1)))
