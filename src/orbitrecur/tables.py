"""Row schema shared by experiment curves and the CSV persistence layer.

One row per (n, replicate) cell. `value` is the normalized statistic that
converges to the theoretical target (M_n / log n, or -log m_n / log n);
`aux` is the raw regression ordinate (M_n, or -log m_n). `flag` is one of
"ok", "floor" (reading at or below the precision floor, excluded from fits)
and "resampled" (an endpoint collision forced a redraw; value still valid).
A curve's cells and rows come from one plan (`curve_cells`) and one row
rule (`curve_row`), shared by the curve functions and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rng import derive_seed

FLAGS = ("ok", "floor", "resampled")


@dataclass(frozen=True)
class CurveRow:
    n: int
    replicate: int
    seed: int
    value: float
    aux: float
    flag: str = "ok"

    def __post_init__(self):
        if self.flag not in FLAGS:
            raise ValueError(f"flag must be one of {FLAGS}")


def check_curve(n_grid, replicates: int, min_n: int = 2) -> list[int]:
    """The n grid of a curve as ints; ValueError unless its entries are
    integral, it is non-empty, strictly increasing and starts at min_n or
    above (log n > 0 needs 2), and replicates >= 1."""
    n_grid = list(n_grid)
    if any(int(x) != x for x in n_grid):
        raise ValueError("n_grid entries must be integers")
    n_grid = [int(x) for x in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be non-empty strictly increasing")
    if n_grid[0] < min_n:
        raise ValueError(f"n_grid entries must be >= {min_n}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    return n_grid


def curve_cells(kind: str, n_grid, replicates: int, seed: int,
                min_n: int = 2) -> list[tuple[int, int, int]]:
    """The (n, replicate, seed) of every cell of a curve, in row order: the
    checked grid (check_curve) by replicate, each seed derived from the
    master seed under the curve's kind."""
    return [(n, rep, derive_seed(seed, kind, n, rep))
            for n in check_curve(n_grid, replicates, min_n) for rep in range(replicates)]


def curve_row(n: int, replicate: int, seed: int, aux: float, flag: str = "ok") -> CurveRow:
    """The row of a curve cell: value = aux / log n, infinite for an
    infinite aux."""
    return CurveRow(n, replicate, seed, aux / math.log(n), aux, flag)
