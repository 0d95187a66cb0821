"""Row schema shared by experiment curves and the CSV persistence layer.

One row per (n, replicate) cell. `value` is the normalized statistic that
converges to the theoretical target (M_n / log n, or -log m_n / log n);
`aux` is the raw regression ordinate (M_n, or -log m_n). `flag` is one of
"ok", "floor" (reading at or below the precision floor, excluded from fits)
and "resampled" (an endpoint collision forced a redraw; value still valid).
"""

from __future__ import annotations

from dataclasses import dataclass

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
