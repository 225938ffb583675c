"""Extraction of the per-regime stopping boundary from the gap surface.

The stopping region of each (time, regime) slice is the upper set in x where
F = V - G vanishes to within a detection tolerance.  Detection tolerance is a
first-class, reported parameter: near the boundary V and G agree to within
scheme noise, so any fixed threshold trades false stopping nodes against
false continuation nodes.

The raw boundary is refined to sub-cell accuracy by interpolating the
threshold crossing, and a 3-point median filter along time smooths isolated
projection artifacts (deterministic, unlike spline fits).  A +inf sentinel
means no stopping level inside the grid, which distinguishes maturity-only
exercise from truncation once the domain tail bound is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import NotApplicable

__all__ = ["Boundary", "NonMonotoneSlice", "extract_boundary", "check_boundary_monotone", "upper_set_start"]

# Isolated stopping nodes this far below the detected edge are treated as
# projection noise; anything farther flags the slice.
DISLOCATION_NODES = 2


class NonMonotoneSlice(RuntimeError):
    """Stopping nodes fail to form an upper set beyond the noise allowance."""


@dataclass(frozen=True)
class Boundary:
    """Critical stopping levels b(t, j), raw and median-smoothed."""

    b_raw: np.ndarray       # (n_t + 1, m); +inf sentinel
    b_smoothed: np.ndarray  # same shape
    node_index: np.ndarray  # (n_t + 1, m) first stopping node; -1 for sentinel
    grid: Grid

    def levels_at(self, times) -> np.ndarray:
        """Smoothed levels at the latest grid time <= each of ``times``.

        Returns a (len(times), m) array.  The backward-looking step lookup
        never anticipates: with nonincreasing boundaries it errs on the high
        side.
        """
        k = np.searchsorted(self.grid.t, np.asarray(times, dtype=float) + 1e-12, side="right") - 1
        return self.b_smoothed[np.clip(k, 0, self.grid.n_t)]


def _median3(column: np.ndarray) -> np.ndarray:
    """3-point median along a vector, edges repeated."""
    padded = np.concatenate([column[:1], column, column[-1:]])
    stacked = np.stack([padded[:-2], padded[1:-1], padded[2:]])
    return np.median(stacked, axis=0)


def upper_set_start(mask: np.ndarray) -> int:
    """First node of the run of True that ends at the top node; ``len(mask)`` if the top node is False."""
    below = np.flatnonzero(~mask)
    return int(below[-1]) + 1 if below.size else 0


def extract_boundary(surfaces, tol_abs: float) -> Boundary:
    """Locate the smallest level whose whole upper set has F >= -tol_abs.

    Per (time, regime) slice: scan from the top of the grid for the first
    maintained crossing, interpolate the threshold crossing between the last
    continuation node and the first stopping node, and flag slices whose
    stopping nodes are not an upper set beyond the two-node dislocation
    allowance.
    """
    grid: Grid = surfaces.grid
    f = surfaces.F.values
    n_t1, m = grid.n_t + 1, grid.m
    b_raw = np.full((n_t1, m), np.inf)
    node_index = np.full((n_t1, m), -1, dtype=np.int64)

    for j in range(m):
        for k in range(n_t1):
            col = f[k, :, j]
            stopping = col >= -tol_abs
            i_min = upper_set_start(stopping)
            if i_min == grid.n_x:
                continue  # sentinel: even the top node is continuation
            if i_min > DISLOCATION_NODES and stopping[: i_min - DISLOCATION_NODES].any():
                raise NonMonotoneSlice(
                    f"stopping nodes below the detected edge at t-node {k}, regime {j}; "
                    f"numerical noise exceeds tol_abs={tol_abs:.3g}"
                )
            node_index[k, j] = i_min
            if i_min == 0:
                b_raw[k, j] = 1.0
            else:
                f_lo, f_hi = col[i_min - 1], col[i_min]
                frac = (-tol_abs - f_lo) / (f_hi - f_lo)
                b_raw[k, j] = float(np.exp(grid.z[i_min - 1] + frac * grid.dz))

    b_smoothed = np.column_stack([_median3(b_raw[:, j]) for j in range(m)])
    return Boundary(b_raw, b_smoothed, node_index, grid)


@dataclass(frozen=True)
class BoundaryMonotoneReport:
    """Time-monotonicity and discrete-continuity diagnostics per regime."""

    n_violations: int
    max_jump_cells: float         # largest |move| between consecutive times
    max_jump_per_sqrt_dt: float   # continuity metric |db| / sqrt(dt), log scale


def check_boundary_monotone(boundary: Boundary, model) -> BoundaryMonotoneReport:
    """Nonincreasing-in-time check with a one-cell allowance, smoothed curve.

    Sentinels compare as +inf, so a finite level rising back to sentinel is a
    genuine violation while sentinel-to-finite transitions are not.  Refuses
    models with negative drifts, where monotonicity has no backing.
    """
    if np.any(model.mu < 0.0):
        raise NotApplicable("boundary monotonicity requires all drifts nonnegative")
    grid = boundary.grid
    logb = np.log(boundary.b_smoothed)
    sentinel = np.isinf(logb)  # sentinel -> sentinel transitions are flat
    up = np.subtract(logb[1:], logb[:-1], out=np.zeros_like(logb[1:]), where=~(sentinel[1:] & sentinel[:-1]))
    viol = up > grid.dz
    finite_moves = np.abs(up[np.isfinite(up)])
    max_jump = float(finite_moves.max()) if finite_moves.size else 0.0
    return BoundaryMonotoneReport(
        n_violations=int(viol.sum()),
        max_jump_cells=max_jump / grid.dz,
        max_jump_per_sqrt_dt=max_jump / np.sqrt(grid.dt),
    )
