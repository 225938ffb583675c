"""Residual diagnostics for the boundary's integral equation.

On the stopping boundary the gain equals a terminal-ratio expectation minus a
time integral of the generator image of the value surface over the stopping
region:

    G(t, b(t,j), j) = J(t, b(t,j), j) - integral_t^T K(t, r, b(t,j), j) dr,

with J the expected terminal ratio and K the expectation of LV at the ratio
process, restricted to where it exceeds the boundary.  The kernel uses the
value surface, not the gain: under regime switching the two generator images
differ on the stopping set because other regimes may still be continuing.

This module verifies the equation against the solved surfaces and extracted
boundary; it does not solve it (under regime switching it is not closed in
the boundary alone).  LV comes from the discrete stencil applied to the
stored value surface, interpolated bilinearly in (time, log ratio) at the
sample points, so the residual measures the consistency of the extracted
boundary with the solved surface at Monte Carlo + quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import Boundary
from .markov import derive_seed
from .model import ValidatedModel
from .paths import map_blocks, mean_se, moments
from .value import ValueSurfaces, discrete_generator_image

__all__ = ["VolterraReport", "volterra_residual", "LVInterpolator"]


class LVInterpolator:
    """Bilinear interpolation of the discrete generator image of V.

    The stencil output lives on time nodes 0 .. n_t - 1; queries beyond the
    last stencil time clamp to it, and log-ratios beyond the grid clamp to
    z_max, since values out there are dominated by the far-field linear
    behavior anyway (callers count such samples).
    """

    def __init__(self, surfaces: ValueSurfaces):
        self.grid = surfaces.grid
        self.lv = discrete_generator_image(surfaces).reshape(self.grid.n_t, -1)  # (time, x node * m + regime)

    def __call__(self, r: float, logx: np.ndarray, regime: np.ndarray) -> np.ndarray:
        grid = self.grid
        dt, dz = grid.dt, grid.dz
        tmax = grid.t[grid.n_t - 1]
        rr = min(max(r, 0.0), tmax)
        it = min(int(rr / dt), grid.n_t - 2) if grid.n_t >= 2 else 0
        wt = (rr - grid.t[it]) / dt

        # Work arrays in one allocation, so a step frees few block-sized chunks; i0 indexes (iz, regime).
        (a, b, wz, omw), i0 = np.empty((4, logx.shape[0])), np.empty(logx.shape[0], dtype=np.int64)
        np.divide(np.clip(logx, 0.0, grid.z_max, out=wz), dz, out=wz)
        np.minimum(wz, grid.n_x - 2, out=i0, casting="unsafe")  # truncates, as astype does
        wz -= i0
        i0 *= grid.m
        i0 += regime
        np.subtract(1, wz, out=omw)

        lv0, lv1 = self.lv[it], self.lv[min(it + 1, grid.n_t - 1)]
        np.multiply(lv0.take(i0, out=a, mode="clip"), omw, out=a)
        np.multiply(lv1.take(i0, out=b, mode="clip"), omw, out=b)
        i0 += grid.m
        a += np.multiply(lv0.take(i0, out=omw, mode="clip"), wz, out=omw)
        b += np.multiply(lv1.take(i0, out=omw, mode="clip"), wz, out=omw)
        a *= 1 - wt
        b *= wt
        a += b
        return a


@dataclass
class VolterraReport:
    """Both sides of the boundary equation at reported (time, regime) pairs."""

    t: np.ndarray
    regime: np.ndarray
    lhs: np.ndarray
    J: np.ndarray
    J_se: np.ndarray
    K_integral: np.ndarray
    K_se: np.ndarray
    residual: np.ndarray
    relative_residual: np.ndarray
    n_extrapolated: int = 0

    def median_abs_relative(self) -> float:
        """Median of |relative_residual|; nan for a report with no rows."""
        rel = self.relative_residual
        return float(np.median(np.abs(rel))) if rel.size else float("nan")


def volterra_residual(
    model: ValidatedModel,
    surfaces: ValueSurfaces,
    boundary: Boundary,
    n_paths: int,
    n_quad: int,
    seed,
    report_every: int = 10,
    bridge_max: bool = True,
) -> VolterraReport:
    """Evaluate the boundary equation at every ``report_every``-th time node.

    For each reported (t, j) with a finite boundary level, one path set is
    simulated from (t, b(t,j), j) on the quadrature grid (n_quad trapezoid
    panels); J and the kernel integral share those paths, and the standard
    errors come from the per-path quadrature sums.  Quadrature-node and path
    parallelism both reduce in fixed order via per-(t, j) derived seeds.
    Blocks count their LV samples beyond z_max into ``n_extrapolated``.
    """
    grid = surfaces.grid
    lv = LVInterpolator(surfaces)
    g = surfaces.G.values
    rows = []
    n_extrapolated = 0

    for k in range(0, grid.n_t + 1, report_every):
        t_k = grid.t[k]
        for j in range(grid.m):
            b0 = boundary.b_smoothed[k, j]
            if not np.isfinite(b0):
                continue
            lhs = float(np.interp(np.log(b0), grid.z, g[k, :, j]))
            if k == grid.n_t:
                J_m, J_s, K_m, K_s = float(b0), 0.0, 0.0, 0.0
            else:
                times = np.linspace(t_k, model.T, n_quad + 1)
                weights = np.full(n_quad + 1, (model.T - t_k) / n_quad)
                weights[0] *= 0.5
                weights[-1] *= 0.5
                b_at = boundary.levels_at(times)

                def block(lo, size):
                    kint = np.zeros(size)
                    xlog, b_here, past = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
                    n_over = np.zeros(1, dtype=np.int64)

                    def on_step(q, state, ylog, ymaxlog):
                        np.subtract(ymaxlog, ylog, out=xlog)
                        n_over[0] += np.count_nonzero(np.greater(xlog, grid.z_max, out=past))
                        vals = lv(times[q], xlog, state)
                        np.greater(np.exp(xlog, out=xlog), b_at[q].take(state, out=b_here, mode="clip"), out=past)
                        vals *= past
                        vals *= weights[q]
                        np.add(kint, vals, out=kint)

                    def finish(state, ylog, ymaxlog):
                        return moments(np.exp(ymaxlog - ylog), kint), int(n_over[0])

                    return on_step, finish

                blocks = map_blocks(model, times, j, n_paths, derive_seed(seed, k, j), bridge_max, block, b0)
                (J_m, J_s), (K_m, K_s) = mean_se([stats for stats, _ in blocks], n_paths)
                n_extrapolated += sum(count for _, count in blocks)

            res = lhs - (J_m - K_m)
            rows.append((t_k, j, lhs, J_m, J_s, K_m, K_s, res, res / lhs))

    names = ("t", "regime", "lhs", "J", "J_se", "K_integral", "K_se", "residual", "relative_residual")
    cols = dict(zip(names, np.array(rows, dtype=float).reshape(-1, len(names)).T))
    cols["regime"] = cols["regime"].astype(int)
    return VolterraReport(**cols, n_extrapolated=n_extrapolated)
