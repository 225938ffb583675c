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

import threading
from dataclasses import dataclass

import numpy as np

from .boundary import Boundary
from .markov import derive_seed
from .model import ValidatedModel
from .paths import map_blocks, mean_se, reduce_terminal
from .value import ValueSurfaces, discrete_generator_image

__all__ = ["VolterraReport", "estimate_J", "estimate_K", "volterra_residual", "LVInterpolator"]


class LVInterpolator:
    """Bilinear interpolation of the discrete generator image of V.

    The stencil output lives on time nodes 0 .. n_t - 1; queries beyond the
    last stencil time clamp to it, and log-ratios beyond the grid clamp to
    z_max with a counter (``n_extrapolated``) since values out there are
    dominated by the far-field linear behavior anyway.
    """

    def __init__(self, surfaces: ValueSurfaces):
        self.grid = surfaces.grid
        self.lv = discrete_generator_image(surfaces)
        self.n_extrapolated = 0
        self._count_lock = threading.Lock()  # Monte Carlo blocks call this concurrently

    def __call__(self, r: float, logx: np.ndarray, regime: np.ndarray) -> np.ndarray:
        grid = self.grid
        dt, dz = grid.dt, grid.dz
        tmax = grid.t[grid.n_t - 1]
        rr = min(max(r, 0.0), tmax)
        it = min(int(rr / dt), grid.n_t - 2) if grid.n_t >= 2 else 0
        wt = (rr - grid.t[it]) / dt

        n_over = int(np.count_nonzero(logx > grid.z_max))
        with self._count_lock:
            self.n_extrapolated += n_over
        zz = np.clip(logx, 0.0, grid.z_max)
        iz = np.minimum((zz / dz).astype(np.int64), grid.n_x - 2)
        wz = zz / dz - iz

        lv0, lv1 = self.lv[it], self.lv[min(it + 1, grid.n_t - 1)]
        a = lv0[iz, regime] * (1 - wz) + lv0[iz + 1, regime] * wz
        b = lv1[iz, regime] * (1 - wz) + lv1[iz + 1, regime] * wz
        return a * (1 - wt) + b * wt


def estimate_J(
    model: ValidatedModel,
    t: float,
    x: float,
    j: int,
    n_paths: int,
    seed,
    n_steps: int = 16,
    bridge_max: bool = True,
) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of the terminal ratio from (t, x, j).

    At t = T the ratio is x itself with zero variance.
    """
    if x < 1.0:
        raise ValueError("x must be at least 1")
    if t == model.T:
        return float(x), 0.0
    logx = np.log(x)

    def stats(state, ylog, ymaxlog):
        xr = np.exp(np.maximum(logx, ymaxlog) - ylog)
        return np.array([xr.sum(), (xr * xr).sum(), xr.shape[0]])

    return mean_se(*np.sum(reduce_terminal(model, t, j, n_paths, n_steps, seed, bridge_max, stats), axis=0))


def estimate_K(
    model: ValidatedModel,
    surfaces: ValueSurfaces,
    boundary: Boundary,
    t: float,
    r: float,
    x: float,
    j: int,
    n_paths: int,
    seed,
    bridge_max: bool = True,
) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of the kernel K(t, r, x, j).

    Simulates the ratio process from (t, x, j) to r and averages the
    interpolated LV over the paths beyond the boundary.  At r = t the value
    is deterministic given the surfaces: LV(t, x, j) if x is past the
    boundary, else 0.
    """
    if not t <= r <= model.T:
        raise ValueError("need t <= r <= horizon")
    lv = LVInterpolator(surfaces)
    b_here = boundary.levels_at([r])[0]
    if r == t:
        val = float(lv(t, np.array([np.log(x)]), np.array([j]))[0]) if x > b_here[j] else 0.0
        return val, 0.0

    logx = np.log(x)
    n_steps = max(1, int(round((r - t) / model.T * 64)))

    def stats(state, ylog, ymaxlog):
        xlog = np.maximum(logx, ymaxlog) - ylog
        vals = lv(r, xlog, state) * (np.exp(xlog) > b_here[state])
        return np.array([vals.sum(), (vals * vals).sum(), vals.shape[0]])

    return mean_se(
        *np.sum(reduce_terminal(model, t, j, n_paths, n_steps, seed, bridge_max, stats, t_end=r), axis=0)
    )


@dataclass
class VolterraReport:
    """Both sides of the boundary equation at reported (time, regime) pairs."""

    t: np.ndarray
    regime: np.ndarray
    level: np.ndarray
    lhs: np.ndarray
    J: np.ndarray
    J_se: np.ndarray
    K_integral: np.ndarray
    K_se: np.ndarray
    residual: np.ndarray
    relative_residual: np.ndarray
    n_extrapolated: int = 0

    def median_abs_relative(self) -> float:
        return float(np.median(np.abs(self.relative_residual)))


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
    """
    grid = surfaces.grid
    lv = LVInterpolator(surfaces)
    g = surfaces.G.values
    rows = []

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
                logb0 = np.log(b0)

                def block(lo, size):
                    kint = np.zeros(size)

                    def on_step(q, state, ylog, ymaxlog):
                        xlog = np.maximum(logb0, ymaxlog) - ylog
                        vals = lv(times[q], xlog, state)
                        vals *= np.exp(xlog) > b_at[q, state]
                        np.add(kint, weights[q] * vals, out=kint)

                    def finish(state, ylog, ymaxlog):
                        xT = np.exp(np.maximum(logb0, ymaxlog) - ylog)
                        return np.array([xT.sum(), (xT * xT).sum(), kint.sum(), (kint * kint).sum(), size])

                    return on_step, finish

                sums = sum(map_blocks(model, times, j, n_paths, derive_seed(seed, k, j), bridge_max, block))
                J_m, J_s = mean_se(sums[0], sums[1], sums[4])
                K_m, K_s = mean_se(sums[2], sums[3], sums[4])

            res = lhs - (J_m - K_m)
            rows.append((t_k, j, b0, lhs, J_m, J_s, K_m, K_s, res, res / lhs))

    names = ("t", "regime", "level", "lhs", "J", "J_se", "K_integral", "K_se", "residual", "relative_residual")
    cols = dict(zip(names, np.array(rows, dtype=float).reshape(-1, len(names)).T))
    cols["regime"] = cols["regime"].astype(int)
    return VolterraReport(**cols, n_extrapolated=lv.n_extrapolated)
