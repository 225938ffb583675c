"""Obstacle solver for the optimal-stopping value surface.

V is the infimum of the expected stopped gain, so V <= G with equality on
the stopping set.  Backward induction from V(T, x, j) = x alternates one
linear step of the ratio-process generator

    f_t + y (sigma^2 - mu) f_y + 1/2 sigma^2 y^2 f_yy + sum_i q_ji f(., i)

(log-space advection sigma^2/2 - mu, no reaction) with a nodewise projection
V <- min(V, G).  The reflecting edge at y = 1 carries the normal-reflection
condition dV/dy = 0.

The checks in this module quantify how well the solved surface honors the
structural facts the solution must satisfy: smooth fit across the stopping
boundary, normal reflection at the edge, monotonicity of F = V - G in time
for nonnegative drifts, complementarity (either F = 0 or the generator
residual vanishes), and strict containment of {LG < 0} in the continuation
region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import Boundary
from .grids import Grid, Surface
from .model import NotApplicable, ValidatedModel
from .stepping import BackwardStepper

__all__ = [
    "ValueSurfaces",
    "NotApplicable",
    "solve_value",
    "discrete_generator_image",
    "check_smooth_fit",
    "check_normal_reflection",
    "check_F_monotone_t",
    "complementarity_gap",
    "containment_violations",
]


@dataclass(frozen=True)
class ValueSurfaces:
    """Value, gain and their gap F = V - G on one grid."""

    V: Surface
    G: Surface
    F: Surface
    grid: Grid
    model: ValidatedModel

    @staticmethod
    def value_stepper(model: ValidatedModel, grid: Grid) -> BackwardStepper:
        """The linear step of the value solve: advection sigma^2/2 - mu, no reaction."""
        return BackwardStepper(model, grid, advection=0.5 * model.sigma**2 - model.mu, reaction=np.zeros(model.m))


def solve_value(model: ValidatedModel, grid: Grid, surface_g: Surface) -> ValueSurfaces:
    """Backward sweep with projection onto the obstacle V <= G."""
    stepper = ValueSurfaces.value_stepper(model, grid)
    g = surface_g.values
    v = np.empty_like(g)
    v[-1] = grid.x[:, None]
    for k in range(grid.n_t - 1, -1, -1):
        v[k] = np.minimum(stepper.step(v[k + 1]), g[k])
    f = v - g
    return ValueSurfaces(Surface(v), surface_g, Surface(f), grid, model)


def discrete_generator_image(surfaces: ValueSurfaces) -> np.ndarray:
    """Generator applied to the solved V with the scheme's own stencils.

    Forward difference in time plus the per-regime spatial stencil and the
    exact Q-coupling, on time nodes 0 .. n_t - 1.  Near zero on the
    continuation set by construction; on the stopping set it measures the
    genuine obstacle residual, including cross-regime coupling where the
    other regimes have not stopped.
    """
    grid = surfaces.grid
    stepper = ValueSurfaces.value_stepper(surfaces.model, grid)
    v = surfaces.V.values
    out = np.empty((grid.n_t, grid.n_x, grid.m))
    Q = surfaces.model.Q
    for k in range(grid.n_t):
        out[k] = (v[k + 1] - v[k]) / grid.dt + stepper.apply_spatial(v[k]) + v[k] @ Q.T
    return out


@dataclass(frozen=True)
class SlopeReport:
    """Worst-case one-sided derivative diagnostics per (time, regime)."""

    mismatch: np.ndarray  # (n_t + 1, m); NaN where not measurable
    max_mismatch: float
    n_measured: int


def check_smooth_fit(surfaces: ValueSurfaces, boundary: Boundary) -> SlopeReport:
    """One-sided dV/dy from below vs above the extracted boundary.

    Measured only where the boundary is strictly inside the grid with room
    for a two-node stencil on each side.  The mismatch of a C^1 surface
    shrinks linearly with the spatial step.
    """
    grid = surfaces.grid
    v = surfaces.V.values
    x = grid.x
    n_t1, m = grid.n_t + 1, grid.m
    mism = np.full((n_t1, m), np.nan)
    for j in range(m):
        for k in range(n_t1):
            i = int(boundary.node_index[k, j])
            if i < 2 or i > grid.n_x - 2:
                continue
            below = (v[k, i - 1, j] - v[k, i - 2, j]) / (x[i - 1] - x[i - 2])
            above = (v[k, i + 1, j] - v[k, i, j]) / (x[i + 1] - x[i])
            mism[k, j] = abs(below - above)
    measured = np.isfinite(mism)
    max_m = float(np.nanmax(mism)) if measured.any() else 0.0
    return SlopeReport(mism, max_m, int(measured.sum()))


def check_normal_reflection(surfaces: ValueSurfaces) -> SlopeReport:
    """|dV/dy| at the reflecting edge y = 1, for interior times only.

    The terminal slice is excluded: V(T, y) = y forces slope one there, and
    the scheme enforces the edge condition for strictly interior steps.
    """
    grid = surfaces.grid
    v = surfaces.V.values
    dx0 = grid.x[1] - grid.x[0]
    slopes = np.abs(v[:-1, 1, :] - v[:-1, 0, :]) / dx0
    mism = np.full((grid.n_t + 1, grid.m), np.nan)
    mism[:-1] = slopes
    return SlopeReport(mism, float(slopes.max()), int(slopes.size))


@dataclass(frozen=True)
class MonotoneReport:
    worst_decrease: float
    n_violations: int
    tol: float


def check_F_monotone_t(surfaces: ValueSurfaces, tol: float | None = None) -> MonotoneReport:
    """Assert F is nondecreasing in time, node by node.

    Only meaningful when every drift is nonnegative; refuses otherwise.
    Default tolerance is 1e-6 of the largest gap magnitude.
    """
    if np.any(surfaces.model.mu < 0.0):
        raise NotApplicable("F monotonicity requires all drifts nonnegative")
    f = surfaces.F.values
    if tol is None:
        tol = 1e-6 * float(np.max(np.abs(f)))
    dec = f[:-1] - f[1:]
    return MonotoneReport(float(dec.max()), int(np.sum(dec > tol)), float(tol))


def complementarity_gap(surfaces: ValueSurfaces) -> np.ndarray:
    """Per-node min(|F|, |LV|): zero when either the obstacle binds or the
    linear equation holds, which is the discrete complementarity statement."""
    lv = discrete_generator_image(surfaces)
    f = surfaces.F.values[:-1]
    return np.minimum(np.abs(f), np.abs(lv))


def containment_violations(surfaces: ValueSurfaces, surface_lg: Surface, eps_sign: float) -> np.ndarray:
    """Interior-time nodes where LG < -eps_sign yet the node stops (F >= 0).

    A decidedly negative generator image of the gain marks the continuation
    region.  The projection makes V == G bitwise on the stopping set, so the
    continuation set is exactly {F < 0}; a detection band on F would test a
    stronger claim, since F tends to zero continuously toward the boundary
    and the horizon.  Returns the boolean violation mask over (time node <
    n_t, z node, regime).
    """
    lg_v = surface_lg.values[:-1]
    f = surfaces.F.values[:-1]
    return (lg_v < -eps_sign) & (f >= 0.0)
