"""Obstacle solver for the optimal-stopping value surface.

V is the infimum of the expected stopped gain, so V <= G with equality on
the stopping set.  Backward induction from V(T, x, j) = x alternates one
linear step of the ratio-process generator

    f_t + y (sigma^2 - mu) f_y + 1/2 sigma^2 y^2 f_yy + sum_i q_ji f(., i)

(log-space advection sigma^2/2 - mu, no reaction) with a nodewise projection
V <- min(V, G).  The reflecting edge at y = 1 carries the normal-reflection
condition dV/dy = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, Surface
from .model import RegimeModel
from .stepping import BackwardStepper, Stencil

__all__ = ["ValueSurfaces", "value_stencil", "solve_value", "discrete_generator_image"]


@dataclass(frozen=True)
class ValueSurfaces:
    """Value, gain and their gap F = V - G on one grid."""

    V: Surface
    G: Surface
    F: Surface
    grid: Grid
    model: RegimeModel


def value_stencil(model: RegimeModel, grid: Grid) -> Stencil:
    """The value solve's spatial operator: advection sigma^2/2 - mu, no reaction."""
    return Stencil(model, grid, advection=0.5 * model.sigma**2 - model.mu, reaction=np.zeros(model.m))


def solve_value(model: RegimeModel, grid: Grid, surface_g: Surface) -> ValueSurfaces:
    """Backward sweep with projection onto the obstacle V <= G."""
    stepper = BackwardStepper(model, value_stencil(model, grid))
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
    stencil = value_stencil(surfaces.model, grid)
    v = surfaces.V.values
    out = np.empty((grid.n_t, grid.n_x, grid.m))
    Q = surfaces.model.Q
    for k in range(grid.n_t):
        out[k] = (v[k + 1] - v[k]) / grid.dt + stencil.apply(v[k]) + v[k] @ Q.T
    return out
