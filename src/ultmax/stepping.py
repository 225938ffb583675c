"""Shared one-step backward kernel for the coupled parabolic systems.

Both lattice solvers march u_t + 1/2 sigma^2 u_zz + a u_z + r u + Q-coupling = 0
backward in time on the log grid; they differ only in the per-regime advection
and reaction coefficients.  Each step applies the regime-coupling semigroup
exp(Q dt) exactly (uniformization), then an implicit Euler step of the
per-regime spatial operator, so every solve is tridiagonal.

Boundary rows are built by ghost-node elimination: a reflecting edge
(u_z = 0) at z = 0, and zero curvature in the price variable at z_max
(x^2 f_xx = u_zz - u_z = 0), matching the linear-in-x far field of both
surfaces.  Zero curvature in z itself would contradict the far field
u ~ e^z and drags the top of the grid down by O(1).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from .grids import Grid
from .model import ValidatedModel
from .markov import transition_matrix

__all__ = ["BackwardStepper", "GridTooCoarse", "COUPLING_DT_LIMIT"]

# Splitting accuracy guard on the regime-coupling magnitude per step.
COUPLING_DT_LIMIT = 0.5


class GridTooCoarse(ValueError):
    """Raised when the time step is too large for the split-step coupling."""


class BackwardStepper:
    """Backward Euler stepper, implicit per regime, split regime coupling."""

    def __init__(self, model: ValidatedModel, grid: Grid, advection, reaction):
        coupling = float(np.max(model.jump_rates())) * grid.dt
        if coupling > COUPLING_DT_LIMIT:
            raise GridTooCoarse(
                f"max |q_jj| * dt = {coupling:.3g} exceeds {COUPLING_DT_LIMIT}; refine the time grid"
            )
        self.grid = grid
        self.m = model.m
        self.advection = np.asarray(advection, dtype=float)
        self.reaction = np.asarray(reaction, dtype=float)
        self.diffusion = 0.5 * model.sigma**2
        self.coupling = transition_matrix(model.Q, grid.dt)

        dz, dt = grid.dz, grid.dt
        n = grid.n_x
        self._bands = []
        for j in range(model.m):
            D, a, r = self.diffusion[j], self.advection[j], self.reaction[j]
            lo = np.full(n, -dt * (D / dz**2 - a / (2 * dz)))
            di = np.full(n, 1.0 + dt * (2 * D / dz**2 - r))
            up = np.full(n, -dt * (D / dz**2 + a / (2 * dz)))
            # z = 0: ghost reflection u_{-1} = u_1 kills the advection term.
            di[0] = 1.0 + dt * (2 * D / dz**2 - r)
            up[0] = -dt * (2 * D / dz**2)
            # z_max: ghost chosen so u_zz = u_z (zero curvature in x); both
            # collapse to g * (u_{N-1} - u_{N-2}) / dz.
            g_edge = 1.0 / (1.0 - 0.5 * dz)
            lo[-1] = dt * (D + a) * g_edge / dz
            di[-1] = 1.0 - dt * ((D + a) * g_edge / dz + r)
            ab = np.zeros((3, n))
            ab[0, 1:] = up[:-1]
            ab[1, :] = di
            ab[2, :-1] = lo[1:]
            self._bands.append(ab)

    def step(self, values: np.ndarray) -> np.ndarray:
        """Map the (n_x, m) slice at t_{k+1} to the slice at t_k."""
        coupled = values @ self.coupling.T
        out = np.empty_like(values)
        for j in range(self.m):
            out[:, j] = solve_banded((1, 1), self._bands[j], coupled[:, j])
        return out

    def apply_spatial(self, values: np.ndarray) -> np.ndarray:
        """Discrete per-regime spatial operator (no time or Q terms).

        Uses the same stencil rows as the implicit matrices, so residuals
        measured with it are consistent with what the stepper solved.
        """
        grid = self.grid
        dz = grid.dz
        out = np.empty_like(values)
        for j in range(self.m):
            D, a, r = self.diffusion[j], self.advection[j], self.reaction[j]
            u = values[:, j]
            res = np.empty_like(u)
            res[1:-1] = (
                D * (u[2:] - 2 * u[1:-1] + u[:-2]) / dz**2
                + a * (u[2:] - u[:-2]) / (2 * dz)
                + r * u[1:-1]
            )
            res[0] = D * (2 * u[1] - 2 * u[0]) / dz**2 + r * u[0]
            g_edge = 1.0 / (1.0 - 0.5 * dz)
            res[-1] = (D + a) * g_edge * (u[-1] - u[-2]) / dz + r * u[-1]
            out[:, j] = res
        return out
