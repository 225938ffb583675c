"""The gain surface: expected payoff of stopping at once.

G(t, x, j) is the conditional expectation of max(x, future max-to-current
ratio) given the regime.  It is computed two independent ways: straight
Monte Carlo over simulated paths, and a backward finite-difference solve of
the coupled system

    mu G + G_t - mu x G_x + 1/2 sigma^2 x^2 G_xx + sum_i q_ji G(., i) = 0

with G(T, x, j) = x, a reflecting edge G_x(t, 1+, j) = 0 and zero curvature
in x at the far end (the surface is asymptotically linear in x).  In
z = log x the per-regime coefficients are diffusion sigma^2/2, advection
-(mu + sigma^2/2) and reaction mu.

From G follow its spatial derivative (a conditional CDF, so clamped to
[0, 1]), the generator image LG = x sigma^2 G_x - mu G, and the per-time sign
level h(t, j) above which LG is nonnegative.
"""

from __future__ import annotations

import numpy as np

from .boundary import upper_set_start
from .grids import Grid, Surface
from .model import RegimeModel
from .paths import mean_se, moments, reduce_terminal
from .stepping import BackwardStepper, Stencil

__all__ = ["g_monte_carlo", "gain_stencil", "g_pde", "dG_dx", "lg", "h_level"]


def g_monte_carlo(
    model: RegimeModel,
    t: float,
    x: float,
    j: int,
    n_paths: int,
    seed,
    n_steps: int = 16,
    bridge_max: bool = True,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the gain at (t, x, j): the mean of max(x, S) at the horizon.

    S is the running maximum of Y from Y = 1 at time t, where paths start at
    ratio x in regime j.  With the bridge maximum on, the sampled running
    maximum has the exact law for any step count, since regime jumps are
    merged with the grid; the default small n_steps just keeps the jump
    bookkeeping shallow.  At t = T the gain is x exactly and no paths are
    simulated.
    """
    if x < 1.0:
        raise ValueError("x must be at least 1")
    if t > model.T:
        raise ValueError("t must not exceed the horizon")
    if t == model.T:
        return float(x), 0.0

    def stats(state, ylog, ymaxlog):
        return moments(np.exp(ymaxlog))

    return mean_se(reduce_terminal(model, t, j, n_paths, n_steps, seed, bridge_max, stats, x0=x), n_paths)[0]


def gain_stencil(model: RegimeModel, grid: Grid) -> Stencil:
    """The gain's spatial operator: advection -(mu + sigma^2/2), reaction mu."""
    return Stencil(model, grid, advection=-(model.mu + 0.5 * model.sigma**2), reaction=model.mu)


def g_pde(model: RegimeModel, grid: Grid) -> Surface:
    """Backward finite-difference solve of the gain surface on the grid."""
    stepper = BackwardStepper(model, gain_stencil(model, grid))
    values = np.empty((grid.n_t + 1, grid.n_x, grid.m))
    values[-1] = grid.x[:, None]
    for k in range(grid.n_t - 1, -1, -1):
        values[k] = stepper.step(values[k + 1])
    return Surface(values)


def dG_dx(surface_g: Surface, grid: Grid) -> Surface:
    """Spatial derivative of the gain in x, clamped to [0, 1].

    Central differences in the interior, one-sided at the far end.  The x = 1
    column carries the reflecting-edge value 0 enforced by the scheme.  The
    fraction of nodes clamped is recorded in ``info["clamp_fraction"]`` as a
    scheme-quality diagnostic (the true derivative is a conditional CDF).
    """
    u = surface_g.values
    x = grid.x
    d = np.empty_like(u)
    # Centered in the price variable: exact (derivative 1) wherever the
    # surface has gone linear in x, which is the whole far field.
    d[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (x[2:] - x[:-2])[None, :, None]
    d[:, -1] = (u[:, -1] - u[:, -2]) / (x[-1] - x[-2])
    d[:, 0] = 0.0
    # Count only violations above the far-field noise floor; everything is
    # still clamped.  Genuine scheme defects show up at 1e-3 and larger.
    clamped = int(np.sum((d < -1e-6) | (d > 1.0 + 1e-6)))
    out = np.clip(d, 0.0, 1.0)
    return Surface(out, info={"clamp_fraction": clamped / d.size})


def lg(surface_g: Surface, surface_dgdx: Surface, model: RegimeModel, grid: Grid) -> Surface:
    """Generator image LG = x sigma^2 dG/dx - mu G, pointwise.

    No re-differencing in time.  On the terminal slice the image is pinned to
    its closed form -mu(j) x: the algebraic combination is discontinuous
    there, because the derivative of the terminal condition is 1 rather than
    the left limit of the exceedance CDF.
    """
    g = surface_g.values
    d = surface_dgdx.values
    x = grid.x[None, :, None]
    sig2 = (model.sigma**2)[None, None, :]
    mu = model.mu[None, None, :]
    out = x * sig2 * d - mu * g
    out[-1] = -model.mu[None, :] * grid.x[:, None]
    return Surface(out)


def h_level(surface_lg: Surface, grid: Grid, j: int, eps_sign: float) -> np.ndarray:
    """Per-time level above which LG stays above -eps_sign at every node.

    Scans each time slice from the top of the grid; returns +inf where even
    the topmost node dips below -eps_sign (the level lies beyond z_max, or
    nowhere).  Sign tests tighter than the scheme tolerance are meaningless,
    hence the eps_sign slack.
    """
    levels = np.append(grid.x, np.inf)  # index n_x: even the top node dips below -eps_sign
    return np.array([levels[upper_set_start(~(row < -eps_sign))] for row in surface_lg.values[:, :, j]])
