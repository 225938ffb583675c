"""Pinned numerical constants: tolerances, probe points, golden values.

Everything here was measured once on the default grid (400 log-space nodes,
200 time steps) and frozen, so that later runs regress against fixed numbers
instead of re-deriving their own goalposts.  Change a solver and these values
are the tripwire.
"""

from __future__ import annotations

import numpy as np

from .model import RegimeModel

# ---------------------------------------------------------------------------
# Reference model families (the two-state generator is shared by all three).
# ---------------------------------------------------------------------------

GENERATOR_2STATE = ((-2.5, 2.5), (2.0, -2.0))

# Two-state model with positive drifts and a nontrivial boundary; the regime
# with drift 0.15 also carries the higher volatility 0.5 and a mean sojourn
# of 0.4, the other regime 0.05 / 0.3 / 0.5.
FIGURE_MODEL = dict(mu=(0.15, 0.05), sigma=(0.5, 0.3), Q=GENERATOR_2STATE, T=0.5)
FIGURE_N_T = 100  # time steps pinned for the end-to-end `figure` pipeline

# All drifts nonpositive: stopping immediately is optimal everywhere.
IMMEDIATE_MODEL = dict(mu=(-0.05, -0.1), sigma=(0.3, 0.5), Q=GENERATOR_2STATE, T=0.5)

# Drifts dominate squared volatilities: only the horizon slice stops.
AT_MATURITY_MODEL = dict(mu=(0.3, 0.5), sigma=(0.5, 0.7), Q=GENERATOR_2STATE, T=0.5)

# Single-regime reference (no switching).
SINGLE_MODEL = dict(mu=(0.05,), sigma=(0.3,), Q=((0.0,),), T=1.0)


def make_model(params: dict) -> RegimeModel:
    return RegimeModel(mu=params["mu"], sigma=params["sigma"], Q=params["Q"], T=params["T"])


# ---------------------------------------------------------------------------
# Scheme tolerances (default 400 x 200 grid, figure model).
# ---------------------------------------------------------------------------

# 2 * max over the probe points of |V(400x200) - V(799x400)|; the scheme is
# first order in time, so this is dominated by the dt term.
TOL_SCHEME = 3.42e-4

# Boundary detection tolerance and the sign slack for generator-image tests:
# ten times the scheme tolerance, since sign decisions at scheme-noise scale
# are meaningless.
TOL_ABS_DEFAULT = 10.0 * TOL_SCHEME
EPS_SIGN_DEFAULT = 10.0 * TOL_SCHEME

# Measured max one-sided slope mismatch across the boundary is 13.9 grid
# cells on the default grid and halves with the spatial step; headroom 1.45x.
C_SMOOTH_FIT = 20.0

# Measured max edge slope is 46-47 cells (the slice next to the horizon
# carries a dz/sqrt(dt) layer) and halves with the spatial step.
C_NORMAL_REFLECTION = 65.0

# Measured max time-jump of the smoothed boundary is 0.30 sqrt(dt) in log
# units; headroom 2x.
C_BOUNDARY_CONTINUITY = 0.6

# |lattice - Monte Carlo| <= 3 SE + C * (dz^2 + dt) at the probe points;
# measured constant is about 0.4.
C_PDE_MC = 1.0

# End-to-end slack for |V(0,1,j) - boundary-policy regret|: covers the
# first-order scheme error plus the O(dt) loss from stopping only on the
# simulation grid (measured gap 1.5e-4 at 250 steps).
TOL_POLICY = 2.0e-3

# The at-maturity family must be strictly in continuation on the interior
# box; measured max F there is -1.87e-4 on the default grid.
AT_MATURITY_MARGIN = 1.0e-4

# Max-norm refinement reduction required of a first-order scheme.
RICHARDSON_MIN_FACTOR = 1.7

# ---------------------------------------------------------------------------
# Probe points: (fraction of horizon, ratio level, regime index).
# Both regimes are sampled; for single-regime models collapse j to 0.
# ---------------------------------------------------------------------------

PROBE_POINTS = (
    (0.0, 1.0, 0),
    (0.0, 1.5, 0),
    (0.0, 3.0, 0),
    (0.0, 1.0, 1),
    (0.0, 1.5, 1),
    (0.0, 3.0, 1),
    (0.5, 1.0, 0),
    (0.5, 1.5, 1),
    (0.5, 3.0, 0),
)


def probe_points(model: RegimeModel):
    return tuple((f * model.T, x, min(j, model.m - 1)) for f, x, j in PROBE_POINTS)


# ---------------------------------------------------------------------------
# Golden Monte Carlo values (one million paths, bridge maximum on, seed
# 20260808, recorded at first build).  A same-seed rerun must reproduce them
# bitwise; independent reruns must land inside the confidence band.  J and K
# are what the tests' estimate_J and estimate_K (tests/conftest.py) give.
# ---------------------------------------------------------------------------

GOLDEN_SEED = 20260808

# Gain at (t=0, x=1, first regime) of the figure model.
GOLDEN_GAIN_FIGURE = (1.313826, 0.000287)

# Expected terminal ratio from (t=0, x=1) of the single-regime model.
GOLDEN_J_SINGLE = (1.289622, 0.000256)

# Kernel at (t=0, r=T/2, x=b(0, first regime), first regime) of the figure
# model, boundary extracted at TOL_ABS_DEFAULT.
GOLDEN_K_FIGURE = (0.060696, 0.000069)
GOLDEN_K_LEVEL = 1.384531
