"""Numerical solver for selling at the ultimate maximum under regime switching.

The asset follows a geometric Brownian motion whose drift and volatility are
driven by a finite-state Markov chain.  The library computes the gain and
value surfaces of the optimal-prediction stopping problem, extracts the
per-regime stopping boundaries, verifies the boundary's integral equation,
and evaluates stopping policies by simulation.
"""

from .model import (
    BadGeneratorRow,
    ExerciseRegime,
    ModelError,
    NonPositiveHorizon,
    NonPositiveVolatility,
    NotApplicable,
    RegimeModel,
    classify,
    validate,
)
from .grids import Grid, Surface, default_z_max, truncation_tail_bound
from .markov import transition_matrix
from .stepping import GridTooCoarse
from .gain import dG_dx, g_monte_carlo, g_pde, h_level, lg
from .value import ValueSurfaces, discrete_generator_image, solve_value
from .boundary import Boundary, NonMonotoneSlice, check_boundary_monotone, extract_boundary
from .volterra import VolterraReport, volterra_residual
from .strategy import Policy, RegretEstimate, compare_policies

__version__ = "0.1.0"
