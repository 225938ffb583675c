"""Shared pytest wiring: the acceptance gate's per-criterion verdict lines,
the fixture that puts the lattice's tridiagonal solve on its Python replay,
the path recorder and ratio-process oracle the path and policy tests share,
the Monte Carlo estimators of the boundary equation's J and K that the
goldens in ``ultmax.pinned`` are defined by,
the stationary law the regime-limit test reads, the boundary's sentinel
mask the boundary tests share, and the structural checks of a solved value
surface that the value-solver tests and acceptance criteria 7-10 read.
Hypothesis draws the same examples on every run and keeps no example
database."""

import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ultmax import stepping
from ultmax.boundary import Boundary
from ultmax.grids import Surface
from ultmax.model import NotApplicable, ValidatedModel
from ultmax.paths import map_blocks, mean_se, moments, reduce_terminal, terminal_mean
from ultmax.value import ValueSurfaces
from ultmax.volterra import LVInterpolator

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Without a database Hypothesis still caches, best effort, the literals it reads
# from the source files; a home under /dev/null can hold no directory, so none is written.
set_hypothesis_home_dir(os.devnull)

criterion_lines: list[str] = []


@pytest.fixture
def python_replay(monkeypatch):
    """Every ``Tridiagonal`` built in the test solves by its Python replay: the cached dgttrs lookup finds none."""
    monkeypatch.setattr(stepping, "_dgttrs", lambda: None)


@dataclass(frozen=True)
class PathBundle:
    """Recorded paths on a uniform grid, Y normalized to 1 at t0."""

    n_paths: int
    n_steps: int
    times: np.ndarray
    states: np.ndarray   # (n_paths, n_steps + 1) regime indices
    y: np.ndarray        # (n_paths, n_steps + 1) asset level, y[:, 0] = 1
    ymax: np.ndarray     # (n_paths, n_steps + 1) running max of y from t0


def simulate_paths(model, t0, j0, n_paths, n_steps, seed, bridge_max=False) -> PathBundle:
    """Record every step of n_paths from regime j0 and ratio 1 on [t0, T] through ``map_blocks``' ``on_step``."""
    times = np.linspace(t0, model.T, n_steps + 1)
    states = np.empty((n_steps + 1, n_paths), dtype=np.int16)
    y, ymax = np.empty((2, n_steps + 1, n_paths))

    def block(lo, size):
        def record(k, state, ylog, ymaxlog):
            states[k, lo:lo + size], y[k, lo:lo + size], ymax[k, lo:lo + size] = state, ylog, ymaxlog

        return record, lambda *final: None

    map_blocks(model, times, j0, n_paths, seed, bridge_max, block)
    return PathBundle(n_paths, n_steps, times, states.T, np.exp(y).T, np.exp(ymax).T)


# The Monte Carlo estimators of the boundary equation's two terms, one point at a
# time: the goldens in ultmax.pinned are defined as the values they give.
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
    return terminal_mean(model, t, x, j, n_paths, seed, n_steps, bridge_max, ratio=True)


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
    if x < 1.0:
        raise ValueError("x must be at least 1")
    if not t <= r <= model.T:
        raise ValueError("need t <= r <= horizon")
    lv = LVInterpolator(surfaces)
    b_here = boundary.levels_at([r])[0]
    if r == t:
        val = float(lv(t, np.array([np.log(x)]), np.array([j]))[0]) if x > b_here[j] else 0.0
        return val, 0.0

    n_steps = max(1, int(round((r - t) / model.T * 64)))

    def stats(state, ylog, ymaxlog):
        xlog = ymaxlog - ylog
        return moments(lv(r, xlog, state) * (np.exp(xlog) > b_here[state]))

    return mean_se(reduce_terminal(model, t, j, n_paths, n_steps, seed, bridge_max, stats, t_end=r, x0=x), n_paths)[0]


def stationary_distribution(Q) -> np.ndarray:
    """Solve pi Q = 0 with pi summing to one (irreducible chains)."""
    Q = np.asarray(Q, dtype=float)
    A = np.vstack([Q.T, np.ones(Q.shape[0])])
    b = np.zeros(Q.shape[0] + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def lift_to_x(bundle, x0: float) -> np.ndarray:
    """Ratio process of a ``PathBundle`` started at x0 >= 1: max(x0 * y[0], ymax[s]) / y[s]."""
    if x0 < 1.0:
        raise ValueError("x0 must be at least 1")
    return np.maximum(x0 * bundle.y[:, :1], bundle.ymax) / bundle.y


def is_sentinel(boundary) -> np.ndarray:
    """Where a ``Boundary`` holds the +inf sentinel: no stopping node in the slice."""
    return ~np.isfinite(boundary.b_raw)


# How well a solved surface honors the structural facts the solution must
# satisfy: smooth fit across the stopping boundary, normal reflection at the
# edge, monotonicity of F = V - G in time for nonnegative drifts, and strict
# containment of {LG < 0} in the continuation region.

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
