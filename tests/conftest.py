"""Shared pytest wiring: the acceptance gate's per-criterion verdict lines,
the path recorder and ratio-process oracle the path and policy tests share,
the stationary law the regime-limit test reads, and the boundary's sentinel
mask the boundary tests share.  Hypothesis draws the same examples on every
run and keeps no example database."""

import os
from dataclasses import dataclass

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ultmax.paths import map_blocks

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Without a database Hypothesis still caches, best effort, the literals it reads
# from the source files; a home under /dev/null can hold no directory, so none is written.
set_hypothesis_home_dir(os.devnull)

criterion_lines: list[str] = []


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
