"""Shared pytest wiring: the acceptance gate's per-criterion verdict lines,
the ratio-process oracle the path and policy tests share, and the boundary's
sentinel mask the boundary tests share.  Hypothesis draws the same examples
on every run and keeps no example database."""

import os

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# Without a database Hypothesis still caches, best effort, the literals it reads
# from the source files; a home under /dev/null can hold no directory, so none is written.
set_hypothesis_home_dir(os.devnull)

criterion_lines: list[str] = []


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
