"""Shared pytest wiring: the acceptance gate's per-criterion verdict lines,
the ratio-process oracle the path and policy tests share, and the boundary's
sentinel mask the boundary tests share."""

import numpy as np

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
