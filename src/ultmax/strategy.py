"""Path-level regret evaluation of stopping policies.

The regret of a stopping rule is the expected ratio of the global running
maximum over the whole horizon to the level at which the rule stopped; the
optimal rule minimizes it.  Policies read only current information: the
stopping test at a grid time uses the ratio process and regime at that time,
and boundary lookups use the latest solver time node not after the current
time (never anticipating).

All policies in a comparison share the same simulated paths (common random
numbers), so paired differences carry far less variance than the individual
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .boundary import Boundary
from .model import ValidatedModel
from .paths import map_blocks, mean_se, moments

__all__ = ["Policy", "RegretEstimate", "PairedComparison", "compare_policies"]


@dataclass(frozen=True)
class Policy:
    """A stopping rule: immediate, at maturity, boundary, or fixed thresholds."""

    kind: str
    boundary: Optional[Boundary] = None
    levels: Optional[np.ndarray] = None

    @classmethod
    def immediate(cls) -> "Policy":
        return cls("immediate")

    @classmethod
    def at_maturity(cls) -> "Policy":
        return cls("at_maturity")

    @classmethod
    def from_boundary(cls, boundary: Boundary) -> "Policy":
        return cls("boundary", boundary=boundary)

    @classmethod
    def fixed_threshold(cls, levels) -> "Policy":
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if not np.all(levels >= 1.0):  # nan fails too
            raise ValueError("threshold levels must be at least 1")
        return cls("fixed_threshold", levels=levels)

    def name(self) -> str:
        if self.kind == "fixed_threshold":
            return "threshold(" + ",".join(f"{v:g}" for v in self.levels) + ")"
        return self.kind


@dataclass(frozen=True)
class RegretEstimate:
    mean: float
    std_error: float
    n_paths: int
    policy: Policy


@dataclass(frozen=True)
class PairedComparison:
    """Mean regret difference a - b under common random numbers."""

    policy_a: str
    policy_b: str
    diff: float
    diff_se: float


def _stop_log_levels(policy: Policy, model: ValidatedModel, times: np.ndarray) -> np.ndarray:
    """Per (step, regime) log threshold on the ratio process; inf = never.

    Immediate stops at step 0 regardless; at-maturity never stops early; both
    are encoded as thresholds so every policy runs through one code path.
    The final step always stops.
    """
    n_steps = len(times) - 1
    thr = np.full((n_steps + 1, model.m), np.inf)
    if policy.kind == "immediate":
        thr[0] = -np.inf
    elif policy.kind == "at_maturity":
        pass
    elif policy.kind == "fixed_threshold":
        if policy.levels.shape[0] != model.m:
            raise ValueError("need one threshold level per regime")
        thr[:] = np.log(policy.levels)[None, :]
    elif policy.kind == "boundary":
        b = policy.boundary
        if abs(b.grid.t[-1] - times[-1]) > 1e-12:
            raise ValueError("boundary horizon does not match the model horizon")
        with np.errstate(divide="ignore"):
            thr[:] = np.log(b.levels_at(times))
    else:
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    thr[n_steps] = -np.inf
    return thr


def _regret_means(model, policies, j0, n_paths, n_steps, seed, bridge_max):
    """One streaming pass: (mean, SE) of each policy's regret, then of every
    pairwise difference in ``combinations`` order."""
    times = np.linspace(0.0, model.T, n_steps + 1)
    thresholds = [_stop_log_levels(p, model, times) for p in policies]
    P = len(policies)

    def block(lo, size):
        running = np.ones((P, size), dtype=bool)
        log_y_tau = np.zeros((P, size))
        xlog, level, newly = np.empty(size), np.empty(size), np.empty(size, dtype=bool)

        def on_step(k, state, ylog, ymaxlog):
            # Ratio process from x0 = 1 in log scale; info up to this step only.
            np.subtract(ymaxlog, ylog, out=xlog)
            for p in range(P):
                np.greater_equal(xlog, thresholds[p][k].take(state, out=level, mode="clip"), out=newly)
                np.logical_and(newly, running[p], out=newly)
                if newly.any():
                    log_y_tau[p][newly] = ylog[newly]
                    running[p][newly] = False

        def finish(state, ylog, ymaxlog):
            regrets = np.exp(ymaxlog[None, :] - log_y_tau)
            return moments(*regrets, *(a - b for a, b in combinations(regrets, 2)))

        return on_step, finish

    return mean_se(map_blocks(model, times, j0, n_paths, seed, bridge_max, block), n_paths)


def compare_policies(
    model: ValidatedModel,
    policies: Sequence[Policy],
    j0: int,
    n_paths: int,
    n_steps: int,
    seed,
    bridge_max: bool = True,
):
    """Evaluate one or more policies on shared paths; returns (estimates, paired diffs).

    Each starts at t = 0, ratio 1, regime j0.  Estimates come back sorted by
    mean regret (best first); the paired table covers every pair once.
    """
    if not policies:
        raise ValueError("need at least one policy")
    means = _regret_means(model, list(policies), j0, n_paths, n_steps, seed, bridge_max)
    estimates = [RegretEstimate(*ms, n_paths, pol) for ms, pol in zip(means, policies)]
    pairs = [
        PairedComparison(a.name(), b.name(), *ms)
        for ms, (a, b) in zip(means[len(policies):], combinations(policies, 2))
    ]
    order = np.argsort([e.mean for e in estimates], kind="stable")
    return [estimates[i] for i in order], pairs
