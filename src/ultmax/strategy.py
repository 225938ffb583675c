"""Path-level regret evaluation of stopping policies.

The regret of a stopping rule is the expected ratio of the global running
maximum over the whole horizon to the level at which the rule stopped; the
optimal rule minimizes it.  Every policy here stops the first time the ratio
process X_t reaches a level b(t, J_t): immediate stopping is level 1,
stopping at maturity level inf, a fixed threshold one level per regime, and
the solved boundary b itself.  Policies read only current information: the
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
from typing import Sequence

import numpy as np

from .boundary import Boundary
from .model import RegimeModel
from .paths import map_blocks, mean_se, moments

__all__ = ["Policy", "RegretEstimate", "PairedComparison", "compare_policies"]


@dataclass(frozen=True)
class Policy:
    """A stopping rule and its level table b(t, j).

    ``levels`` is a Boundary, read through ``levels_at``, or an array of
    levels: 0-d for one level in every regime (1 stops at once, as every
    path starts at ratio 1; inf waits for the horizon), or one per regime.
    """

    kind: str
    levels: Boundary | np.ndarray

    @classmethod
    def immediate(cls) -> "Policy":
        return cls("immediate", np.array(1.0))

    @classmethod
    def at_maturity(cls) -> "Policy":
        return cls("at_maturity", np.array(np.inf))

    @classmethod
    def from_boundary(cls, boundary: Boundary) -> "Policy":
        return cls("boundary", boundary)

    @classmethod
    def fixed_threshold(cls, levels) -> "Policy":
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        if not np.all(levels >= 1.0):  # nan fails too
            raise ValueError("threshold levels must be at least 1")
        return cls("fixed_threshold", levels)

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


def _stop_log_levels(policy: Policy, model: RegimeModel, times: np.ndarray) -> np.ndarray:
    """Per (step, regime) log of the policy's level on the ratio process; inf = never, and the final step stops."""
    levels = policy.levels
    if isinstance(levels, Boundary):
        if abs(levels.grid.t[-1] - times[-1]) > 1e-12:
            raise ValueError("boundary horizon does not match the model horizon")
        levels = levels.levels_at(times)
    elif levels.shape not in ((), (model.m,)):
        raise ValueError("need one threshold level per regime")
    with np.errstate(divide="ignore"):
        thr = np.log(np.broadcast_to(levels, (len(times), model.m)))
    thr[-1] = -np.inf
    return thr


def compare_policies(
    model: RegimeModel,
    policies: Sequence[Policy],
    j0: int,
    n_paths: int,
    n_steps: int,
    seed,
    bridge_max: bool = True,
):
    """Evaluate one or more policies on shared paths; returns (estimates, paired diffs).

    Each starts at t = 0, ratio 1, regime j0.  One streaming pass gives the
    (mean, SE) of each policy's regret, then of every pairwise difference.
    Estimates come back sorted by mean regret (best first); the paired table
    covers every pair once.
    """
    if not policies:
        raise ValueError("need at least one policy")
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

    means = mean_se(map_blocks(model, times, j0, n_paths, seed, bridge_max, block), n_paths)
    estimates = [RegretEstimate(*ms, n_paths, pol) for ms, pol in zip(means, policies)]
    pairs = [PairedComparison(a.name(), b.name(), *ms) for ms, (a, b) in zip(means[P:], combinations(policies, 2))]
    order = np.argsort([e.mean for e in estimates], kind="stable")
    return [estimates[i] for i in order], pairs
