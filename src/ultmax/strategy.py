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
from typing import Optional, Sequence

import numpy as np

from .boundary import Boundary
from .model import ValidatedModel
from .paths import map_blocks, mean_se

__all__ = ["Policy", "RegretEstimate", "PairedComparison", "evaluate_policy", "compare_policies"]


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
        if np.any(levels < 1.0):
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


def _regret_pass(model, policies, j0, n_paths, n_steps, seed, bridge_max):
    """One streaming pass: per-policy regret sums and sums of squares, and
    the same for every pairwise difference, summed over blocks in order."""
    times = np.linspace(0.0, model.T, n_steps + 1)
    thresholds = [_stop_log_levels(p, model, times) for p in policies]
    P = len(policies)

    def block(lo, size):
        running = np.ones((P, size), dtype=bool)
        log_y_tau = np.zeros((P, size))
        xlog, level, newly = np.empty(size), np.empty(size), np.empty(size, dtype=bool)

        def on_step(k, state, ylog, ymaxlog):
            # Ratio process from x0 = 1 in log scale; info up to this step only.
            np.subtract(np.maximum(0.0, ymaxlog, out=xlog), ylog, out=xlog)
            for p in range(P):
                np.greater_equal(xlog, thresholds[p][k].take(state, out=level, mode="clip"), out=newly)
                np.logical_and(newly, running[p], out=newly)
                if newly.any():
                    log_y_tau[p][newly] = ylog[newly]
                    running[p][newly] = False

        def finish(state, ylog, ymaxlog):
            regrets = np.exp(ymaxlog[None, :] - log_y_tau)
            pair_sum, pair_sumsq = np.zeros((P, P)), np.zeros((P, P))
            for a in range(P):
                for b in range(a + 1, P):
                    d = regrets[a] - regrets[b]
                    pair_sum[a, b], pair_sumsq[a, b] = d.sum(), (d**2).sum()
            return regrets.sum(axis=1), (regrets**2).sum(axis=1), pair_sum, pair_sumsq

        return on_step, finish

    blocks = map_blocks(model, times, j0, n_paths, seed, bridge_max, block)
    return tuple(sum(parts) for parts in zip(*blocks))


def evaluate_policy(
    model: ValidatedModel,
    policy: Policy,
    j0: int,
    n_paths: int,
    n_steps: int,
    seed,
    bridge_max: bool = True,
) -> RegretEstimate:
    """Monte Carlo regret of one policy started at t = 0, ratio 1, regime j0."""
    sums, sumsq, _, _ = _regret_pass(model, [policy], j0, n_paths, n_steps, seed, bridge_max)
    return RegretEstimate(*mean_se(sums[0], sumsq[0], n_paths), n_paths, policy)


def compare_policies(
    model: ValidatedModel,
    policies: Sequence[Policy],
    j0: int,
    n_paths: int,
    n_steps: int,
    seed,
    bridge_max: bool = True,
):
    """Evaluate policies on shared paths; returns (estimates, paired diffs).

    Estimates come back sorted by mean regret (best first); the paired table
    covers every ordered pair once.
    """
    if len(policies) < 2:
        raise ValueError("need at least two policies to compare")
    sums, sumsq, pair_sum, pair_sumsq = _regret_pass(model, list(policies), j0, n_paths, n_steps, seed, bridge_max)
    n = n_paths
    estimates = [RegretEstimate(*mean_se(sums[p], sumsq[p], n), n, pol) for p, pol in enumerate(policies)]
    pairs = [
        PairedComparison(policies[a].name(), policies[b].name(), *mean_se(pair_sum[a, b], pair_sumsq[a, b], n))
        for a in range(len(policies))
        for b in range(a + 1, len(policies))
    ]
    order = np.argsort([e.mean for e in estimates], kind="stable")
    return [estimates[i] for i in order], pairs
