"""Continuous-time Markov chain utilities for the regime process.

Transition kernels are computed by uniformization: exp(Q*dt) is written as a
Poisson mixture of powers of the uniformized stochastic matrix, which is
positivity-preserving and comes with an explicit truncation bound.  The seeded
streams are derived here; the path engine (:mod:`ultmax.paths`) samples jumps.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "transition_matrix",
    "derive_rng",
]

# Poisson tail mass omitted by the uniformization series.
UNIFORMIZATION_TAIL = 1e-14


def derive_rng(seed, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) pair.

    Splitting goes through numpy's SeedSequence spawn keys, so streams for
    distinct keys are statistically independent and reproducible across
    platforms and across any parallel execution order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed, *key: int) -> int:
    """Deterministic 64-bit sub-seed for a (seed, key...) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def transition_matrix(Q: np.ndarray, dt: float) -> np.ndarray:
    """Row-stochastic exp(Q*dt) by uniformization, rows renormalized to sum exactly 1.

    The series sum_k e^{-lam*dt} (lam*dt)^k / k! * K^k with K = I + Q/lam is
    truncated once the remaining Poisson tail mass drops below
    ``UNIFORMIZATION_TAIL``.  dt = 0 returns the identity.
    """
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    lam = float(np.max(-np.diag(Q)))
    a = lam * dt
    if a == 0.0:
        return np.eye(m)

    K = np.eye(m) + Q / lam
    # Recursive Poisson weights: w_0 = e^-a, w_{k+1} = w_k * a/(k+1).
    w = np.exp(-a)
    if w == 0.0:
        # Beyond float range for the leading weight: square down from dt/2.
        half = transition_matrix(Q, dt / 2.0)
        P = half @ half
    else:
        term = np.eye(m)
        P = w * term
        acc = w
        k = 0
        while 1.0 - acc > UNIFORMIZATION_TAIL:
            k += 1
            term = term @ K
            w *= a / k
            P += w * term
            acc += w
    P = np.maximum(P, 0.0)
    P /= P.sum(axis=1, keepdims=True)
    return P
