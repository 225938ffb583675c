"""Continuous-time Markov chain utilities for the regime process.

Transition kernels are computed by uniformization: exp(Q*dt) is written as a
Poisson mixture of powers of the uniformized stochastic matrix, which is
positivity-preserving and comes with an explicit truncation bound.  Path
sampling is exact (exponential sojourns plus the embedded jump chain).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "transition_matrix",
    "stationary_distribution",
    "embedded_jump_cdf",
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


def stationary_distribution(Q: np.ndarray) -> np.ndarray:
    """Solve pi Q = 0 with pi summing to one (irreducible chains)."""
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    A = np.vstack([Q.T, np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def embedded_jump_cdf(Q) -> np.ndarray:
    """Row-wise CDF of the embedded jump chain (zero rows for absorbing states)."""
    probs = np.maximum(np.asarray(Q, dtype=float), 0.0)
    np.fill_diagonal(probs, 0.0)
    row_tot = probs.sum(axis=1, keepdims=True)
    return np.cumsum(
        np.divide(probs, row_tot, out=np.zeros_like(probs), where=row_tot > 0), axis=1
    )


def _step_jumps(rates, cdf, states, remaining, rng, buffers=None):
    """One vectorized jump proposal given precomputed rates and embedded CDF.

    Draws an exponential holding time for every chain; chains whose holding
    time is not below ``remaining`` (absorbing ones: e / 0 is inf, or nan; a
    tiny rate's e / rate may overflow to inf) do not jump this round, and
    memorylessness makes resampling next round exact.
    Targets are drawn only for the chains ``idx`` that jump, so the draw count
    depends on the data but remains a deterministic function of the seed.
    Returns (holding, jumped, idx, targets); ``buffers`` may hold the float
    holding and scratch arrays and the bool mask.
    """
    n = states.shape[0]
    holding, scratch, jumped = buffers or (np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    rng.standard_exponential(out=holding)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # + 0.0 makes an absorbing -0.0 rate +0.0
        np.divide(holding, (rates + 0.0).take(states, out=scratch, mode="clip"), out=holding)
    idx = np.flatnonzero(np.less(holding, remaining, out=jumped))
    targets = states[idx]
    if idx.size:
        u = rng.random(out=scratch[: idx.size])
        targets = (u[:, None] < cdf[targets]).argmax(axis=1).astype(states.dtype)
    return holding, jumped, idx, targets

