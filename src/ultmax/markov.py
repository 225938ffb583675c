"""Continuous-time Markov chain utilities for the regime process.

Transition kernels are computed by uniformization: exp(Q*dt) is written as a
Poisson mixture of powers of the uniformized stochastic matrix, which is
positivity-preserving and comes with an explicit truncation bound.  Path
sampling is exact (exponential sojourns plus the embedded jump chain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainPath",
    "transition_matrix",
    "sample_chain",
    "stationary_distribution",
    "sample_step_jumps",
    "embedded_jump_cdf",
    "derive_rng",
]

# Poisson tail mass omitted by the uniformization series.
UNIFORMIZATION_TAIL = 1e-14


@dataclass(frozen=True)
class ChainPath:
    """One sampled trajectory of the regime chain on [t0, T].

    ``jump_times`` is strictly increasing; ``states[k]`` is the regime after
    the k-th jump, so consecutive entries differ and the regime on
    [jump_times[k], jump_times[k+1]) is states[k].
    """

    initial_state: int
    jump_times: np.ndarray
    states: np.ndarray

    def state_at(self, t: float) -> int:
        """Regime in force at time t (right-continuous)."""
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.initial_state if k == 0 else int(self.states[k - 1])


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


def sample_chain(Q: np.ndarray, t0: float, T: float, j0: int, seed) -> ChainPath:
    """Exact trajectory of the chain on [t0, T] started in regime j0.

    Holding times are exponential with rate -q_jj drawn by inverse CDF on a
    uniform, the next state proportional to off-diagonal row entries.  A zero
    row (absorbing state) produces no further jumps.  Deterministic given seed.
    """
    if t0 > T:
        raise ValueError("t0 must not exceed T")
    Q = np.asarray(Q, dtype=float)
    rng = derive_rng(seed)
    jump_times = []
    states = []
    t = float(t0)
    j = int(j0)
    while True:
        rate = -Q[j, j]
        if rate <= 0.0:
            break
        # Inverse-CDF exponential keeps the draw reproducible across platforms.
        t = t - np.log1p(-rng.random()) / rate
        if t >= T:
            break
        probs = np.maximum(Q[j], 0.0)
        probs[j] = 0.0
        cdf = np.cumsum(probs / probs.sum())
        j = int(np.searchsorted(cdf, rng.random(), side="right"))
        jump_times.append(t)
        states.append(j)
    return ChainPath(int(j0), np.asarray(jump_times, dtype=float), np.asarray(states, dtype=np.int64))


def embedded_jump_cdf(Q) -> np.ndarray:
    """Row-wise CDF of the embedded jump chain (zero rows for absorbing states)."""
    probs = np.maximum(np.asarray(Q, dtype=float), 0.0)
    np.fill_diagonal(probs, 0.0)
    row_tot = probs.sum(axis=1, keepdims=True)
    return np.cumsum(
        np.divide(probs, row_tot, out=np.zeros_like(probs), where=row_tot > 0), axis=1
    )


def _step_jumps(rates, cdf, states, remaining, rng):
    """One vectorized jump proposal given precomputed rates and embedded CDF.

    Draws an exponential holding time for every chain; chains whose holding
    time exceeds ``remaining`` do not jump this round (memorylessness makes
    resampling next round exact).  Jump targets are drawn only for the chains
    that actually jump, so the draw count depends on the data but remains a
    deterministic function of the seed.
    """
    r = rates[states]
    e = rng.standard_exponential(states.shape[0])
    holding = np.full(states.shape[0], np.inf)
    pos = r > 0.0
    holding[pos] = e[pos] / r[pos]
    jumped = holding < remaining

    next_state = states.copy()
    idx = np.flatnonzero(jumped)
    if idx.size:
        u = rng.random(idx.size)
        next_state[idx] = (u[:, None] < cdf[states[idx]]).argmax(axis=1).astype(states.dtype)
    return holding, next_state, jumped


def sample_step_jumps(Q, states, remaining, rng):
    """Jump proposal for a block of chains over one interval; see _step_jumps."""
    Q = np.asarray(Q, dtype=float)
    return _step_jumps(-np.diag(Q), embedded_jump_cdf(Q), states, remaining, rng)
