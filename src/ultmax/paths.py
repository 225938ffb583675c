"""Joint simulation of (regime, asset, running maximum) and the ratio process.

Paths are advanced block by block on a uniform time grid.  Regime jumps
inside a step are merged with the grid exactly: each frozen-regime segment
gets an exact lognormal update, and the running maximum is refreshed at every
merged event time.  An optional Brownian-bridge draw adds the intra-segment
maximum, which makes the law of the recorded running maximum exact over each
frozen-regime segment (the default leaves it off, with O(sqrt(dt)) bias).

The inner loop tracks log Y and log of the running max; consumers that need
levels exponentiate once at the end.

Randomness: every (block, step) pair gets its own generator derived from the
root seed, so results do not depend on how blocks are scheduled, and the
draws for a step never influence earlier steps.  Every simulation runs
through :func:`map_blocks`, the one owner of the block partition and of the
order in which block results come back; it runs blocks on ``threads`` worker
threads (numpy releases the GIL in the random fills and array ufuncs), and no
output depends on that count.  :func:`mean_se` is the one reducer from summed
moments to (mean, standard error).
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .markov import _step_jumps, derive_rng, embedded_jump_cdf
from .model import ValidatedModel

__all__ = [
    "PathBundle",
    "simulate_paths",
    "lift_to_x",
    "map_blocks",
    "mean_se",
    "reduce_terminal",
    "BLOCK_SIZE",
]

# Fixed block size: seeds are derived per (block, step), so the partition into
# blocks is part of the reproducibility contract and must not depend on the
# execution environment.
BLOCK_SIZE = 1 << 16

_MAX_JUMP_ROUNDS = 100_000

# Worker threads for map_blocks: the available cores unless the CLI's
# --threads sets it.  No result depends on it.
threads = len(os.sched_getaffinity(0))


def _keep_block_temporaries():
    """Keep freed block-sized arrays in the process heap between steps.

    Every step allocates and frees a dozen or more BLOCK_SIZE float arrays.
    glibc's adaptive thresholds can hand them back to the kernel and fault
    them in again on the next step, which costs more system time than the
    step's arithmetic.  Fixed thresholds above one block array keep them on
    the heap.  A no-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 16 * BLOCK_SIZE)  # M_MMAP_THRESHOLD: 1 MiB, two block float arrays
    mallopt(-1, 256 * BLOCK_SIZE)  # M_TRIM_THRESHOLD: 16 MiB


_keep_block_temporaries()


@dataclass(frozen=True)
class PathBundle:
    """Simulated block of paths on a uniform grid, Y normalized to 1 at t0."""

    n_paths: int
    n_steps: int
    times: np.ndarray
    states: np.ndarray   # (n_paths, n_steps + 1) regime indices
    y: np.ndarray        # (n_paths, n_steps + 1) asset level, y[:, 0] = 1
    ymax: np.ndarray     # (n_paths, n_steps + 1) running max of y from t0


def _log_update(ylog, ymaxlog, mu_s, sig_s, seg, rng, bridge_max):
    """Advance log Y over frozen-regime segments of lengths ``seg`` in place.

    Draws one normal per path (and one uniform when ``bridge_max``).  The
    bridge draw samples the maximum of the log-path over the segment given
    its endpoints; zero-length segments reduce to no-ops without special
    casing because log1p(-u) stays finite.
    """
    dlog = (mu_s - 0.5 * sig_s**2) * seg + sig_s * np.sqrt(seg) * rng.standard_normal(ylog.shape[0])
    if bridge_max:
        u = rng.random(ylog.shape[0])
        var = sig_s**2 * seg
        peak = 0.5 * (dlog + np.sqrt(dlog * dlog - 2.0 * var * np.log1p(-u)))
        np.maximum(ymaxlog, ylog + peak, out=ymaxlog)
        ylog += dlog
    else:
        ylog += dlog
        np.maximum(ymaxlog, ylog, out=ymaxlog)


def _advance_block(model, times, j0, n, seed, block_index, bridge_max, on_step=None):
    """Evolve one block of n paths; returns final (state, ylog, ymaxlog).

    ``on_step(k, state, ylog, ymaxlog)`` is invoked at k = 0 and after every
    step.  The callback must copy anything it wants to keep.
    """
    mu, sigma = model.mu, model.sigma
    rates = model.jump_rates()
    cdf = embedded_jump_cdf(model.Q)
    no_jumps = not np.any(rates > 0.0)

    state = np.full(n, int(j0), dtype=np.int16)
    ylog = np.zeros(n)
    ymaxlog = np.zeros(n)
    if on_step is not None:
        on_step(0, state, ylog, ymaxlog)

    for k in range(len(times) - 1):
        rng = derive_rng(seed, block_index, k)
        dt = times[k + 1] - times[k]
        if no_jumps:
            _log_update(ylog, ymaxlog, mu[state], sigma[state], dt, rng, bridge_max)
            if on_step is not None:
                on_step(k + 1, state, ylog, ymaxlog)
            continue

        remaining = np.full(n, dt)
        holding, nxt, jumped = _step_jumps(rates, cdf, state, remaining, rng)
        seg = np.where(jumped, holding, remaining)
        _log_update(ylog, ymaxlog, mu[state], sigma[state], seg, rng, bridge_max)
        state = nxt
        remaining -= seg
        idx = np.flatnonzero(jumped)
        rounds = 0
        while idx.size:
            rounds += 1
            if rounds > _MAX_JUMP_ROUNDS:
                raise RuntimeError("regime jump loop did not terminate; check Q scaling")
            sub_state = state[idx]
            sub_rem = remaining[idx]
            holding, nxt, jumped = _step_jumps(rates, cdf, sub_state, sub_rem, rng)
            seg = np.where(jumped, holding, sub_rem)
            ylog_sub = ylog[idx]
            ymaxlog_sub = ymaxlog[idx]
            _log_update(ylog_sub, ymaxlog_sub, mu[sub_state], sigma[sub_state], seg, rng, bridge_max)
            ylog[idx] = ylog_sub
            ymaxlog[idx] = ymaxlog_sub
            state[idx] = nxt
            remaining[idx] = sub_rem - seg
            idx = idx[jumped]
        if on_step is not None:
            on_step(k + 1, state, ylog, ymaxlog)
    return state, ylog, ymaxlog


def _block_sizes(n_paths: int):
    sizes = [BLOCK_SIZE] * (n_paths // BLOCK_SIZE)
    if n_paths % BLOCK_SIZE:
        sizes.append(n_paths % BLOCK_SIZE)
    return sizes


def map_blocks(model, times, j0, n_paths, seed, bridge_max, block):
    """Simulate n_paths from regime j0 on ``times`` block by block.

    The one owner of the block partition: block b holds paths
    [lo, lo + size) and draws from the streams of (seed, b, step).
    ``block(lo, size)`` returns ``(on_step, finish)``; ``on_step`` (or None)
    is passed to the block's step loop, and ``finish(state, log_y, log_ymax)``
    maps its final slice to a result.  Up to ``threads`` blocks run at once,
    so these callbacks must write only their own block's data (or hold a
    lock); results come back in block order, so sums over them have a fixed
    reduction order.
    """
    sizes = _block_sizes(n_paths)

    def run(b):
        on_step, finish = block(b * BLOCK_SIZE, sizes[b])
        return finish(*_advance_block(model, times, j0, sizes[b], seed, b, bridge_max, on_step))

    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(sizes)))) as pool:
        return list(pool.map(run, range(len(sizes))))


def mean_se(total, total_sq, n) -> tuple[float, float]:
    """(mean, standard error of the mean) from a sum, a sum of squares and n."""
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0)
    return float(mean), float(np.sqrt(var / n))


def simulate_paths(
    model: ValidatedModel,
    t0: float,
    j0: int,
    n_paths: int,
    n_steps: int,
    seed,
    bridge_max: bool = False,
) -> PathBundle:
    """Simulate n_paths of (regime, Y, running max) on [t0, T], Y_t0 = 1.

    The regime path is sampled exactly; between merged event times Y gets the
    exact frozen-regime lognormal update.  Deterministic given seed.
    """
    if not t0 < model.T:
        raise ValueError("t0 must be strictly before the horizon")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    times = np.linspace(t0, model.T, n_steps + 1)
    states = np.empty((n_steps + 1, n_paths), dtype=np.int16)
    y = np.empty((n_steps + 1, n_paths))
    ymax = np.empty((n_steps + 1, n_paths))

    def block(lo, size):
        sl = slice(lo, lo + size)

        def record(k, st, yl, ml):
            states[k, sl] = st
            y[k, sl] = yl
            ymax[k, sl] = ml

        return record, lambda *final: None

    map_blocks(model, times, j0, n_paths, seed, bridge_max, block)
    np.exp(y, out=y)
    np.exp(ymax, out=ymax)
    return PathBundle(n_paths, n_steps, times, states.T, y.T, ymax.T)


def reduce_terminal(
    model: ValidatedModel,
    t0: float,
    j0: int,
    n_paths: int,
    n_steps: int,
    seed,
    bridge_max: bool,
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
    t_end: float | None = None,
):
    """Apply ``fn(state, log_y, log_ymax)`` to the final slice of each block.

    Simulates on [t0, t_end] (the horizon by default).  Returns per-block
    results in block order, as :func:`map_blocks` does.
    """
    times = np.linspace(t0, model.T if t_end is None else t_end, n_steps + 1)
    return map_blocks(model, times, j0, n_paths, seed, bridge_max, lambda lo, size: (None, fn))


def lift_to_x(bundle: PathBundle, x0: float) -> np.ndarray:
    """Ratio process started at x0 >= 1: max(x0 * y[0], ymax[s]) / y[s]."""
    if x0 < 1.0:
        raise ValueError("x0 must be at least 1")
    return np.maximum(x0 * bundle.y[:, :1], bundle.ymax) / bundle.y
