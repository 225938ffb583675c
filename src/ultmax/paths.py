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
output depends on that count.  Blocks return :func:`moments` of their samples,
which :func:`mean_se` adds in block order into (mean, standard error).  Each
block steps through scratch arrays of its own and no two blocks share data, so
no step allocates a block-sized array and nothing takes a lock.
"""

from __future__ import annotations

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
    "map_blocks",
    "moments",
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


@dataclass(frozen=True)
class PathBundle:
    """Simulated block of paths on a uniform grid, Y normalized to 1 at t0."""

    n_paths: int
    n_steps: int
    times: np.ndarray
    states: np.ndarray   # (n_paths, n_steps + 1) regime indices
    y: np.ndarray        # (n_paths, n_steps + 1) asset level, y[:, 0] = 1
    ymax: np.ndarray     # (n_paths, n_steps + 1) running max of y from t0


def _coefficients(mu, sigma, seg):
    """Drift (mu - sigma^2 / 2) * seg, volatility sigma * sqrt(seg), bridge 2 * (sigma^2 * seg)."""
    return (mu - 0.5 * sigma**2) * seg, sigma * np.sqrt(seg), 2.0 * (sigma**2 * seg)


def _log_update(ylog, ymaxlog, coefficient, rng, bridge_max, z=None, u=None, work=None):
    """Advance log Y in place over frozen-regime segments.

    ``coefficient(i, out)`` returns the segments' i-th :func:`_coefficients`
    array, in ``out`` or its own, for the update to overwrite.  Draws normals
    into ``z`` and, with ``bridge_max``, uniforms into ``u``: the bridge draw
    samples the maximum of the log-path over the segment given its endpoints
    (zero-length segments need no special case: log1p(-u) stays finite).
    """
    z = rng.standard_normal(ylog.shape[0], out=z)
    vol_z = coefficient(1, work)
    vol_z *= z
    dlog = coefficient(0, z)
    dlog += vol_z
    if bridge_max:
        u = np.log1p(np.negative(rng.random(ylog.shape[0], out=u), out=u), out=u)
        var2 = coefficient(2, vol_z)
        var2 *= u
        peak = np.sqrt(np.subtract(np.multiply(dlog, dlog, out=u), var2, out=u), out=u)
        peak += dlog
        peak *= 0.5
        peak += ylog
        np.maximum(ymaxlog, peak, out=ymaxlog)
    ylog += dlog
    if not bridge_max:
        np.maximum(ymaxlog, ylog, out=ymaxlog)


def _advance_block(model, times, j0, n, seed, block_index, bridge_max, on_step=None):
    """Evolve one block of n paths; returns final (state, ylog, ymaxlog).

    ``on_step(k, state, ylog, ymaxlog)`` is invoked at k = 0 and after every
    step, and must copy anything it keeps: the arrays change in place.  A
    step's first round updates every path from per-regime tables for a full
    step, recomputing the paths that jump from their holding times; later
    rounds run on the subset that jumped.
    """
    mu, sigma = model.mu, model.sigma
    rates = model.jump_rates()
    cdf = embedded_jump_cdf(model.Q)
    steps = np.diff(times)
    tables = {dt: _coefficients(mu, sigma, dt) for dt in np.unique(steps)}

    state = np.full(n, int(j0), dtype=np.intp)
    ylog, ymaxlog = np.zeros((2, n))
    z, u, work = np.empty((3, n))
    jumped = np.empty(n, dtype=bool)
    holding, idx = z, np.empty(0, dtype=np.intp)  # with Q = 0 no path ever jumps

    def coefficient(i, out):  # this step's table values, the jumped paths' own over them
        table[i].take(state, out=out, mode="clip")
        out[idx] = own[i]
        return out

    if on_step is not None:
        on_step(0, state, ylog, ymaxlog)

    for k, dt in enumerate(steps):
        rng = derive_rng(seed, block_index, k)
        table = tables[dt]
        if rates.any():
            holding, _, idx, targets = _step_jumps(rates, cdf, state, dt, rng, (z, u, jumped))
            remaining = dt - holding[idx]
        own = _coefficients(mu[state[idx]], sigma[state[idx]], holding[idx])
        if idx.size:
            state[idx] = targets
        _log_update(ylog, ymaxlog, coefficient, rng, bridge_max, z, u, work)

        rounds = 0
        while idx.size:
            rounds += 1
            if rounds > _MAX_JUMP_ROUNDS:
                raise RuntimeError("regime jump loop did not terminate; check Q scaling")
            sub = state[idx]
            holding, jumped_sub, jidx, targets = _step_jumps(rates, cdf, sub, remaining, rng)
            coefs = _coefficients(mu[sub], sigma[sub], np.where(jumped_sub, holding, remaining))
            ylog_sub, ymaxlog_sub = ylog[idx], ymaxlog[idx]
            _log_update(ylog_sub, ymaxlog_sub, lambda i, out: coefs[i], rng, bridge_max)
            ylog[idx], ymaxlog[idx] = ylog_sub, ymaxlog_sub
            sub[jidx] = targets
            state[idx] = sub
            remaining = remaining[jidx] - holding[jidx]
            idx = idx[jidx]
        if on_step is not None:
            on_step(k + 1, state, ylog, ymaxlog)
    return state, ylog, ymaxlog


def map_blocks(model, times, j0, n_paths, seed, bridge_max, block):
    """Simulate n_paths from regime j0 on ``times`` block by block.

    The one owner of the block partition: block b holds paths
    [lo, lo + size) and draws from the streams of (seed, b, step).
    ``block(lo, size)`` returns ``(on_step, finish)``; ``on_step`` (or None)
    is passed to the block's step loop, and ``finish(state, log_y, log_ymax)``
    maps its final slice to a result.  Up to ``threads`` blocks run at once,
    so these callbacks must write only their own block's data; results come
    back in block order, so sums over them have a fixed reduction order.
    """
    sizes = [min(BLOCK_SIZE, n_paths - lo) for lo in range(0, n_paths, BLOCK_SIZE)]

    def run(b):
        on_step, finish = block(b * BLOCK_SIZE, sizes[b])
        return finish(*_advance_block(model, times, j0, sizes[b], seed, b, bridge_max, on_step))

    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(sizes)))) as pool:
        return list(pool.map(run, range(len(sizes))))


def moments(*samples) -> np.ndarray:
    """One block's (sum, sum of squares) of each per-path sample array, for :func:`mean_se`."""
    return np.array([(s.sum(), (s * s).sum()) for s in samples])


def mean_se(blocks, n) -> list[tuple[float, float]]:
    """(mean, standard error) over n paths of each sample, from the blocks' :func:`moments` added in order."""
    means = [(total / n, total_sq / n) for total, total_sq in sum(blocks)]
    return [(float(mean), float(np.sqrt(max(sq - mean**2, 0.0) / n))) for mean, sq in means]


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
