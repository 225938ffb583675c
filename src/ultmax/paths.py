"""Joint simulation of (regime, asset, running maximum) and the ratio process.

Paths are advanced block by block on a uniform time grid.  Regime jumps
(exponential holding times, then the embedded jump chain) are sampled exactly
and merged with the grid: each frozen-regime segment gets an exact lognormal
update, and the running maximum is refreshed at every merged event time.  An
optional Brownian-bridge draw adds the intra-segment maximum, which makes the
law of the recorded running maximum exact over each frozen-regime segment
(without it the maximum has O(sqrt(dt)) bias).

The inner loop tracks log Y and log of the running max.  A path started at
ratio x0 >= 1 starts the max at log x0, so consumers read the ratio process
X = max(x0, S) / Y as log X = log max - log Y and exponentiate once at the end.

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
from typing import Callable

import numpy as np

from .markov import derive_rng
from .model import RegimeModel
from .stepping import GridTooCoarse

__all__ = [
    "embedded_jump_cdf",
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

# Worker threads for map_blocks: the available cores (the CLI's --threads
# default) unless --threads sets it.  No result depends on it.
threads = len(os.sched_getaffinity(0))


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


def _jump_loop(dt, rates) -> GridTooCoarse:
    """The refusal of a step of length dt whose jumps outrun the round limit; map_blocks raises it up front where
    min |q_jj| * dt over the regimes a path can visit is > 1.5 x the limit, since every path then jumps at least
    Poisson(that min |q_jj| * dt) times."""
    return GridTooCoarse(f"regime jump loop did not terminate in {_MAX_JUMP_ROUNDS} rounds of a step of dt = {dt:g}, "
                         f"max |q_jj| * dt = {rates.max() * dt:g}; check Q scaling")


def _advance_block(model, times, j0, n, seed, block_index, bridge_max, on_step=None, x0=1.0):
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
    ylog, ymaxlog = np.zeros(n), np.full(n, np.log(x0))
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
            if (rounds := rounds + 1) > _MAX_JUMP_ROUNDS:
                raise _jump_loop(dt, rates)
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


def map_blocks(model, times, j0, n_paths, seed, bridge_max, block, x0=1.0):
    """Simulate n_paths from regime j0 and ratio x0 >= 1 on ``times`` block by block.

    The one owner of the block partition: block b holds paths
    [lo, lo + size) and draws from the streams of (seed, b, step).
    ``block(lo, size)`` returns ``(on_step, finish)``; ``on_step`` (or None)
    is passed to the block's step loop, and ``finish(state, log_y, log_ymax)``
    maps its final slice to a result.  Up to ``threads`` blocks run at once,
    so these callbacks must write only their own block's data; results come
    back in block order, so sums over them have a fixed reduction order.
    Refuses an n_paths below 1.
    """
    if not n_paths >= 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    sizes = [min(BLOCK_SIZE, n_paths - lo) for lo in range(0, n_paths, BLOCK_SIZE)]
    reach = np.arange(model.m) == j0  # the regimes a path from j0 can visit, through Q's positive rates
    for _ in range(model.m):
        reach |= (model.Q[reach] > 0.0).any(axis=0)
    if (outrun := np.diff(times)[model.jump_rates()[reach].min() * np.diff(times) > 1.5 * _MAX_JUMP_ROUNDS]).size:
        raise _jump_loop(outrun[0], model.jump_rates())

    def run(b):
        on_step, finish = block(b * BLOCK_SIZE, sizes[b])
        return finish(*_advance_block(model, times, j0, sizes[b], seed, b, bridge_max, on_step, x0))

    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(sizes)))) as pool:
        return list(pool.map(run, range(len(sizes))))


def moments(*samples) -> np.ndarray:
    """One block's (sum, sum of squares) of each per-path sample array, for :func:`mean_se`."""
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is refused by mean_se
        return np.array([(s.sum(), (s * s).sum()) for s in samples])


def mean_se(blocks, n) -> list[tuple[float, float]]:
    """(mean, standard error) over n paths of each sample, from the blocks' :func:`moments` added in order.

    Raises FloatingPointError for a sample whose sum of squares or squared mean is not a finite double.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        means = [(total / n, total_sq / n, (total / n) ** 2) for total, total_sq in sum(blocks)]
    for i, (_, sq, mean_sq) in enumerate(means):
        if not (np.isfinite(sq) and np.isfinite(mean_sq)):
            raise FloatingPointError(f"Monte Carlo sample {i + 1} of {len(means)} over {n} paths: "
                                     "its sum of squares or squared mean overflows a double")
    return [(float(mean), float(np.sqrt(max(sq - mean_sq, 0.0) / n))) for mean, sq, mean_sq in means]


def reduce_terminal(
    model: RegimeModel,
    t0: float,
    j0: int,
    n_paths: int,
    n_steps: int,
    seed,
    bridge_max: bool,
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
    t_end: float | None = None,
    x0: float = 1.0,
):
    """Apply ``fn(state, log_y, log_ymax)`` to the final slice of each block.

    Simulates from ratio x0 on [t0, t_end] (the horizon by default).  Returns
    per-block results in block order, as :func:`map_blocks` does.
    """
    times = np.linspace(t0, model.T if t_end is None else t_end, n_steps + 1)
    return map_blocks(model, times, j0, n_paths, seed, bridge_max, lambda lo, size: (None, fn), x0)

