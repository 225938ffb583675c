import numpy as np
import pytest
from scipy.stats import norm

from conftest import lift_to_x

from ultmax.model import RegimeModel, validate
from ultmax.paths import BLOCK_SIZE, PathBundle, reduce_terminal, simulate_paths

FIG = validate(RegimeModel(mu=[0.15, 0.05], sigma=[0.5, 0.3], Q=[[-2.5, 2.5], [2.0, -2.0]], T=0.5))
SINGLE = validate(RegimeModel(mu=[0.05], sigma=[0.3], Q=[[0.0]], T=1.0))


def running_max_cdf(a, nu, sigma, T):
    """P(sup of nu*s + sigma*B_s over [0,T] <= a), reflection principle."""
    s = sigma * np.sqrt(T)
    return norm.cdf((a - nu * T) / s) - np.exp(2 * nu * a / sigma**2) * norm.cdf(-(a + nu * T) / s)


@pytest.mark.slow
def test_terminal_mean_matches_lognormal_moment():
    # E[Y_T] = exp(mu T) for a single regime; exact update makes this
    # unbiased at any step count.
    sums = np.zeros(3)
    for block in reduce_terminal(
        SINGLE, 0.0, 0, 1_000_000, 16, 3, False,
        lambda st_, yl, ml: np.array([np.exp(yl).sum(), np.exp(2 * yl).sum(), yl.shape[0]]),
    ):
        sums += block
    mean = sums[0] / sums[2]
    se = np.sqrt((sums[1] / sums[2] - mean**2) / sums[2])
    assert abs(mean - np.exp(0.05)) <= 3.0 * se


def test_bundle_invariants():
    b = simulate_paths(FIG, 0.0, 0, 30_000, 50, seed=11)
    assert np.all(b.y[:, 0] == 1.0)
    assert np.all(b.ymax[:, 0] == 1.0)
    assert np.all(b.ymax >= b.y - 1e-14)
    assert np.all(np.diff(b.ymax, axis=1) >= -1e-14)
    assert np.all(b.y > 0)
    assert b.times[0] == 0.0 and b.times[-1] == FIG.T


def test_zero_switching_keeps_states_constant():
    two_state_frozen = validate(
        RegimeModel(mu=[0.15, 0.05], sigma=[0.5, 0.3], Q=[[0.0, 0.0], [0.0, 0.0]], T=0.5)
    )
    b = simulate_paths(two_state_frozen, 0.0, 1, 5_000, 20, seed=5)
    assert np.all(b.states == 1)


def test_simulation_is_deterministic_and_blockwise_consistent():
    a = simulate_paths(FIG, 0.0, 0, 80_000, 40, seed=9, bridge_max=True)
    b = simulate_paths(FIG, 0.0, 0, 80_000, 40, seed=9, bridge_max=True)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.states, b.states)
    # 80 000 paths are one full block and a partial one; the streaming
    # reduction sees the same final levels, block by block in path order.
    assert BLOCK_SIZE < 80_000 < 2 * BLOCK_SIZE
    final = reduce_terminal(FIG, 0.0, 0, 80_000, 40, 9, True, lambda st_, yl, ml: yl)
    assert [blk.shape[0] for blk in final] == [BLOCK_SIZE, 80_000 - BLOCK_SIZE]
    assert np.array_equal(np.exp(np.concatenate(final)), a.y[:, -1])


def test_lift_to_x_trivial_cases():
    times = np.linspace(0.0, 1.0, 4)
    y = np.array([[1.0, 1.2, 1.5, 2.0]])  # strictly increasing: ymax == y
    bundle = PathBundle(1, 3, times, np.zeros((1, 4), dtype=np.int16), y, y.copy())
    x = lift_to_x(bundle, 1.0)
    assert np.allclose(x, 1.0)

    # Initial cap dominates while the running max stays below it.
    y2 = np.array([[1.0, 1.1, 0.9, 1.3]])
    ymax2 = np.maximum.accumulate(y2, axis=1)
    bundle2 = PathBundle(1, 3, times, np.zeros((1, 4), dtype=np.int16), y2, ymax2)
    x2 = lift_to_x(bundle2, 2.0)
    assert np.allclose(x2, 2.0 * y2[0, 0] / y2)

    assert lift_to_x(bundle, 1.0)[0, 0] == 1.0
    with pytest.raises(ValueError):
        lift_to_x(bundle, 0.5)


def test_ratio_process_reflects_at_one():
    b = simulate_paths(FIG, 0.0, 0, 20_000, 80, seed=21, bridge_max=False)
    x = lift_to_x(b, 1.0)
    assert np.all(x >= 1.0 - 1e-14)
    at_floor = x == 1.0
    # Reflection: the floor is touched exactly where the level is its own
    # running maximum, and that happens on a nonnegligible share of nodes.
    assert np.all(np.abs(b.ymax[at_floor] - b.y[at_floor]) < 1e-14)
    assert at_floor[:, 1:].mean() > 0.01


@pytest.mark.slow
def test_running_max_law_single_regime():
    # With the bridge maximum on, the recorded running max has the exact
    # drifted-Brownian law; Kolmogorov-Smirnov at the 1% level, 1e5 samples.
    n = 100_000
    out = []
    for block in reduce_terminal(SINGLE, 0.0, 0, n, 25, 77, True, lambda st_, yl, ml: ml.copy()):
        out.append(block)
    m_log = np.concatenate(out)
    srt = np.sort(m_log)
    nu = 0.05 - 0.5 * 0.09
    cdf = running_max_cdf(srt, nu, 0.3, 1.0)
    i = np.arange(1, n + 1)
    d = max(np.max(np.abs(i / n - cdf)), np.max(np.abs(cdf - (i - 1) / n)))
    assert d < 1.628 / np.sqrt(n)


def test_partial_blocks_match_full_blocks_prefixwise():
    # A partial final block draws its own streams; totals must still be
    # deterministic for a fixed (n_paths, n_steps, seed) triple.
    a = simulate_paths(FIG, 0.0, 0, 70_000, 10, seed=3)
    c = simulate_paths(FIG, 0.0, 0, 70_000, 10, seed=3)
    assert np.array_equal(a.ymax, c.ymax)
    assert a.y.shape == (70_000, 11)
