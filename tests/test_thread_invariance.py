"""Monte Carlo results do not depend on how many threads run the blocks.

The path count spans three blocks, the last one partial, so with two threads
two blocks run at once and their results must still come back in block order.
"""

import time

import numpy as np
import pytest

from ultmax import paths, pinned
from ultmax.boundary import extract_boundary
from ultmax.gain import g_pde
from ultmax.grids import Grid
from ultmax.model import RegimeModel, validate
from ultmax.strategy import Policy, compare_policies
from ultmax.value import solve_value
from ultmax.volterra import volterra_residual

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
N_PATHS = 140_000

# Regime 1 absorbs and regime 2 leaves at rate 40: steps with several jump
# rounds, whose subsets differ from block to block.
M3_ABSORBING = validate(
    RegimeModel(
        mu=(0.1, 0.05, 0.2),
        sigma=(0.3, 0.4, 0.25),
        Q=((-3.0, 1.0, 2.0), (0.0, 0.0, 0.0), (30.0, 10.0, -40.0)),
        T=0.5,
    )
)


def at_threads(monkeypatch, fn):
    """fn() with one worker thread and with two."""
    out = []
    for n in (1, 2):
        monkeypatch.setattr(paths, "threads", n)
        out.append(fn())
    return out


@pytest.fixture(scope="module")
def truncated():
    # A short log-ratio domain, so some Volterra samples land past z_max.
    grid = Grid.for_model(FIG, n_x=120, n_t=60, z_max=0.6)
    S = solve_value(FIG, grid, g_pde(FIG, grid))
    return S, extract_boundary(S, pinned.TOL_ABS_DEFAULT)


def test_block_results_come_back_in_block_order(monkeypatch):
    # Block 0 finishes last, so collecting in completion order would fail.
    monkeypatch.setattr(paths, "threads", 2)

    def block(lo, size):
        def finish(*_final):
            if lo == 0:
                time.sleep(0.3)
            return lo, size

        return None, finish

    out = paths.map_blocks(FIG, np.linspace(0.0, FIG.T, 3), 0, N_PATHS, 64, False, block)
    B = paths.BLOCK_SIZE
    assert out == [(0, B), (B, B), (2 * B, N_PATHS - 2 * B)]


def test_simulated_paths_do_not_depend_on_threads(monkeypatch):
    one, two = at_threads(monkeypatch, lambda: paths.simulate_paths(FIG, 0.0, 1, N_PATHS, 8, seed=61, bridge_max=True))
    assert np.array_equal(one.states, two.states)
    assert np.array_equal(one.y, two.y)
    assert np.array_equal(one.ymax, two.ymax)


@pytest.mark.parametrize("bridge_max", [True, False])
def test_absorbing_three_regime_paths_do_not_depend_on_threads(monkeypatch, bridge_max):
    # Each block steps through its own scratch arrays; two blocks at once must
    # not see each other's draws, holding times or jump subsets.
    one, two = at_threads(
        monkeypatch, lambda: paths.simulate_paths(M3_ABSORBING, 0.0, 2, N_PATHS, 10, seed=64, bridge_max=bridge_max)
    )
    assert np.array_equal(one.states, two.states)
    assert np.array_equal(one.y, two.y)
    assert np.array_equal(one.ymax, two.ymax)


def test_policy_comparison_does_not_depend_on_threads(monkeypatch, truncated):
    _, boundary = truncated
    pols = [
        Policy.from_boundary(boundary),
        Policy.immediate(),
        Policy.at_maturity(),
        Policy.fixed_threshold([1.05, 1.05]),
    ]
    one, two = at_threads(monkeypatch, lambda: compare_policies(FIG, pols, 0, N_PATHS, 20, seed=62))
    assert [(e.policy.name(), e.mean, e.std_error) for e in one[0]] == [
        (e.policy.name(), e.mean, e.std_error) for e in two[0]
    ]
    assert one[1] == two[1]


def test_volterra_residual_does_not_depend_on_threads(monkeypatch, truncated):
    S, boundary = truncated
    one, two = at_threads(
        monkeypatch, lambda: volterra_residual(FIG, S, boundary, N_PATHS, 8, seed=63, report_every=30)
    )
    assert one.n_extrapolated > 0
    assert one.n_extrapolated == two.n_extrapolated
    for name in ("t", "regime", "lhs", "J", "J_se", "K_integral", "K_se", "residual", "relative_residual"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
