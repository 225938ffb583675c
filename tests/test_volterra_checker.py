import numpy as np
import pytest

from conftest import estimate_J, estimate_K

from ultmax import pinned
from ultmax.boundary import extract_boundary
from ultmax.gain import dG_dx, g_monte_carlo, g_pde, lg
from ultmax.grids import Grid
from ultmax.model import validate
from ultmax.strategy import Policy, compare_policies
from ultmax.value import solve_value
from ultmax.volterra import volterra_residual

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
SINGLE = validate(pinned.make_model(pinned.SINGLE_MODEL))
IMMEDIATE = validate(pinned.make_model(pinned.IMMEDIATE_MODEL))


def solve(model):
    grid = Grid.for_model(model)
    S = solve_value(model, grid, g_pde(model, grid))
    return grid, S, extract_boundary(S, pinned.TOL_ABS_DEFAULT)


@pytest.fixture(scope="module")
def fig():
    return solve(FIG)


@pytest.fixture(scope="module")
def single():
    return solve(SINGLE)


def test_terminal_ratio_at_horizon_is_deterministic():
    assert estimate_J(FIG, FIG.T, 1.9, 1, 0, seed=1) == (1.9, 0.0)


def test_terminal_ratio_past_the_horizon_is_refused():
    # As g_monte_carlo does; simulating from t > T would give (nan, nan).
    with pytest.raises(ValueError, match="must not exceed the horizon"):
        estimate_J(FIG, FIG.T + 0.1, 1.9, 1, 100, seed=1)


@pytest.mark.parametrize("t, r", [(0.0, 0.2), (0.1, 0.1), (FIG.T, FIG.T)], ids=["simulated", "r_is_t", "t_is_T"])
def test_ratio_below_one_is_refused_by_every_estimator(fig, t, r):
    # The ratio process lives on [1, inf), and the path engine starts its maximum at log x.
    grid, S, boundary = fig
    with pytest.raises(ValueError, match="x must be at least 1"):
        estimate_K(FIG, S, boundary, t, r, 0.5, 0, 100, seed=3)
    with pytest.raises(ValueError, match="x must be at least 1"):
        estimate_J(FIG, t, 0.5, 0, 100, seed=3)
    with pytest.raises(ValueError, match="x must be at least 1"):
        g_monte_carlo(FIG, t, 0.5, 0, 100, seed=3)


@pytest.mark.parametrize("t", [np.nan, -1.0, -1e-300, FIG.T + 1e-9])
def test_gain_estimate_refuses_a_start_time_outside_the_horizon(t):
    # nan raised a KeyError from the coefficient table, and t = -1 quietly simulated 1.5 time units.
    with pytest.raises(ValueError, match=r"t must lie in \[0, horizon = 0.5\]"):
        g_monte_carlo(FIG, t, 1.5, 0, 100, seed=3)


@pytest.mark.parametrize("x", [np.nan, np.inf])
def test_gain_estimate_refuses_a_ratio_that_is_not_finite(x):
    # Both ended in an error that blamed an overflowing sum of squares.
    with pytest.raises(ValueError, match="x must be at least 1 and finite"):
        g_monte_carlo(FIG, 0.1, x, 0, 100, seed=3)


@pytest.mark.parametrize("n_paths", [0, -3])
def test_every_simulation_refuses_a_path_count_below_one(fig, n_paths):
    # All three raised TypeError: 'int' object is not iterable, from mean_se.
    grid, S, boundary = fig
    with pytest.raises(ValueError, match=f"n_paths must be at least 1, got {n_paths}"):
        g_monte_carlo(FIG, 0.1, 1.5, 0, n_paths, seed=3)
    with pytest.raises(ValueError, match=f"n_paths must be at least 1, got {n_paths}"):
        compare_policies(FIG, [Policy.immediate()], 0, n_paths, 5, seed=3)
    with pytest.raises(ValueError, match=f"n_paths must be at least 1, got {n_paths}"):
        volterra_residual(FIG, S, boundary, n_paths, 8, seed=3, report_every=100)


def test_golden_terminal_ratio_reproduces():
    est, se = estimate_J(SINGLE, 0.0, 1.0, 0, 1_000_000, seed=pinned.GOLDEN_SEED)
    gold, gold_se = pinned.GOLDEN_J_SINGLE
    assert est == pytest.approx(gold, abs=5e-7)
    assert se == pytest.approx(gold_se, abs=5e-7)


def test_large_level_terminal_ratio_is_inverse_moment():
    # Far above the grid the max never binds, so the ratio is x * Y_t / Y_T
    # with closed-form mean x * exp((sigma^2 - mu) (T - t)) in one regime.
    x = 20.0
    est, se = estimate_J(SINGLE, 0.0, x, 0, 400_000, seed=2024)
    closed = x * np.exp((0.09 - 0.05) * 1.0)
    assert abs(est - closed) <= 3.0 * se


def test_kernel_at_equal_times_is_deterministic(fig):
    grid, S, boundary = fig
    b0 = boundary.b_smoothed[0, 0]
    below, se_b = estimate_K(FIG, S, boundary, 0.0, 0.0, max(1.0, b0 - 0.2), 0, 0, seed=3)
    above, se_a = estimate_K(FIG, S, boundary, 0.0, 0.0, b0 + 0.2, 0, 0, seed=3)
    assert below == 0.0 and se_b == 0.0  # indicator off below the boundary
    assert se_a == 0.0 and above != 0.0


def test_kernel_uses_gain_image_when_surfaces_coincide():
    # With nonpositive drifts the value sticks to the gain everywhere, so the
    # stencil image equals the algebraic image up to scheme noise.
    grid, S, boundary = solve(IMMEDIATE)
    image = lg(S.G, dG_dx(S.G, grid), IMMEDIATE, grid)
    ks, xs = [0, 50, 150], [1.2, 1.8, 3.0]
    for k in ks:
        for x in xs:
            for j in range(2):
                stencil, _ = estimate_K(IMMEDIATE, S, boundary, grid.t[k], grid.t[k], x, j, 0, seed=4)
                algebraic = np.interp(np.log(x), grid.z, image.values[k, :, j])
                assert stencil == pytest.approx(algebraic, abs=5e-3)


def test_golden_kernel_reproduces(fig):
    grid, S, boundary = fig
    assert boundary.b_smoothed[0, 0] == pytest.approx(pinned.GOLDEN_K_LEVEL, abs=1e-6)
    est, se = estimate_K(
        FIG, S, boundary, 0.0, 0.25, pinned.GOLDEN_K_LEVEL, 0, 1_000_000, seed=pinned.GOLDEN_SEED
    )
    gold, gold_se = pinned.GOLDEN_K_FIGURE
    assert est == pytest.approx(gold, abs=5e-7)
    assert se == pytest.approx(gold_se, abs=5e-7)


def test_residual_vanishes_at_horizon(fig):
    grid, S, boundary = fig
    rep = volterra_residual(FIG, S, boundary, n_paths=1000, n_quad=8, seed=5, report_every=grid.n_t)
    last = rep.t == FIG.T
    assert np.all(rep.residual[last] == 0.0)
    assert np.all(rep.lhs[last] == 1.0)


@pytest.mark.slow
def test_single_regime_residual_small(single):
    grid, S, boundary = single
    rep = volterra_residual(SINGLE, S, boundary, n_paths=100_000, n_quad=64, seed=6)
    assert rep.median_abs_relative() <= 0.05
    assert np.abs(rep.relative_residual).max() <= 0.05


@pytest.mark.slow
def test_residual_does_not_degrade_under_refinement():
    # The per-path identity is nearly self-enforcing for this estimator (the
    # kernel comes from the same surface the boundary was extracted from),
    # so the median residual sits at the Monte Carlo floor of a few tenths of
    # a percent already on very coarse grids; refinement must keep it there.
    def run(n_x, n_t, n_quad, n_paths):
        grid = Grid.for_model(FIG, n_x=n_x, n_t=n_t)
        S = solve_value(FIG, grid, g_pde(FIG, grid))
        b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
        rep = volterra_residual(FIG, S, b, n_paths=n_paths, n_quad=n_quad, seed=7,
                                report_every=max(1, n_t // 10))
        return rep.median_abs_relative()

    coarse = run(40, 16, 4, 200_000)
    fine = run(79, 32, 8, 400_000)
    assert coarse <= 0.01
    assert fine <= coarse * 1.25 + 1e-4
