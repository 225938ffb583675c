import warnings

import numpy as np
import pytest
from conftest import is_sentinel

from ultmax import pinned
from ultmax.boundary import Boundary, NonMonotoneSlice, check_boundary_monotone, extract_boundary, upper_set_start
from ultmax.gain import g_pde
from ultmax.grids import Grid, Surface
from ultmax.model import NotApplicable, RegimeModel, validate
from ultmax.value import ValueSurfaces, solve_value

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
IMMEDIATE = validate(pinned.make_model(pinned.IMMEDIATE_MODEL))
AT_MATURITY = validate(pinned.make_model(pinned.AT_MATURITY_MODEL))


def solve(model, n_x=400, n_t=200):
    grid = Grid.for_model(model, n_x=n_x, n_t=n_t)
    return grid, solve_value(model, grid, g_pde(model, grid))


def fake_surfaces(grid, f_values):
    """Surfaces carrying a prescribed gap field (V = G + F with G = level)."""
    g = np.tile(grid.x[:, None], (1, grid.m))[None].repeat(grid.n_t + 1, axis=0)
    return ValueSurfaces(
        Surface(g + f_values), Surface(g), Surface(f_values), grid, FIG
    )


@pytest.fixture(scope="module")
def fig():
    return solve(FIG)


def test_immediate_boundary_is_the_floor():
    _, S = solve(IMMEDIATE)
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    assert np.all(b.b_raw == 1.0)
    assert np.all(b.node_index == 0)


def test_at_maturity_boundary_is_sentinel_before_horizon():
    _, S = solve(AT_MATURITY)
    b = extract_boundary(S, tol_abs=0.0)
    assert np.all(is_sentinel(b)[:-1])
    assert np.all(b.b_raw[-1] == 1.0)


def test_sentinel_runs_are_flat_without_a_warning():
    # Before the horizon the at-maturity boundary is a run of +inf sentinels.
    _, S = solve(AT_MATURITY, n_x=40, n_t=20)
    b = extract_boundary(S, tol_abs=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = check_boundary_monotone(b, AT_MATURITY)
    assert (rep.n_violations, rep.max_jump_cells, rep.max_jump_per_sqrt_dt) == (0, 0.0, 0.0)


def test_monotone_report_across_sentinels():
    # Per regime: sentinel runs, finite -> sentinel rises (violations),
    # sentinel -> finite falls (not finite moves) and finite moves.
    grid = Grid.for_model(FIG, n_x=12, n_t=5)
    levels = np.array([[np.inf, np.inf], [np.inf, 1.3], [1.2, np.inf], [np.inf, 1.25], [1.1, 1.1], [1.0, 1.0]])
    b = Boundary(levels, levels, np.zeros(levels.shape, dtype=int), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = check_boundary_monotone(b, FIG)
    assert rep.n_violations == 2
    assert rep.max_jump_cells == 0.6633299339574351
    assert rep.max_jump_per_sqrt_dt == 0.40424461494971375


def test_terminal_anchor(fig):
    grid, S = fig
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    assert np.all(np.abs(np.log(b.b_raw[-1])) <= grid.dz)


@pytest.mark.parametrize(
    "mask, start",
    [([True, True, True], 0), ([True, False, True, True], 2), ([False, True, False], 3), ([False], 1)],
)
def test_upper_set_start_finds_the_top_run(mask, start):
    assert upper_set_start(np.array(mask)) == start


def test_upper_set_property(fig):
    grid, S = fig
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    f = S.F.values
    for j in range(grid.m):
        for k in range(0, grid.n_t + 1, 7):
            i = int(b.node_index[k, j])
            assert i >= 0
            assert np.all(f[k, i:, j] >= -pinned.TOL_ABS_DEFAULT)


def test_boundary_monotone_and_continuous(fig):
    grid, S = fig
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    rep = check_boundary_monotone(b, FIG)
    assert rep.n_violations == 0
    assert rep.max_jump_per_sqrt_dt <= pinned.C_BOUNDARY_CONTINUITY


def test_refinement_moves_boundary_less_than_two_cells(fig):
    grid, S = fig
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    grid2, S2 = solve(FIG, n_x=799)
    b2 = extract_boundary(S2, pinned.TOL_ABS_DEFAULT)
    move = np.abs(np.log(b.b_smoothed) - np.log(b2.b_smoothed))
    assert np.nanmax(move) <= 2.0 * grid.dz


def test_monotonicity_check_refuses_mixed_signs(fig):
    grid, S = fig
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    mixed = validate(RegimeModel(mu=[0.15, -0.05], sigma=[0.5, 0.3], Q=FIG.Q, T=0.5))
    with pytest.raises(NotApplicable):
        check_boundary_monotone(b, mixed)


def test_higher_gamma_regime_has_higher_boundary(fig):
    # The first regime has both the larger drift-to-variance ratio (0.6 vs
    # 0.56) and the larger variance scale, so waiting is worth more there;
    # paired common-random-number evaluation confirms this ordering is the
    # optimal one (see acceptance criterion 3, where the regime-swapped
    # boundary loses to the solved one).
    grid, S = fig
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    interior = slice(0, grid.n_t - 5)
    assert np.all(b.b_smoothed[interior, 0] >= b.b_smoothed[interior, 1] - 1e-12)


def test_dislocation_noise_is_smoothed_but_gross_noise_raises():
    grid = Grid.for_model(FIG, n_x=60, n_t=10)
    f = np.full((11, 60, 2), -1.0)
    f[:, 40:, :] = 0.0
    f[:, 38, :] = -1e-9  # within the two-node allowance of the edge
    extract_boundary(fake_surfaces(grid, f), tol_abs=1e-6)

    f[:, 10, :] = 0.0  # an isolated stopping island far below the edge
    with pytest.raises(NonMonotoneSlice):
        extract_boundary(fake_surfaces(grid, f), tol_abs=1e-6)


def test_sub_cell_interpolation_refines_the_level():
    grid = Grid.for_model(FIG, n_x=60, n_t=10)
    f = np.full((11, 60, 2), -1.0)
    f[:, 30:, :] = 0.0
    b = extract_boundary(fake_surfaces(grid, f), tol_abs=1e-3)
    # crossing of F = -tol sits inside cell (29, 30], so the refined level
    # lies strictly between the two node levels
    assert np.all(b.b_raw > grid.x[29]) and np.all(b.b_raw <= grid.x[30])


def test_level_lookup_is_backward_looking(fig):
    grid, S = fig
    b = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    t_mid = 0.5 * (grid.t[10] + grid.t[11])
    assert np.array_equal(b.levels_at([t_mid, grid.t[11]]), b.b_smoothed[[10, 11]])


def test_median_smoothing_kills_single_spikes():
    grid = Grid.for_model(FIG, n_x=60, n_t=10)
    f = np.full((11, 60, 2), -1.0)
    f[:, 30:, :] = 0.0
    f[5, 20:, 0] = 0.0  # one spiky slice in regime 1
    b = extract_boundary(fake_surfaces(grid, f), tol_abs=1e-6)
    assert b.b_raw[5, 0] < b.b_raw[4, 0]  # raw keeps the spike
    assert b.b_smoothed[5, 0] == b.b_smoothed[4, 0]  # smoothing removes it
