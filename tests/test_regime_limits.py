"""Regime limits as deterministic lattice checks, with no Monte Carlo.

Two limits tie the m-regime solver to single-regime GBM problems:

* decoupled, Q = 0: each regime is its own GBM, so the lattice must give the
  single-regime solve's bits for that regime's (mu, sigma);
* fast switching, Q = lambda * Q0: as lambda grows the model averages to GBM
  with drift pi . mu and variance pi . sigma^2, pi the stationary law of Q0
  (Yin & Zhang's two-time-scale averaging), at first order in 1 / lambda.
"""

import numpy as np

from ultmax import pinned
from ultmax.boundary import extract_boundary
from ultmax.gain import g_pde
from ultmax.grids import Grid
from ultmax.markov import stationary_distribution
from ultmax.model import RegimeModel, classify, validate
from ultmax.value import solve_value

FIG = pinned.FIGURE_MODEL
MU, SIGMA, Q0 = np.asarray(FIG["mu"]), np.asarray(FIG["sigma"]), np.asarray(FIG["Q"], dtype=float)


def solve(mu, sigma, q, n_t):
    model = validate(RegimeModel(mu=mu, sigma=sigma, Q=q, T=FIG["T"]))
    grid = Grid.for_model(model, n_x=400, n_t=n_t, z_max=2.0)
    surfaces = solve_value(model, grid, g_pde(model, grid))
    return model, surfaces, extract_boundary(surfaces, pinned.TOL_ABS_DEFAULT)


def test_decoupled_regimes_match_single_regime_solves_bitwise():
    _, S, b = solve(MU, SIGMA, np.zeros((2, 2)), n_t=200)
    for j in range(2):
        _, S1, b1 = solve([MU[j]], [SIGMA[j]], [[0.0]], n_t=200)
        assert np.array_equal(S.V.values[..., j], S1.V.values[..., 0]), j
        assert np.array_equal(S.G.values[..., j], S1.G.values[..., 0]), j
        assert np.array_equal(b.b_raw[:, j], b1.b_raw[:, 0]), j
        assert np.isfinite(b1.b_raw[:, 0]).all(), j  # a boundary at every time, so the check is not vacuous


def test_fast_switching_converges_to_the_averaged_model():
    # n_t = 800 keeps max|q_jj| dt <= 0.5 up to lambda = 320.
    pi = stationary_distribution(Q0)
    avg_model, avg, avg_b = solve([pi @ MU], [np.sqrt(pi @ SIGMA**2)], [[0.0]], n_t=800)
    assert np.isfinite(avg_b.b_raw).all()
    lams = (5, 20, 80, 320)
    value_gap, cells = [], []
    for lam in lams:
        model, S, b = solve(MU, SIGMA, lam * Q0, n_t=800)
        assert classify(model) == classify(avg_model), lam
        assert np.isfinite(b.b_raw).all(), lam  # so every time slice counts below
        value_gap.append(np.max(np.abs(S.V.values[0] - avg.V.values[0])))
        cells.append(np.max(np.abs(np.log(b.b_raw) - np.log(avg_b.b_raw))) / S.grid.dz)
    # Measured: 6.66e-3, 1.67e-3, 4.56e-4, 1.57e-4 and 10.1, 5.1, 2.6, 1.5 cells.
    # V is first order in 1 / lambda down to lambda = 80, then nears the scheme floor.
    ratios_v = [value_gap[i] / value_gap[i + 1] for i in range(len(lams) - 1)]
    ratios_b = [cells[i] / cells[i + 1] for i in range(len(lams) - 1)]
    assert min(ratios_v[:2]) >= 3.0, value_gap
    assert min(ratios_b) >= 1.5, cells
