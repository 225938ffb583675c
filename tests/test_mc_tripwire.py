"""Bitwise tripwire for the Monte Carlo layer at small seeded sizes.

Every estimate below runs 70 000 paths: one full 65 536-path block plus a
partial one, so the per-(block, step) random streams, the block partition and
the order in which block results are summed all feed the pinned values.  The
values are exact (``==``): a changed stream, partition or reduction order
shows up here in the quick tier instead of only in the million-path goldens.
"""

import numpy as np
import pytest

from ultmax import pinned
from ultmax.boundary import extract_boundary
from ultmax.gain import g_monte_carlo, g_pde
from ultmax.grids import Grid
from ultmax.model import validate
from ultmax.paths import BLOCK_SIZE, simulate_paths
from ultmax.strategy import Policy, compare_policies, evaluate_policy
from ultmax.value import solve_value
from ultmax.volterra import estimate_J, estimate_K, volterra_residual

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
N_PATHS = 70_000


@pytest.fixture(scope="module")
def coarse():
    grid = Grid.for_model(FIG, n_x=120, n_t=60)
    S = solve_value(FIG, grid, g_pde(FIG, grid))
    return S, extract_boundary(S, pinned.TOL_ABS_DEFAULT)


def test_simulated_paths_are_pinned():
    assert BLOCK_SIZE < N_PATHS < 2 * BLOCK_SIZE
    bundle = simulate_paths(FIG, 0.0, 0, N_PATHS, 10, seed=2030, bridge_max=True)
    assert float(bundle.y[-1, -1]) == 0.9138456050008382
    assert float(bundle.ymax[BLOCK_SIZE, -1]) == 1.1817028829479819
    assert int(bundle.states[-1, -1]) == 0


def test_policy_comparison_is_pinned(coarse):
    _, boundary = coarse
    pols = [
        Policy.from_boundary(boundary),
        Policy.immediate(),
        Policy.at_maturity(),
        Policy.fixed_threshold([1.05, 1.05]),
    ]
    ests, pairs = compare_policies(FIG, pols, 0, N_PATHS, 20, seed=2024)
    assert [(e.policy.name(), e.mean, e.std_error, e.n_paths) for e in ests] == [
        ("boundary", 1.2898365132915313, 0.0006011754105506785, N_PATHS),
        ("at_maturity", 1.3006026898862968, 0.0010545331690826718, N_PATHS),
        ("threshold(1.05,1.05)", 1.305977936764079, 0.0009623243650647451, N_PATHS),
        ("immediate", 1.3136017597096261, 0.0010900379278125725, N_PATHS),
    ]
    assert [(p.policy_a, p.policy_b, p.diff, p.diff_se) for p in pairs] == [
        ("boundary", "immediate", -0.023765246418095007, 0.0012346540337987125),
        ("boundary", "at_maturity", -0.010766176594765631, 0.0011880622755363571),
        ("boundary", "threshold(1.05,1.05)", -0.0161414234725476, 0.001092645118703726),
        ("immediate", "at_maturity", 0.012999069823329375, 0.0017262317883820844),
        ("immediate", "threshold(1.05,1.05)", 0.007623822945547407, 0.0005729619390071954),
        ("at_maturity", "threshold(1.05,1.05)", -0.005375246877781966, 0.0016263371318836308),
    ]
    est = evaluate_policy(FIG, pols[0], 1, N_PATHS, 20, seed=2025)
    assert (est.mean, est.std_error) == (1.230970638340504, 0.0005098832077169333)


def test_terminal_estimators_are_pinned(coarse):
    S, boundary = coarse
    assert g_monte_carlo(FIG, 0.0, 1.5, 1, N_PATHS, seed=2027) == (1.524854191607581, 0.00038459094800755134)
    assert estimate_J(FIG, 0.25, 1.2, 0, N_PATHS, seed=2028) == (1.2851720678032197, 0.0009037701629023478)
    level = float(boundary.b_smoothed[0, 0])
    assert level == 1.3804740398214832
    assert estimate_K(FIG, S, boundary, 0.0, 0.25, level, 0, N_PATHS, seed=2029) == (
        0.060034488770275535,
        0.00025997555295844516,
    )


def test_volterra_row_is_pinned(coarse):
    S, boundary = coarse
    rep = volterra_residual(FIG, S, boundary, N_PATHS, 8, seed=2026, report_every=60)
    assert np.array_equal(rep.t, [0.0, 0.0, 0.5, 0.5]) and np.array_equal(rep.regime, [0, 1, 0, 1])
    assert (rep.J[0], rep.J_se[0]) == (1.4881706523513343, 0.0015608760630750952)
    assert (rep.K_integral[0], rep.K_se[0]) == (0.028142462569157298, 8.695746481875201e-05)
