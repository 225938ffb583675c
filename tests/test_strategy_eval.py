import numpy as np
import pytest

from conftest import estimate_J, lift_to_x, simulate_paths

import ultmax.paths
from ultmax import pinned
from ultmax.boundary import extract_boundary
from ultmax.gain import g_pde
from ultmax.grids import Grid
from ultmax.markov import derive_rng
from ultmax.model import RegimeModel, validate
from ultmax.strategy import Policy, compare_policies
from ultmax.value import solve_value

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
IMMEDIATE = validate(pinned.make_model(pinned.IMMEDIATE_MODEL))
AT_MATURITY = validate(pinned.make_model(pinned.AT_MATURITY_MODEL))


@pytest.fixture(scope="module")
def fig_solution():
    grid = Grid.for_model(FIG)
    S = solve_value(FIG, grid, g_pde(FIG, grid))
    return grid, S, extract_boundary(S, pinned.TOL_ABS_DEFAULT)


def reference_regrets(model, policy, j0, n_paths, n_steps, seed):
    """Independent bundle-based evaluation: apply the rule to stored paths."""
    bundle = simulate_paths(model, 0.0, j0, n_paths, n_steps, seed, bridge_max=True)
    x = lift_to_x(bundle, 1.0)
    n = bundle.n_paths
    tau_idx = np.full(n, bundle.n_steps)
    if policy.kind == "immediate":
        tau_idx[:] = 0
    elif policy.kind == "boundary":
        hit = np.zeros(n, dtype=bool)
        levels = policy.boundary.levels_at(bundle.times)
        for k in range(bundle.n_steps + 1):
            now = (x[:, k] >= levels[k, bundle.states[:, k]]) & ~hit
            tau_idx[now] = k
            hit |= now
    elif policy.kind == "fixed_threshold":
        hit = np.zeros(n, dtype=bool)
        for k in range(bundle.n_steps + 1):
            now = (x[:, k] >= policy.levels[bundle.states[:, k]]) & ~hit
            tau_idx[now] = k
            hit |= now
    y_tau = bundle.y[np.arange(n), tau_idx]
    return bundle.ymax[:, -1] / y_tau


def test_every_path_regret_at_least_one_and_streaming_matches_reference(fig_solution):
    _, _, boundary = fig_solution
    pol = Policy.from_boundary(boundary)
    ref = reference_regrets(FIG, pol, 0, 30_000, 60, seed=404)
    assert np.all(ref >= 1.0)
    est = compare_policies(FIG, [pol], 0, 30_000, 60, seed=404)[0][0]
    assert est.mean == pytest.approx(ref.mean(), abs=1e-12)
    assert est.n_paths == 30_000


def test_immediate_regret_is_the_gain(fig_solution):
    grid, S, _ = fig_solution
    for j0 in (0, 1):
        est = compare_policies(FIG, [Policy.immediate()], j0, 150_000, 50, seed=31 + j0)[0][0]
        assert abs(est.mean - S.G.values[0, 0, j0]) <= 3.0 * est.std_error + pinned.TOL_POLICY


def test_at_maturity_regret_is_the_terminal_ratio_expectation():
    for j0 in (0, 1):
        est = compare_policies(FIG, [Policy.at_maturity()], j0, 150_000, 50, seed=77 + j0)[0][0]
        j, j_se = estimate_J(FIG, 0.0, 1.0, j0, 150_000, seed=99 + j0)
        assert abs(est.mean - j) <= 3.0 * np.hypot(est.std_error, j_se)


def test_exact_tie_immediate_family():
    grid = Grid.for_model(IMMEDIATE)
    S = solve_value(IMMEDIATE, grid, g_pde(IMMEDIATE, grid))
    boundary = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    ests, pairs = compare_policies(
        IMMEDIATE, [Policy.from_boundary(boundary), Policy.immediate()], 0, 20_000, 40, seed=5
    )
    (pair,) = pairs
    assert pair.diff == 0.0 and pair.diff_se == 0.0  # path-by-path tie


def test_exact_tie_at_maturity_family():
    grid = Grid.for_model(AT_MATURITY)
    S = solve_value(AT_MATURITY, grid, g_pde(AT_MATURITY, grid))
    boundary = extract_boundary(S, tol_abs=0.0)
    ests, pairs = compare_policies(
        AT_MATURITY, [Policy.from_boundary(boundary), Policy.at_maturity()], 1, 20_000, 40, seed=6
    )
    (pair,) = pairs
    assert pair.diff == 0.0 and pair.diff_se == 0.0


def test_boundary_policy_dominates(fig_solution):
    _, _, boundary = fig_solution
    pols = [
        Policy.from_boundary(boundary),
        Policy.immediate(),
        Policy.at_maturity(),
        Policy.fixed_threshold([1.05, 1.05]),
    ]
    for j0 in (0, 1):
        ests, pairs = compare_policies(FIG, pols, j0, 200_000, 250, seed=123 + j0)
        assert ests[0].policy.kind == "boundary"  # ranked best
        for pr in pairs:
            if pr.policy_a == "boundary":
                assert pr.diff <= 3.0 * pr.diff_se


def test_value_matches_boundary_policy_regret(fig_solution):
    # Stopping on first entry into the solver's own (exact) stopping set; a
    # blurred detection band would stop early by the band width and cost a
    # systematic few 1e-3 of regret.
    grid, S, _ = fig_solution
    exact = extract_boundary(S, tol_abs=0.0)
    for j0 in (0, 1):
        est = compare_policies(FIG, [Policy.from_boundary(exact)], j0, 200_000, 500, seed=808 + j0)[0][0]
        gap = abs(est.mean - S.V.values[0, 0, j0])
        assert gap <= 3.0 * est.std_error + pinned.TOL_POLICY


def test_doubling_steps_moves_regret_within_budget(fig_solution):
    _, _, boundary = fig_solution
    pol = Policy.from_boundary(boundary)
    a = compare_policies(FIG, [pol], 0, 200_000, 250, seed=42)[0][0]
    b = compare_policies(FIG, [pol], 0, 200_000, 500, seed=43)[0][0]
    assert abs(a.mean - b.mean) <= 3.0 * np.hypot(a.std_error, b.std_error) + pinned.TOL_POLICY


def test_three_regimes_boundary_policy_dominates():
    # Third regime has zero drift, so its boundary sits at the floor and the
    # boundary rule stops at once there, path for path like `immediate`.
    model = validate(
        RegimeModel(
            mu=[0.15, 0.05, 0.0],
            sigma=[0.5, 0.3, 0.4],
            Q=[[-2.5, 1.5, 1.0], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]],
            T=0.5,
        )
    )
    grid = Grid.for_model(model, n_x=120, n_t=60)
    S = solve_value(model, grid, g_pde(model, grid))
    boundary = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    assert np.all(boundary.b_smoothed[:, 2] == 1.0)
    pols = [Policy.from_boundary(boundary), Policy.immediate(), Policy.at_maturity()]
    for j0 in range(3):
        ests, pairs = compare_policies(model, pols, j0, 70_000, 60, seed=3000 + j0)
        est = {e.policy.kind: e for e in ests}
        vs = {p.policy_b: p for p in pairs if p.policy_a == "boundary"}
        if j0 < 2:
            for other in ("immediate", "at_maturity"):
                assert vs[other].diff < -3.0 * vs[other].diff_se, (j0, other)
        else:
            assert vs["immediate"].diff == 0.0 and vs["immediate"].diff_se == 0.0
        imm = est["immediate"]
        assert abs(imm.mean - S.G.values[0, 0, j0]) <= 3.0 * imm.std_error + pinned.C_PDE_MC * (grid.dz**2 + grid.dt)
        bnd = est["boundary"]
        assert bnd.mean >= S.V.values[0, 0, j0] - 3.0 * bnd.std_error - pinned.TOL_SCHEME


def test_stopping_is_non_anticipative(fig_solution, monkeypatch):
    # Regenerate all randomness from a given step onward with a different
    # seed: every stop decided before that step must be unchanged.
    _, _, boundary = fig_solution
    pol = Policy.from_boundary(boundary)
    n, n_steps, k_switch = 20_000, 60, 30

    def stopping_indices():
        from ultmax.strategy import _stop_log_levels
        from ultmax.paths import _advance_block

        times = np.linspace(0.0, FIG.T, n_steps + 1)
        thr = _stop_log_levels(pol, FIG, times)
        tau = np.full(n, n_steps)
        hit = np.zeros(n, dtype=bool)

        def on_step(k, state, ylog, ymaxlog):
            now = (np.maximum(0.0, ymaxlog) - ylog >= thr[k, state]) & ~hit
            tau[now] = k
            hit[now] = True

        _advance_block(FIG, times, 0, n, 7, 0, True, on_step)
        return tau.copy()

    tau_a = stopping_indices()
    original = derive_rng

    def switched(seed, *key):
        if len(key) == 2 and key[1] >= k_switch:
            return original(987654321, *key)
        return original(seed, *key)

    monkeypatch.setattr(ultmax.paths, "derive_rng", switched)
    tau_b = stopping_indices()
    early = tau_a < k_switch
    assert early.any()
    assert np.array_equal(tau_a[early], tau_b[early])


def test_threshold_validation():
    with pytest.raises(ValueError):
        Policy.fixed_threshold([0.9, 1.1])
    with pytest.raises(ValueError):
        compare_policies(FIG, [Policy.fixed_threshold([1.1])], 0, 10, 5, seed=1)


def test_compare_policies_takes_one_policy_or_more():
    with pytest.raises(ValueError, match="at least one policy"):
        compare_policies(FIG, [], 0, 10, 5, seed=1)
    (est,), pairs = compare_policies(FIG, [Policy.immediate()], 0, 10, 5, seed=1)
    assert est.policy.kind == "immediate" and pairs == []
