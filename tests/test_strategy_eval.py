import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import estimate_J, lift_to_x, simulate_paths

import ultmax.paths
from ultmax import pinned
from ultmax.boundary import Boundary, extract_boundary
from ultmax.gain import g_pde
from ultmax.grids import Grid
from ultmax.markov import derive_rng
from ultmax.model import RegimeModel, validate
from ultmax.paths import map_blocks, mean_se, moments
from ultmax.strategy import Policy, _stop_log_levels, compare_policies
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
        levels = policy.levels.levels_at(bundle.times)
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


@pytest.mark.parametrize("solved, horizon", [(2e-13, 1e-13), (0.5, 0.5 + 1e-9), (0.5, 0.6)])
def test_a_boundary_solved_for_another_horizon_is_refused(solved, horizon):
    # With an absolute 1e-12 slack, a boundary solved for T = 2e-13 was read for a model with T = 1e-13.
    grid = Grid.for_model(dataclasses.replace(FIG, T=solved), n_x=5, n_t=200)
    levels = np.full((grid.n_t + 1, 2), 1.5)
    boundary = Boundary(levels, levels, np.zeros(levels.shape, dtype=np.int64), grid)
    with pytest.raises(ValueError, match="boundary horizon does not match the model horizon"):
        compare_policies(dataclasses.replace(FIG, T=horizon), [Policy.from_boundary(boundary)], 0, 10, 5, seed=1)
    compare_policies(dataclasses.replace(FIG, T=solved), [Policy.from_boundary(boundary)], 0, 10, 5, seed=1)


def test_compare_policies_takes_one_policy_or_more():
    with pytest.raises(ValueError, match="at least one policy"):
        compare_policies(FIG, [], 0, 10, 5, seed=1)
    (est,), pairs = compare_policies(FIG, [Policy.immediate()], 0, 10, 5, seed=1)
    assert est.policy.kind == "immediate" and pairs == []


def every_policy_every_step(model, policies, j0, n_paths, n_steps, seed, bridge_max):
    """The (mean, SE) of each regret, then of each pairwise difference, with every policy's level row
    gathered and tested over the whole block at every step: the policy pass before its skips."""
    times = np.linspace(0.0, model.T, n_steps + 1)
    thresholds = [_stop_log_levels(p, model, times) for p in policies]
    P = len(policies)

    def block(lo, size):
        running = np.ones((P, size), dtype=bool)
        log_y_tau = np.zeros((P, size))
        xlog, level, newly = np.empty(size), np.empty(size), np.empty(size, dtype=bool)

        def on_step(k, state, ylog, ymaxlog):
            np.subtract(ymaxlog, ylog, out=xlog)
            for p in range(P):
                np.greater_equal(xlog, thresholds[p][k].take(state, out=level, mode="clip"), out=newly)
                np.logical_and(newly, running[p], out=newly)
                if newly.any():
                    log_y_tau[p][newly] = ylog[newly]
                    running[p][newly] = False

        def finish(state, ylog, ymaxlog):
            regrets = np.exp(ymaxlog[None, :] - log_y_tau)
            return moments(*regrets, *(a - b for a, b in combinations(regrets, 2)))

        return on_step, finish

    return mean_se(map_blocks(model, times, j0, n_paths, seed, bridge_max, block), n_paths)


@st.composite
def policy_cases(draw):
    """A model of 1-4 regimes (absorbing rows included), policies on it, and a start regime."""
    m = draw(st.integers(1, 4))
    Q = np.zeros((m, m))
    for i in range(m):
        if not draw(st.booleans()):  # else regime i is absorbing
            Q[i] = [0.0 if j == i else draw(st.floats(0.0, 5.0)) for j in range(m)]
            Q[i, i] = -Q[i].sum()
    mu = draw(st.lists(st.floats(-0.5, 0.5), min_size=m, max_size=m))
    sigma = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
    model = RegimeModel(mu, sigma, Q, draw(st.floats(0.1, 1.0)))
    level = st.sampled_from([1.0, 1.05, 1.2, np.inf]) | st.floats(1.0, 2.0)
    policies = []
    for kind in draw(st.lists(st.sampled_from(["immediate", "at_maturity", "threshold", "boundary"]),
                              min_size=1, max_size=5)):
        if kind == "immediate":
            policies.append(Policy.immediate())
        elif kind == "at_maturity":
            policies.append(Policy.at_maturity())
        elif kind == "threshold":
            policies.append(Policy.fixed_threshold(draw(st.lists(level, min_size=m, max_size=m))))
        else:
            grid = Grid.for_model(model, n_x=24, n_t=40)
            boundary = extract_boundary(solve_value(model, grid, g_pde(model, grid)), pinned.TOL_ABS_DEFAULT)
            b = boundary.b_smoothed.copy()
            # Sentinels: a whole time row (j = -1) or one regime's level set to +inf.
            for k, j in draw(st.lists(st.tuples(st.integers(0, grid.n_t), st.integers(-1, m - 1)), max_size=8)):
                b[k, j if j >= 0 else slice(None)] = np.inf
            policies.append(Policy.from_boundary(dataclasses.replace(boundary, b_smoothed=b)))
    return model, policies, draw(st.integers(0, m - 1))


# Blocks of 1 000 paths, so a draw of up to 3 000 paths runs up to three blocks, the last one partial, and two
# threads run two of them at once.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=policy_cases(), n_paths=st.integers(1, 3000), n_steps=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), bridge_max=st.booleans())
def test_skipping_the_stop_test_changes_no_bit(case, n_paths, n_steps, seed, bridge_max):
    model, policies, j0 = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ultmax.paths, "BLOCK_SIZE", 1000)
        for threads in (1, 2):
            mp.setattr(ultmax.paths, "threads", threads)
            expected = every_policy_every_step(model, policies, j0, n_paths, n_steps, seed, bridge_max)
            ests, pairs = compare_policies(model, policies, j0, n_paths, n_steps, seed, bridge_max)
            by_policy = {id(e.policy): (e.mean, e.std_error) for e in ests}
            assert [by_policy[id(p)] for p in policies] + [(pr.diff, pr.diff_se) for pr in pairs] == expected
            assert all(e.n_paths == n_paths for e in ests)
            assert [(pr.policy_a, pr.policy_b) for pr in pairs] == [
                (a.name(), b.name()) for a, b in combinations(policies, 2)]


def test_threshold_levels_of_one_and_of_inf_are_immediate_and_at_maturity_bit_for_bit():
    # 70 000 paths: two blocks.  A +inf row is skipped like at_maturity's, and a threshold of 1 stops every path
    # at t = 0, after which no path of it runs, like immediate.
    m = FIG.m
    pols = [Policy.immediate(), Policy.at_maturity(), Policy.fixed_threshold([np.inf] * m),
            Policy.fixed_threshold([1.0] * m)]
    ests, pairs = compare_policies(FIG, pols, 0, 70_000, 40, seed=2611)
    regret = {id(e.policy): (e.mean, e.std_error) for e in ests}
    assert regret[id(pols[2])] == regret[id(pols[1])]
    assert regret[id(pols[3])] == regret[id(pols[0])]
    assert regret[id(pols[0])] != regret[id(pols[1])]
    by_pair = {(pr.policy_a, pr.policy_b): (pr.diff, pr.diff_se) for pr in pairs}
    assert by_pair[("at_maturity", pols[2].name())] == (0.0, 0.0)
    assert by_pair[("immediate", pols[3].name())] == (0.0, 0.0)
