"""Acceptance gate: every exit criterion at its pinned tolerance.

Each test emits one `[PASS]`/`[FAIL]` line; the lines are replayed in the
terminal summary after the run so the gate's verdict is visible in any log.
Criterion 3 asserts the regime ordering of the figure-model boundary that the
solver is shown to optimise: the boundary of regime 1 (larger drift-to-variance
ratio and larger variance) lies above that of regime 2, and the regime-swapped
boundary loses to the solved one under common random numbers.  Criterion 9
asserts containment of {LG < -eps_sign} in the exact continuation set {F < 0}
(see "Regime ordering and containment" in the README).
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from conftest import criterion_lines, is_sentinel

from ultmax import cli, pinned
from ultmax.boundary import check_boundary_monotone, extract_boundary
from ultmax.gain import dG_dx, g_monte_carlo, g_pde, lg
from ultmax.grids import Grid
from ultmax.markov import derive_seed
from ultmax.model import validate
from ultmax.strategy import Policy, compare_policies
from ultmax.value import (
    check_F_monotone_t,
    check_normal_reflection,
    check_smooth_fit,
    containment_violations,
    solve_value,
)
from ultmax.volterra import volterra_residual

pytestmark = pytest.mark.acceptance

FIG = validate(pinned.make_model(pinned.FIGURE_MODEL))
IMMEDIATE = validate(pinned.make_model(pinned.IMMEDIATE_MODEL))
AT_MATURITY = validate(pinned.make_model(pinned.AT_MATURITY_MODEL))
SINGLE = validate(pinned.make_model(pinned.SINGLE_MODEL))

N_PATHS = 1_000_000
EVAL_STEPS = 500
SWAP_STEPS = 250


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    criterion_lines.append(line)


def solve_family(model, n_x=400, n_t=200):
    grid = Grid.for_model(model, n_x=n_x, n_t=n_t)
    surfaces = solve_value(model, grid, g_pde(model, grid))
    return grid, surfaces


@pytest.fixture(scope="module")
def fig_default():
    grid, S = solve_family(FIG)
    return grid, S, extract_boundary(S, pinned.TOL_ABS_DEFAULT)


@pytest.fixture(scope="module")
def policy_runs(fig_default):
    """One common-random-number pass per start regime at full path count.

    The boundary policy stops on first entry into the solver's own stopping
    set (exact detection): a blurred detection band would push the rule to
    stop early by the band width, a loss that no time refinement removes.
    """
    _, S, _ = fig_default
    exact = extract_boundary(S, tol_abs=0.0)
    pols = [Policy.from_boundary(exact), Policy.immediate(), Policy.at_maturity()]
    out = {}
    for j0 in (0, 1):
        out[j0] = compare_policies(FIG, pols, j0, N_PATHS, EVAL_STEPS, seed=515 + j0)
    return out


def test_criterion_01_immediate_exercise():
    start = time.monotonic()
    grid, S = solve_family(IMMEDIATE)
    boundary = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    elapsed = time.monotonic() - start
    rel = float(np.max(np.abs(S.F.values) / S.G.values))
    ok = rel <= 1e-3 and bool(np.all(boundary.b_raw == 1.0)) and elapsed < 60.0
    report(1, "immediate exercise family", ok, f"max|F|/G={rel:.2e}, {elapsed:.1f}s")
    assert rel <= 1e-3
    assert np.all(boundary.b_raw == 1.0)
    assert elapsed < 60.0


def test_criterion_02_exercise_at_maturity():
    grid, S = solve_family(AT_MATURITY)
    k_hi = grid.n_t - 5
    i_lo, i_hi = 5, int(np.searchsorted(grid.z, grid.z_max - np.log(2.0)))
    box_max = float(S.F.values[: k_hi + 1, i_lo : i_hi + 1, :].max())
    strict = extract_boundary(S, tol_abs=0.0)
    sentinel_ok = bool(np.all(is_sentinel(strict)[:-1]) and np.all(strict.b_raw[-1] == 1.0))
    blurred = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    n_blurred = int(np.isfinite(blurred.b_raw[:-1]).sum())
    ok = box_max < -pinned.AT_MATURITY_MARGIN and sentinel_ok
    report(
        2,
        "exercise at maturity family",
        ok,
        f"max F in box={box_max:.2e} < -{pinned.AT_MATURITY_MARGIN:g}; "
        f"sentinel at exact detection; {n_blurred} near-horizon slices absorbed at tol_abs default",
    )
    assert box_max < -pinned.AT_MATURITY_MARGIN
    assert sentinel_ok


def test_criterion_03_figure_reproduction():
    start = time.monotonic()
    grid, S = solve_family(FIG, n_t=pinned.FIGURE_N_T)
    boundary = extract_boundary(S, pinned.TOL_ABS_DEFAULT)
    mono = check_boundary_monotone(boundary, FIG)
    elapsed = time.monotonic() - start

    anchor_ok = bool(np.all(np.abs(np.log(boundary.b_smoothed[-1])) <= grid.dz))
    mono_ok = mono.n_violations == 0
    logb = np.log(boundary.b_smoothed)
    order_viol = int(np.sum(logb[:, 1] > logb[:, 0] + grid.dz))
    order_ok = order_viol == 0

    # Evidence for the ordering that does not rest on the solver's output:
    # the exact-detection boundary with its regime columns swapped must lose
    # to the solved one under common random numbers, from either start regime.
    exact = extract_boundary(S, tol_abs=0.0)
    swapped = dataclasses.replace(
        exact,
        b_raw=exact.b_raw[:, ::-1],
        b_smoothed=exact.b_smoothed[:, ::-1],
        node_index=exact.node_index[:, ::-1],
    )
    pols = [Policy.from_boundary(exact), Policy.from_boundary(swapped)]
    excess_se = []
    for j0 in (0, 1):
        _, pairs = compare_policies(FIG, pols, j0, N_PATHS, SWAP_STEPS, seed=303 + j0)
        excess_se.append(-pairs[0].diff / pairs[0].diff_se)
    swap_ok = all(z > 3.0 for z in excess_se)

    ok = anchor_ok and mono_ok and order_ok and swap_ok and elapsed < 120.0
    report(
        3,
        "figure-model qualitative reproduction",
        ok,
        f"anchor={anchor_ok}, monotone={mono_ok}, second-regime-below-first violated at "
        f"{order_viol}/{logb.shape[0]} time nodes, regime-swapped boundary loses by "
        + ", ".join(f"{z:.1f}" for z in excess_se)
        + f" paired SE, {elapsed:.1f}s",
    )
    assert anchor_ok and mono_ok and elapsed < 120.0
    assert order_ok, (
        f"b(t, regime 2) <= b(t, regime 1) + cell fails at {order_viol} of {logb.shape[0]} "
        f"time nodes (t=0: {boundary.b_smoothed[0, 0]:.4f} vs {boundary.b_smoothed[0, 1]:.4f})"
    )
    assert swap_ok, f"regime-swapped boundary's paired regret excess in SE by start regime: {excess_se}"


def test_criterion_04_pde_mc_cross_validation(fig_default):
    grid, S, _ = fig_default
    g = S.G.values
    worst = -np.inf
    ok = True
    for i, (t, x, j) in enumerate(pinned.probe_points(FIG)):
        k = grid.t_index(t)
        pde_val = float(np.interp(np.log(x), grid.z, g[k, :, j]))
        mc_val, se = g_monte_carlo(FIG, t, x, j, N_PATHS, seed=derive_seed(616, i))
        tol = 3.0 * se + pinned.C_PDE_MC * (grid.dz**2 + grid.dt)
        worst = max(worst, abs(pde_val - mc_val) / tol)
        ok &= abs(pde_val - mc_val) <= tol
    report(4, "lattice vs Monte Carlo gain at probes", ok, f"worst |diff|/tol={worst:.2f}")
    assert ok


def test_criterion_05_value_policy_consistency(fig_default, policy_runs):
    _, S, _ = fig_default
    ok = True
    details = []
    for j0 in (0, 1):
        estimates, _ = policy_runs[j0]
        est = next(e for e in estimates if e.policy.kind == "boundary")
        gap = abs(est.mean - S.V.values[0, 0, j0])
        tol = 3.0 * est.std_error + pinned.TOL_POLICY
        ok &= gap <= tol
        details.append(f"j0={j0 + 1}: gap={gap:.2e} tol={tol:.2e}")
    report(5, "value surface equals boundary-policy regret", ok, "; ".join(details))
    assert ok


def test_criterion_06_policy_dominance(policy_runs):
    ok = True
    for j0 in (0, 1):
        estimates, pairs = policy_runs[j0]
        assert estimates[0].policy.kind == "boundary"
        for pr in pairs:
            if pr.policy_a == "boundary":
                ok &= pr.diff <= 3.0 * pr.diff_se

    grid_i, S_i = solve_family(IMMEDIATE)
    b_i = extract_boundary(S_i, pinned.TOL_ABS_DEFAULT)
    _, pairs_i = compare_policies(IMMEDIATE, [Policy.from_boundary(b_i), Policy.immediate()], 0, 100_000, 100, seed=9)
    tie_i = pairs_i[0].diff == 0.0 and pairs_i[0].diff_se == 0.0

    grid_m, S_m = solve_family(AT_MATURITY)
    b_m = extract_boundary(S_m, tol_abs=0.0)
    _, pairs_m = compare_policies(AT_MATURITY, [Policy.from_boundary(b_m), Policy.at_maturity()], 1, 100_000, 100, seed=10)
    tie_m = pairs_m[0].diff == 0.0 and pairs_m[0].diff_se == 0.0

    ok = ok and tie_i and tie_m
    report(6, "boundary policy dominates; special families tie exactly", ok,
           f"ties: immediate={tie_i}, at-maturity={tie_m}")
    assert ok


def test_criterion_07_smooth_fit_refinement(fig_default):
    grid, S, boundary = fig_default
    coarse = check_smooth_fit(S, boundary).max_mismatch
    grid2, S2 = solve_family(FIG, n_x=799)
    b2 = extract_boundary(S2, pinned.TOL_ABS_DEFAULT)
    fine = check_smooth_fit(S2, b2).max_mismatch
    factor = coarse / fine
    ok = factor >= pinned.RICHARDSON_MIN_FACTOR and coarse <= pinned.C_SMOOTH_FIT * grid.dz
    report(7, "smooth fit mismatch halves with dx", ok,
           f"mismatch {coarse:.2e} -> {fine:.2e}, factor {factor:.2f}")
    assert coarse <= pinned.C_SMOOTH_FIT * grid.dz
    assert factor >= pinned.RICHARDSON_MIN_FACTOR


def test_criterion_08_normal_reflection_refinement(fig_default):
    grid, S, _ = fig_default
    coarse = check_normal_reflection(S).max_mismatch
    grid2, S2 = solve_family(FIG, n_x=799)
    fine = check_normal_reflection(S2).max_mismatch
    factor = coarse / fine
    ok = coarse <= pinned.C_NORMAL_REFLECTION * grid.dz and factor >= pinned.RICHARDSON_MIN_FACTOR
    report(8, "normal reflection at the floor", ok,
           f"max slope {coarse:.2e} <= {pinned.C_NORMAL_REFLECTION * grid.dz:.2e}, factor {factor:.2f}")
    assert coarse <= pinned.C_NORMAL_REFLECTION * grid.dz
    assert factor >= pinned.RICHARDSON_MIN_FACTOR


def test_criterion_09_containment(fig_default):
    totals = {}
    banded = {}
    lg_negative = {}
    min_gap = np.inf
    for name, model, (grid, S) in (
        ("figure", FIG, fig_default[:2]),
        ("immediate", IMMEDIATE, solve_family(IMMEDIATE)),
        ("at_maturity", AT_MATURITY, solve_family(AT_MATURITY)),
    ):
        image = lg(S.G, dG_dx(S.G, grid), model, grid)
        totals[name] = int(containment_violations(S, image, pinned.EPS_SIGN_DEFAULT).sum())
        mask = image.values[:-1] < -pinned.EPS_SIGN_DEFAULT
        lg_negative[name] = int(mask.sum())
        # Diagnostic only: how close the gap comes to zero on the LG-negative set.
        banded[name] = int(np.sum(mask & (S.F.values[:-1] >= -pinned.TOL_ABS_DEFAULT)))
        if mask.any():
            min_gap = min(min_gap, float(np.abs(S.F.values[:-1][mask]).min()))
    total = sum(totals.values())
    nonvacuous = lg_negative["figure"] > 0 and lg_negative["at_maturity"] > 0
    ok = total == 0 and nonvacuous
    report(9, "containment of {LG < -eps} in the continuation set", ok,
           f"violations={totals}, LG-negative nodes={lg_negative}; diagnostics: "
           f"nodes with F >= -tol_abs there={banded}, min |F| there={min_gap:.1e}")
    assert total == 0, f"nodes with LG < -eps_sign that stop (F >= 0): {totals}"
    assert nonvacuous, f"LG-negative set empty, containment checked on nothing: {lg_negative}"


def test_criterion_10_gap_monotone_in_time(fig_default):
    _, S, _ = fig_default
    rep = check_F_monotone_t(S)  # default tolerance: 1e-6 of the largest gap

    from ultmax.model import RegimeModel

    degenerate = validate(RegimeModel(mu=[0.0, 0.0], sigma=[0.5, 0.3], Q=FIG.Q, T=0.5))
    _, S0 = solve_family(degenerate)
    rep0 = check_F_monotone_t(S0)
    zero_gap = bool(np.all(S0.F.values == 0.0))
    ok = rep.n_violations == 0 and rep0.n_violations == 0 and zero_gap
    report(10, "gap nondecreasing in time", ok,
           f"figure worst decrease={rep.worst_decrease:.2e} (tol {rep.tol:.2e}); "
           f"zero-drift gap identically zero={zero_gap}")
    assert rep.n_violations == 0
    assert rep0.n_violations == 0 and zero_gap


def test_criterion_11_volterra_residual(fig_default):
    grid, S, boundary = fig_default
    rep_fig = volterra_residual(FIG, S, boundary, N_PATHS, 64, seed=717)
    med_fig = rep_fig.median_abs_relative()

    grid1, S1 = solve_family(SINGLE)
    b1 = extract_boundary(S1, pinned.TOL_ABS_DEFAULT)
    rep_one = volterra_residual(SINGLE, S1, b1, N_PATHS, 64, seed=718)
    med_one = rep_one.median_abs_relative()
    ok = med_fig <= 0.05 and med_one <= 0.05
    report(11, "boundary integral-equation residual", ok,
           f"median |relative|: figure={med_fig:.4f}, single-regime={med_one:.4f}")
    assert med_fig <= 0.05
    assert med_one <= 0.05


def test_criterion_12_bit_identical_reruns(tmp_path):
    # 140 000 paths make three blocks, the last one partial, so with two
    # threads two blocks run at once; every file must match one thread's.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "model:\n  mu: [0.15, 0.05]\n  sigma: [0.5, 0.3]\n"
        "  q: [[-2.5, 2.5], [2.0, -2.0]]\n  horizon: 0.5\n"
        "grid: {n_x: 120, n_t: 60}\n"
        "mc: {n_paths: 140000, n_steps: 40, seed: 31415}\n"
        "eval: {start_regime: 2, policies: ['boundary', 'immediate', 'at_maturity']}\n"
        "volterra: {n_quad: 8, report_every: 30}\n"
    )
    subs = ("solve", "boundary", "figure", "gcheck", "eval", "volterra")
    for threads in ("1", "2"):
        for sub in subs:
            out = tmp_path / f"{sub}_{threads}"
            rc = cli.main([sub, "--config", str(cfg), "--out", str(out), "--threads", threads])
            assert rc == 0, (sub, rc)
    ok = True
    for sub in subs:
        a, b = tmp_path / f"{sub}_1", tmp_path / f"{sub}_2"
        for f in sorted(p.name for p in a.iterdir()):
            same = filecmp.cmp(a / f, b / f, shallow=False)
            ok &= same
            assert same, (sub, f)
    report(12, "bit-identical outputs of every subcommand at 1 and 2 threads", ok)
    assert ok
