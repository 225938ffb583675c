import csv
import filecmp
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ultmax import cli, paths

FIG_YAML = """\
model:
  mu: [0.15, 0.05]
  sigma: [0.5, 0.3]
  q: [[-2.5, 2.5], [2.0, -2.0]]
  horizon: 0.5
grid:
  n_x: 120
  n_t: 60
mc:
  n_paths: 8000
  n_steps: 40
  seed: 4242
eval:
  start_regime: 1
  policies: ["boundary", "immediate", "at_maturity"]
volterra:
  n_quad: 8
  report_every: 30
"""


@pytest.fixture()
def config(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(FIG_YAML)
    return p


def run_cli(sub, config, out, extra=()):
    return cli.main([sub, "--config", str(config), "--out", str(out), *extra])


def read_header(path):
    return Path(path).read_text().splitlines()[0]


def test_solve_writes_surfaces_and_manifest(config, tmp_path):
    out = tmp_path / "solve"
    assert run_cli("solve", config, out) == 0
    assert read_header(out / "value_surface.csv") == "t,x,j,V,G,F"
    assert read_header(out / "lg_surface.csv") == "t,x,j,value"
    assert read_header(out / "h_level.csv") == "t,j,h"
    manifest = (out / "run_manifest.txt").read_text()
    assert "exercise_regime=general" in manifest
    assert "config_sha256=" in manifest
    assert "seed=4242" in manifest


def test_immediate_family_flagged_in_manifest(config, tmp_path):
    text = config.read_text().replace("mu: [0.15, 0.05]", "mu: [-0.05, -0.1]")
    p = config.parent / "imm.yaml"
    p.write_text(text)
    out = tmp_path / "imm"
    assert run_cli("solve", p, out) == 0
    assert "exercise_regime=immediate_exercise" in (out / "run_manifest.txt").read_text()


def test_boundary_subcommand(config, tmp_path):
    out = tmp_path / "bd"
    assert run_cli("boundary", config, out) == 0
    assert read_header(out / "boundary.csv") == "t,j,b_raw,b_smoothed,is_sentinel"
    lines = (out / "boundary.csv").read_text().splitlines()
    assert len(lines) == 1 + 61 * 2


def test_gcheck_and_eval_and_volterra(config, tmp_path):
    for sub, files in [
        ("gcheck", ["gain_surface.csv", "dgdx_surface.csv", "gcheck.csv"]),
        ("eval", ["eval.csv", "eval_pairs.csv"]),
        ("volterra", ["volterra.csv"]),
    ]:
        out = tmp_path / sub
        assert run_cli(sub, config, out) == 0
        for f in files:
            assert (out / f).exists(), (sub, f)
    header = read_header(tmp_path / "volterra" / "volterra.csv")
    assert header == "t,j,lhs,J,J_se,K_integral,K_se,residual,relative_residual"


def test_figure_pipeline_anchors_boundary(config, tmp_path):
    out = tmp_path / "fig"
    assert run_cli("figure", config, out) == 0
    manifest = (out / "run_manifest.txt").read_text()
    assert "terminal_anchor_ok=1" in manifest
    assert "monotone_violations=0" in manifest
    assert "regime2_below_regime1=1" in manifest  # the ordering acceptance criterion 3 asserts
    assert "n_t=100" in manifest  # pinned step count, not the config's


def test_identical_runs_are_bit_identical(config, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        for sub in ("solve", "boundary", "figure", "gcheck", "eval", "volterra"):
            out = tmp_path / f"{sub}_{tag}"
            assert run_cli(sub, config, out) == 0
        pairs.append(tmp_path)
    for sub in ("solve", "boundary", "figure", "gcheck", "eval", "volterra"):
        a, b = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        for f in sorted(p.name for p in a.iterdir()):
            assert filecmp.cmp(a / f, b / f, shallow=False), (sub, f)


def test_seed_flag_overrides_config(config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli("eval", config, out1, ["--seed", "1"]) == 0
    assert run_cli("eval", config, out2, ["--seed", "2"]) == 0
    assert (out1 / "eval.csv").read_text() != (out2 / "eval.csv").read_text()
    assert "seed=1" in (out1 / "run_manifest.txt").read_text()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_non_positive_threads_exits_2(config, tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", config, tmp_path / "threads", ["--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "threads").exists()


def test_negative_seed_exits_2(config, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("gcheck", config, tmp_path / "seed", ["--seed", "-3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "seed").exists()


@pytest.mark.parametrize("flag", ["--plot-script", "--paths-dump"])
@pytest.mark.parametrize("sub", sorted(cli.COMMANDS))
def test_removed_output_flags_exit_2(config, tmp_path, capsys, sub, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(sub, config, tmp_path / "flag", [flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


def test_invalid_generator_exits_2(config, tmp_path):
    bad = config.parent / "bad.yaml"
    bad.write_text(config.read_text().replace("[[-2.5, 2.5], [2.0, -2.0]]", "[[-1.0, 0.5], [2.0, -2.0]]"))
    assert run_cli("solve", bad, tmp_path / "bad") == 2
    assert not (tmp_path / "bad" / "value_surface.csv").exists()


def test_missing_seed_exits_2(config, tmp_path):
    nos = config.parent / "noseed.yaml"
    nos.write_text(config.read_text().replace("  seed: 4242\n", ""))
    assert run_cli("eval", nos, tmp_path / "noseed") == 2


def test_yaml_syntax_error_exits_2(tmp_path):
    broken = tmp_path / "broken.yaml"
    broken.write_text("model: [unclosed\n")
    assert run_cli("solve", broken, tmp_path / "x") == 2


def test_unknown_policy_exits_2(config, tmp_path):
    bad = config.parent / "pol.yaml"
    bad.write_text(config.read_text().replace('"immediate"', '"sometimes"'))
    assert run_cli("eval", bad, tmp_path / "pol") == 2


def test_too_coarse_time_grid_exits_3(config, tmp_path):
    coarse = config.parent / "coarse.yaml"
    coarse.write_text(config.read_text().replace("n_t: 60", "n_t: 2"))
    assert run_cli("solve", coarse, tmp_path / "coarse") == 3


def test_reaction_past_the_time_step_exits_3(config, tmp_path, capsys):
    # dt * mu = 0.025 * 100 = 2.5: the gain's implicit rows sum to 1 - dt * mu < 0,
    # where the run exited 0 with G(0, 1, 1) = -1.32e14.
    fast = config.parent / "fast.yaml"
    fast.write_text(config.read_text().replace("mu: [0.15, 0.05]", "mu: [100.0, 0.05]")
                    .replace("n_x: 120", "n_x: 30").replace("n_t: 60", "n_t: 20"))
    out = tmp_path / "fast"
    assert run_cli("solve", fast, out) == 3
    assert capsys.readouterr().err == (
        "solver error: regime 1: dt * reaction = 2.5 is not below 1.0, so the implicit rows' sum "
        "1 - dt * reaction is not positive; refine the time grid\n")
    assert not list(out.iterdir())


def test_far_edge_past_the_time_step_exits_3(tmp_path, capsys):
    # The value rows' far edge: dt * (D + a) * g / dz = 2.68 and 4.09 with D + a = sigma^2 - mu,
    # where those rows' diagonals went negative and the run exited 0 with V = -2816 beside G = 549.7.
    cfg = tmp_path / "edge.yaml"
    cfg.write_text("model: {mu: [0.45, -0.2], sigma: [1.0, 0.8], q: [[0, 0], [0.2, -0.2]], horizon: 2}\n"
                   "grid: {n_x: 12, n_t: 1}\nmc: {seed: 1}\n")
    out = tmp_path / "edge"
    assert run_cli("solve", cfg, out) == 3
    assert capsys.readouterr().err == (
        "solver error: regime 2: at the far edge dt * ((D + a) * g / dz + reaction) = 4.09 is not below 1.0, "
        "so that row's diagonal is not positive; refine the time grid\n")
    assert not list(out.iterdir())


def test_regime_jumps_past_the_round_limit_exit_3(tmp_path, capsys):
    # max |q_jj| * dt = 1e8 * 0.002 = 2e5 jumps a path step outrun the path engine's 100 000 rounds.  With no
    # boundary policy no lattice refuses the run first, and eval ended in a RuntimeError's traceback.
    cfg = tmp_path / "jumpy.yaml"
    cfg.write_text("model: {mu: [0.15, 0.05], sigma: [0.5, 0.3], horizon: 0.5,\n"
                   "        q: [[-1.0e8, 1.0e8], [1.0e8, -1.0e8]]}\n"
                   "grid: {n_x: 60, n_t: 30}\nmc: {n_paths: 10, n_steps: 250, seed: 1}\n"
                   'eval: {policies: ["immediate", "at_maturity"]}\n')
    out = tmp_path / "jumpy"
    assert run_cli("eval", cfg, out, ["--threads", "1"]) == 3
    assert capsys.readouterr().err == (
        "solver error: regime jump loop did not terminate in 100000 rounds of a step of dt = 0.002, "
        "max |q_jj| * dt = 200000; check Q scaling\n")
    assert not list(out.iterdir())


def test_regime_jumps_past_the_round_limit_are_refused_before_any_path_moves(tmp_path, capsys, monkeypatch):
    # Even the slower regime expects 1e8 * 0.002 = 2e5 > 1.5 x 100 000 jumps a step, so every path would reach
    # the round guard: map_blocks refuses the run before any block starts, where each block ran to the guard.
    def no_block(*args):
        raise AssertionError("a block of paths was advanced")

    monkeypatch.setattr(paths, "_advance_block", no_block)
    cfg = tmp_path / "jumpy.yaml"
    cfg.write_text("model: {mu: [0.15, 0.05], sigma: [0.5, 0.3], horizon: 0.5,\n"
                   "        q: [[-1.0e8, 1.0e8], [1.0e8, -1.0e8]]}\n"
                   "grid: {n_x: 60, n_t: 30}\nmc: {n_paths: 70000, n_steps: 250, seed: 1}\n"
                   'eval: {policies: ["immediate", "at_maturity"]}\n')
    out = tmp_path / "jumpy"
    assert run_cli("eval", cfg, out) == 3
    assert capsys.readouterr().err == (
        "solver error: regime jump loop did not terminate in 100000 rounds of a step of dt = 0.002, "
        "max |q_jj| * dt = 200000; check Q scaling\n")
    assert not list(out.iterdir())


def test_round_guard_refuses_a_step_the_up_front_rule_lets_start(tmp_path, capsys, monkeypatch):
    # Regime 3 absorbs, so min |q_jj| * dt = 0 and map_blocks starts the blocks; regimes 1 and 2 still swap
    # about 2e5 times a step, and the guard in the step loop stops the run at a round limit of 50.
    monkeypatch.setattr(paths, "_MAX_JUMP_ROUNDS", 50)
    cfg = tmp_path / "absorbing.yaml"
    cfg.write_text("model: {mu: [0.15, 0.05, 0.1], sigma: [0.5, 0.3, 0.4], horizon: 0.5,\n"
                   "        q: [[-1.0e8, 1.0e8, 0], [1.0e8, -1.0e8, 0], [0, 0, 0]]}\n"
                   "grid: {n_x: 60, n_t: 30}\nmc: {n_paths: 10, n_steps: 250, seed: 1}\n"
                   'eval: {policies: ["immediate", "at_maturity"]}\n')
    out = tmp_path / "absorbing"
    assert run_cli("eval", cfg, out, ["--threads", "1"]) == 3
    assert capsys.readouterr().err == (
        "solver error: regime jump loop did not terminate in 50 rounds of a step of dt = 0.002, "
        "max |q_jj| * dt = 200000; check Q scaling\n")
    assert not list(out.iterdir())


UNDERFLOW_YAML = """\
model: {{mu: [0.15, 0.05], sigma: [0.5, 0.3], q: [[-2.5, 2.5], [2.0, -2.0]], horizon: {horizon}}}
grid: {{n_x: 60, n_t: 200, z_max: 2.0}}
mc: {{n_paths: 2000, n_steps: 20, seed: 1}}
volterra: {{n_quad: 8, report_every: 10}}
"""


@pytest.mark.parametrize("horizon", ["1e-322", "1e-321"])
@pytest.mark.parametrize("sub", ["gcheck", "solve", "boundary", "volterra", "eval"])
def test_underflowing_time_step_exits_2_naming_the_horizon(tmp_path, capsys, sub, horizon):
    # horizon / n_t is below the smallest normal double: on dt = 0, gcheck divided by zero, volterra
    # rounded a nan, boundary warned and solve wrote dt=0; on dt = 4.9e-324 volterra warned.
    cfg = tmp_path / "brief.yaml"
    cfg.write_text(UNDERFLOW_YAML.format(horizon=horizon))
    out = tmp_path / "brief"
    assert run_cli(sub, cfg, out) == 2  # pytest.ini makes a RuntimeWarning an error
    assert capsys.readouterr().err == (
        f"config error: model.horizon: horizon = {float(horizon):g} over n_t = 200 steps is too small: "
        "the time step underflows\n")
    assert not out.exists()


def test_overflowing_lattice_coefficients_exit_3(config, tmp_path):
    # sigma^2 T = 684.5 is below the bound on its exponential and dz^2 = 4e-308 is
    # a normal double (both are config errors beyond that), but sigma^2 / dz^2
    # overflows.  In a subprocess, because computing the lattice coefficients
    # warns and this suite turns RuntimeWarning into an error.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    big = config.parent / "big.yaml"
    big.write_text(config.read_text().replace("sigma: [0.5, 0.3]", "sigma: [37, 0.3]")
                   .replace("n_t: 60", "n_t: 60\n  z_max: 2.38e-152"))
    out = tmp_path / "big"
    proc = subprocess.run([sys.executable, "-m", "ultmax.cli", "solve", "--config", str(big), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert "solver error: regime 1: lattice matrix" in proc.stderr
    assert not list(out.glob("*.csv"))


OVERFLOW_YAML = """\
model: {{mu: [{mu}], sigma: [{sigma}], q: [[0]], horizon: {horizon}}}
grid: {{n_x: 12, n_t: 1500, z_max: 10}}
mc: {{n_paths: 3000, n_steps: 8, seed: 11}}
eval: {{start_regime: 1, policies: ["boundary", "immediate", "at_maturity", {{threshold: [1.05]}}]}}
volterra: {{n_quad: 4, report_every: 2}}
"""


@pytest.mark.parametrize(
    "sub,scales",
    [("eval", (0.1, 37, 0.5)), ("eval", (-700, 0.3, 1)), ("volterra", (-700, 0.3, 1))],
    ids=["eval_sigma_37", "eval_mu_minus_700", "volterra_mu_minus_700"],
)
def test_overflowing_monte_carlo_moments_exit_3(tmp_path, capsys, sub, scales):
    # Inside every config bound, yet some sample is above 1.3e154, so its square
    # overflows: the run stops with a solver error and writes no file, where it
    # wrote a nan standard error beside RuntimeWarnings.
    cfg = tmp_path / "big.yaml"
    cfg.write_text(OVERFLOW_YAML.format(**dict(zip(("mu", "sigma", "horizon"), scales))))
    out = tmp_path / "big"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(sub, cfg, out) == 3
    assert "solver error: Monte Carlo sample" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not list(out.iterdir())


def test_property_failures_exit_4(config, tmp_path, monkeypatch):
    # No organic trigger exists at sane settings (the projection yields
    # exactly clean upper sets), so exercise the exit-code contract directly.
    def boom(out_dir, inputs):
        return {}, "synthetic"

    monkeypatch.setitem(cli.COMMANDS, "boundary", boom)
    assert run_cli("boundary", config, tmp_path / "p4") == 4

    from ultmax.boundary import NonMonotoneSlice

    def boom2(out_dir, inputs):
        raise NonMonotoneSlice("synthetic")

    monkeypatch.setitem(cli.COMMANDS, "solve", boom2)
    assert run_cli("solve", config, tmp_path / "p4b") == 4


def test_manifest_is_written_on_a_property_failure(config, tmp_path, monkeypatch, capsys):
    # A subcommand returns its manifest keys and the failed check's message;
    # run writes the manifest (base keys, then the subcommand's) and exits 4.
    def failing(out_dir, inputs):
        return {"synthetic_key": 1}, "synthetic"

    monkeypatch.setitem(cli.COMMANDS, "boundary", failing)
    out = tmp_path / "p4m"
    assert run_cli("boundary", config, out) == 4
    assert capsys.readouterr().err == "property-check failure: synthetic\n"
    manifest = read_kv(out / "run_manifest.txt")
    assert list(manifest) == [
        "subcommand", "library_version", "config_sha256", "seed", "exercise_regime", "n_x", "n_t", "z_max", "dz", "dt",
        "tol_abs", "eps_sign", "tol_scheme_pinned", "truncation_tail_bound", "synthetic_key",
    ]
    assert manifest["subcommand"] == "boundary" and manifest["seed"] == "4242" and manifest["synthetic_key"] == "1"


def test_csv_number_format_is_12_significant_digits(config, tmp_path):
    out = tmp_path / "fmt"
    assert run_cli("solve", config, out) == 0
    sample = (out / "value_surface.csv").read_text().splitlines()[1].split(",")
    assert sample[0] == "0"
    # 12 significant digits: at least one long mantissa in the V column
    assert any(len(v.replace(".", "").replace("-", "").lstrip("0")) >= 11
               for line in (out / "value_surface.csv").read_text().splitlines()[1:50]
               for v in line.split(",")[3:4])


@pytest.mark.parametrize(
    "sub, old, new, key",
    [
        ("solve", "  n_x: 120", '  n_x: "sixty"', "grid.n_x"),
        ("volterra", "report_every: 30", "report_every: 0", "volterra.report_every"),
        ("volterra", "n_quad: 8", "n_quad: 0", "volterra.n_quad"),
        ("eval", "  seed: 4242", '  seed: 4242\n  bridge_max: "false"', "mc.bridge_max"),
        ("eval", '"at_maturity"]', '"at_maturity", {threshold: [1.05]}]', "eval.policies"),
        ("eval", '["boundary", "immediate", "at_maturity"]', "[]", "eval.policies"),
        ("solve", "  n_t: 60", "  n_t: 60\n  z_max: .nan", "grid.z_max"),
        ("solve", "  n_t: 60", "  n_t: 60\n  z_max: .inf", "grid.z_max"),
        ("eval", "  seed: 4242", "  seed: -1", "mc.seed"),
        ("boundary", "volterra:\n", "tolerances: {tol_abs: .nan}\nvolterra:\n", "tolerances.tol_abs"),
        ("solve", "volterra:\n", "tolerances: {eps_sign: .nan}\nvolterra:\n", "tolerances.eps_sign"),
        ("solve", "sigma: [0.5, 0.3]", "sigma: [1e300, 0.3]", "model: sigma[0]"),
        ("boundary", "volterra:\n", "tolerances: {tol_abs: .inf}\nvolterra:\n", "tolerances.tol_abs: must be finite"),
        ("solve", "volterra:\n", "tolerances: {eps_sign: .inf}\nvolterra:\n", "tolerances.eps_sign: must be finite"),
        ("eval", '"at_maturity"]', '"at_maturity", {threshold: [1.05, 1.05], extra: 3}]', "eval.policies"),
        ("eval", '"at_maturity"]', '"at_maturity", {threshold: [.nan, .nan]}]', "eval.policies"),
        ("eval", '"at_maturity"]', '"at_maturity", {threshold: [[1.05, 1.05], [1.05, 1.05]]}]', "eval.policies"),
        ("eval", '"at_maturity"]', '"at_maturity", {threshold: [true, 1.1]}]',
         "eval.policies: {'threshold': [True, 1.1]}: entries must be numbers, got bool"),
        ("eval", '"at_maturity"]', '"at_maturity", {threshold: ["1.05", 1.1]}]',
         "eval.policies: {'threshold': ['1.05', 1.1]}: entries must be numbers, got str"),
        ("eval", '"at_maturity"]', '"at_maturity", {threshold: [1' + "0" * 400 + ', 1.1]}]',
         "eval.policies: {'threshold': [1" + "0" * 400 + ", 1.1]}: an integer entry is too large for a double"),
        ("solve", "mu: [0.15, 0.05]", "mu: [[0.15], [0.05]]", "model: mu must be a flat list"),
        ("solve", "mu: [0.15, 0.05]", "mu: [{a: 1}, 0.05]", "model.mu: entries must be numbers, got dict"),
        ("solve", "mu: [0.15, 0.05]", "mu: [true, 0.05]", "model.mu: entries must be numbers, got bool"),
        ("eval", "sigma: [0.5, 0.3]", 'sigma: [0.5, "0.3"]', "model.sigma: entries must be numbers, got str"),
        ("figure", "[2.0, -2.0]]", "[2.0, {b: -2.0}]]", "model.q: entries must be numbers, got dict"),
        ("solve", "mu: [0.15, 0.05]", "mu: [1e300, 0.05]", "model: |mu[0]| * horizon = 1e+300 * 0.5 exceeds"),
        ("solve", "mu: [0.15, 0.05]\n  sigma: [0.5, 0.3]\n  q: [[-2.5, 2.5], [2.0, -2.0]]\n  horizon: 0.5\ngrid:\n",
         "mu: [1e300, 0.05]\n  sigma: [0.5, 0.3]\n  q: [[-2.5, 2.5], [2.0, -2.0]]\n  horizon: 0.5\n"
         "grid:\n  z_max: 2.0\n",
         "model: |mu[0]| * horizon = 1e+300 * 0.5 exceeds"),
        ("eval", "mu: [0.15, 0.05]\n  sigma: [0.5, 0.3]\n  q: [[-2.5, 2.5], [2.0, -2.0]]\n  horizon: 0.5\n",
         "mu: [0.15]\n  sigma: [0.5]\n  q: [[0.0]]\n  horizon: 1e300\n",
         "model: |mu[0]| * horizon = 0.15 * 1e+300 exceeds"),
        ("solve", "sigma: [0.5, 0.3]", "sigma: [40, 0.3]", "model: sigma[0]^2 * horizon = 1600 * 0.5 exceeds"),
        ("solve", "  n_t: 60", "  n_t: 60\n  z_max: 1e300", "grid.z_max: z_max = 1e+300 is too large"),
        ("solve", "  n_t: 60", "  n_t: 60\n  z_max: 1e-300", "grid.z_max: z_max = 1e-300 is too small"),
        ("solve", "mu: [0.15, 0.05]", "mu: [1" + "0" * 400 + ", 0.05]", "model.mu: an integer entry is too large for a double"),
        ("eval", "horizon: 0.5", "horizon: 1" + "0" * 400, "model.horizon: an integer too large for a double"),
        ("eval", "[[-2.5, 2.5],", "[[1e-300, 0.0],", "model: positive diagonal rate Q[0,0] = 1e-300"),
        ("solve", "  n_x: 120", "  n_x: 4\n  z_max: 6.0", "grid.z_max: z_max = 6 over n_x - 1 = 3 steps"),
    ],
    ids=[
        "n_x_text", "report_every_0", "n_quad_0", "bridge_max_text", "threshold_count", "no_policies",
        "z_max_nan", "z_max_inf", "seed_negative", "tol_abs_nan", "eps_sign_nan", "sigma_square_overflows",
        "tol_abs_inf", "eps_sign_inf", "threshold_extra_key", "threshold_nan", "threshold_nested",
        "threshold_bool", "threshold_text", "threshold_huge_int", "mu_nested", "mu_dict", "mu_bool", "sigma_text",
        "q_dict", "mu_exp_overflows", "mu_exp_overflows_z_max_set",
        "horizon_exp_overflows", "sigma_exp_overflows", "z_max_exp_overflows", "z_max_spacing_underflows",
        "mu_huge_int", "horizon_huge_int", "q_positive_diagonal", "spacing_not_below_2",
    ],
)
def test_bad_config_value_exits_2_naming_the_key(config, tmp_path, capsys, sub, old, new, key):
    bad = config.parent / "badval.yaml"
    bad.write_text(config.read_text().replace(old, new))
    assert bad.read_text() != config.read_text()
    assert run_cli(sub, bad, tmp_path / "badval") == 2  # pytest.ini makes a RuntimeWarning an error
    assert key in capsys.readouterr().err
    assert not (tmp_path / "badval").exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("volterra:\n", "outpts: x\nvolterra:\n", "outpts"),
        ("  n_x: 120", "  n_x: 120\n  nx: 60", "grid.nx"),
        ('"at_maturity"]', '"at_maturity", {threshold: [1.05, 1.05], levels: 3}]', "eval.policies"),
    ],
    ids=["top_level", "in_a_section", "in_a_policy_entry"],
)
def test_unknown_key_exits_2_naming_it_before_any_output(config, tmp_path, capsys, old, new, key):
    bad = config.parent / "unknown.yaml"
    bad.write_text(config.read_text().replace(old, new))
    assert bad.read_text() != config.read_text()
    assert run_cli("eval", bad, tmp_path / "unknown") == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: unknown ")
    assert not (tmp_path / "unknown").exists()


def test_config_not_utf8_exits_2_naming_the_byte(config, tmp_path, capsys):
    bad = config.parent / "latin1.yaml"
    bad.write_bytes(b"# caf\xe9\n" + config.read_bytes())
    assert run_cli("solve", bad, tmp_path / "latin1") == 2
    assert capsys.readouterr().err == f"config error: cannot read config file {bad}: not UTF-8 at line 1 (byte offset 5)\n"
    assert not (tmp_path / "latin1").exists()


@pytest.mark.parametrize(
    "old, new, where, key",
    [
        ("  horizon: 0.5\n", "  horizon: 0.5\n  mu: [-0.2, -0.1]\n", "line 6, column 3", "mu"),
        ("model:\n  mu: [0.15, 0.05]\n  sigma: [0.5, 0.3]\n  q: [[-2.5, 2.5], [2.0, -2.0]]\n  horizon: 0.5\n",
         "model: {mu: [0.15, 0.05], sigma: [0.5, 0.3], q: [[-2.5, 2.5], [2.0, -2.0]], horizon: 0.5, mu: [-0.2, -0.1]}\n",
         "line 1, column 91", "mu"),
        ("volterra:\n", "model:\n  mu: [-0.2, -0.1]\nvolterra:\n", "line 16, column 1", "model"),
    ],
    ids=["block_key", "flow_key", "second_section"],
)
def test_repeated_config_key_exits_2_at_its_line(config, tmp_path, capsys, old, new, where, key):
    bad = config.parent / "repeated.yaml"
    bad.write_text(config.read_text().replace(old, new))
    assert bad.read_text() != config.read_text()
    assert run_cli("eval", bad, tmp_path / "repeated") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config parse error at {where}: ")
    assert f"found duplicate key '{key}'" in err
    assert not (tmp_path / "repeated").exists()


@pytest.mark.parametrize(
    "text, message, detail",
    [
        (FIG_YAML.replace("start_regime: 1", "start_regime: 3"),
         "eval.start_regime: regime label 3 outside 1..2", ""),
        ("- 1\n- 2\n", "config root must be a mapping", ""),
        ("model: 5\n", "model: expected a mapping, got int", ""),
        (None, "cannot read config file {path}: [Errno 2] No such file or directory: '{path}'", ""),
        ("{[1, 2]: 3}\n", "config parse error at line 1, column 2: while constructing a mapping",
         "found unhashable key"),
    ],
    ids=["start_regime_past_m", "root_a_list", "section_an_int", "missing_file", "unhashable_key"],
)
def test_config_refusals_exit_2_with_their_message(tmp_path, capsys, text, message, detail):
    cfg = tmp_path / "refused.yaml"
    if text is not None:
        cfg.write_text(text)
    assert run_cli("eval", cfg, tmp_path / "refused") == 2
    first, _, rest = capsys.readouterr().err.partition("\n")
    assert first == "config error: " + message.format(path=cfg)
    assert detail in rest if detail else rest == ""
    assert not (tmp_path / "refused").exists()


def test_gcheck_grid_below_its_largest_probe_exits_2(tmp_path, capsys):
    # The figure model at small volatilities has a default z_max of 0.771 <
    # log 3, where np.interp would read the lattice at e^{z_max} for x = 3.
    cfg = tmp_path / "narrow.yaml"
    cfg.write_text(
        "model: {mu: [0.15, 0.05], sigma: [0.05, 0.04], q: [[-2.5, 2.5], [2.0, -2.0]], horizon: 0.1}\n"
        "grid: {n_x: 60, n_t: 40}\nmc: {n_paths: 20000, seed: 3}\n"
    )
    assert run_cli("gcheck", cfg, tmp_path / "narrow") == 2
    assert capsys.readouterr().err == ("config error: grid.z_max: z_max = 0.771268 is too small for gcheck: "
                                       "its probe level x = 3 needs at least log 3 = 1.0986122886681098\n")
    assert not (tmp_path / "narrow").exists()
    loaded, _ = cli.load_config(cfg)
    loaded["grid"]["z_max"] = 1.0986122886681098
    assert cli.RunInputs(loaded, "gcheck", {}).grid.z_max == np.log(3.0)
    loaded["grid"]["z_max"] = np.nextafter(np.log(3.0), 0.0)
    with pytest.raises(cli.ConfigError, match="too small for gcheck"):
        cli.RunInputs(loaded, "gcheck", {})


def test_merged_config_keys_yield_to_written_ones(tmp_path):
    path = tmp_path / "merge.yaml"
    path.write_text("base: &base {n_x: 120, n_t: 60}\ngrid:\n  <<: *base\n  n_t: 30\n")
    cfg, _ = cli.load_config(path)
    assert cfg["grid"] == {"n_x": 120, "n_t": 30}


def test_shipped_config_reads_for_every_subcommand():
    cfg, _ = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / "two_state_positive_drift.yaml")
    for sub in cli.COMMANDS:
        inputs = cli.RunInputs(cfg, sub, {})
        assert inputs.seed == 20260808 and inputs.settings["outputs"] == "out/two_state", sub


def test_volterra_without_a_finite_boundary_node_reports_nan(config, tmp_path):
    # The at-maturity family stops only at the horizon, and reporting every
    # 5th of 12 time nodes never reaches it: the report has no rows.
    text = config.read_text().replace("mu: [0.15, 0.05]", "mu: [0.3, 0.5]")
    text = text.replace("sigma: [0.5, 0.3]", "sigma: [0.5, 0.7]").replace("n_t: 60", "n_t: 12")
    mat = config.parent / "mat.yaml"
    mat.write_text(text.replace("report_every: 30", "report_every: 5"))
    out = tmp_path / "mat"
    assert run_cli("volterra", mat, out) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    assert "exercise_regime=exercise_at_maturity" in manifest
    assert "median_abs_relative_residual=nan" in manifest
    assert len((out / "volterra.csv").read_text().splitlines()) == 1


def test_explicit_zero_tolerances_are_kept(config, tmp_path):
    exact = config.parent / "exact.yaml"
    exact.write_text(config.read_text() + "tolerances: {tol_abs: 0, eps_sign: 0}\n")
    out = tmp_path / "exact"
    assert run_cli("boundary", exact, out) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    assert "tol_abs=0" in manifest and "eps_sign=0" in manifest


@pytest.mark.parametrize(
    "sub, old, new, line",
    [
        ("boundary", "volterra:\n", "tolerances: {tol_abs: 1e-3}\nvolterra:\n", "tol_abs=0.001"),
        ("solve", "  n_t: 60", "  n_t: 60\n  z_max: 2e0", "z_max=2"),
    ],
    ids=["tol_abs", "z_max"],
)
def test_exponent_floats_are_read_as_floats(config, tmp_path, sub, old, new, line):
    # YAML 1.1 reads 1e-3 and 2e0 (no dot, no exponent sign) as text.
    exp = config.parent / "exp.yaml"
    exp.write_text(config.read_text().replace(old, new))
    out = tmp_path / "exp"
    assert run_cli(sub, exp, out) == 0
    assert line in (out / "run_manifest.txt").read_text().splitlines()


def test_exponent_float_reading_keeps_ints_and_quoted_text(tmp_path):
    cfg = tmp_path / "forms.yaml"
    cfg.write_text('a: [1e-3, 1E3, 1e300, 1.0e300, -2.5E-2, .5e1]\nb: [3, "1e3", 1e, e3]\n')
    loaded, _ = cli.load_config(cfg)
    assert loaded["a"] == [1e-3, 1e3, 1e300, 1e300, -2.5e-2, 5.0] and all(type(v) is float for v in loaded["a"])
    assert loaded["b"] == [3, "1e3", "1e", "e3"]


def test_eval_csvs_parse_with_a_csv_reader(config, tmp_path):
    thr = config.parent / "thr.yaml"
    thr.write_text(config.read_text().replace('"at_maturity"]', '"at_maturity", {threshold: [1.05, 1.05]}]'))
    out = tmp_path / "thr"
    assert run_cli("eval", thr, out) == 0
    for name in ("eval.csv", "eval_pairs.csv"):
        with open(out / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == (4 if name == "eval.csv" else 6)
        assert all(len(row) == len(header) for row in rows), name
        assert "threshold(1.05,1.05)" in {field for row in rows for field in row}
    with open(out / "eval.csv", newline="") as fh:
        assert all(int(row["n_paths"]) == 8000 for row in csv.DictReader(fh))


def test_eval_without_a_boundary_policy_reads_no_lattice(config, tmp_path, monkeypatch):
    # One time step is too coarse for the lattice (max |q_jj| * dt = 1.25 exceeds 0.5),
    # which exited 3 although neither policy reads the lattice.
    text = config.read_text().replace('["boundary", "immediate", "at_maturity"]', '["immediate", "at_maturity"]')
    coarse = config.parent / "coarse.yaml"
    coarse.write_text(text.replace("n_x: 120", "n_x: 12").replace("n_t: 60", "n_t: 1"))
    assert run_cli("eval", coarse, tmp_path / "coarse") == 0
    assert (tmp_path / "coarse" / "eval.csv").is_file()

    def no_lattice(*args):
        raise AssertionError("g_pde called")

    monkeypatch.setattr(cli, "g_pde", no_lattice)
    fine = config.parent / "fine.yaml"
    fine.write_text(text)
    assert run_cli("eval", fine, tmp_path / "fine") == 0


# ---------------------------------------------------------------------------
# Golden bytes: the sha256 of every file these runs write.  The values were
# recorded once and must not move unless an output format changes on purpose;
# two runs of the same tree (test_identical_runs_are_bit_identical) cannot
# catch a format change.  All but one are small; ``solve_full_size`` runs the
# shipped model's 400 x 200 grid, so the surface CSVs' spelling is pinned
# across many more exponents than 12 x 6 nodes reach.
# ---------------------------------------------------------------------------

SMALL_YAML = """\
model:
  mu: [0.15, 0.05]
  sigma: [0.5, 0.3]
  q: [[-2.5, 2.5], [2.0, -2.0]]
  horizon: 0.5
grid:
  n_x: 12
  n_t: 6
mc:
  n_paths: 3000
  n_steps: 8
  seed: 11
eval:
  start_regime: 1
  policies: ["boundary", "immediate", "at_maturity", {threshold: [1.05, 1.05]}]
volterra:
  n_quad: 4
  report_every: 2
"""

# At-maturity family (mu >= sigma^2 in every regime) with zero tolerances, so
# the boundary is the +inf sentinel before the horizon.
AT_MATURITY_YAML = SMALL_YAML.replace("mu: [0.15, 0.05]", "mu: [0.3, 0.2]") + "tolerances: {tol_abs: 0, eps_sign: 0}\n"
FULL_SIZE_YAML = SMALL_YAML.replace("n_x: 12", "n_x: 400").replace("n_t: 6", "n_t: 200")
ONE_POLICY_YAML = SMALL_YAML.replace(
    'policies: ["boundary", "immediate", "at_maturity", {threshold: [1.05, 1.05]}]', 'policies: ["boundary"]'
)

GOLDEN_RUNS = {
    "solve_at_maturity": ("solve", AT_MATURITY_YAML),
    "solve_full_size": ("solve", FULL_SIZE_YAML),
    "boundary_at_maturity": ("boundary", AT_MATURITY_YAML),
    "figure": ("figure", SMALL_YAML),
    "gcheck": ("gcheck", SMALL_YAML),
    "eval_threshold": ("eval", SMALL_YAML),
    "eval_one_policy": ("eval", ONE_POLICY_YAML),
    "volterra": ("volterra", SMALL_YAML),
}

GOLDEN_SHA256 = {
    "boundary_at_maturity": {
        "boundary.csv": "e226beb3eb36030e458657fc6207de1059a3a6f9d015f110728f0f29f705c8f9",
        "boundary.csv.gp": "321c1c7444af6d79577d27b61df03aa91cfd3fb7507deca51af96c663ca44580",
        "boundary_report.txt": "730e4ecd578289f76919ab4e37b8b7fece331f196cbac9d1538897561dfe2ec5",
        "run_manifest.txt": "28901ebe995bff50dc520d3cfccf032c0565770ba8ae9a2e1c49244a56cf0050",
    },
    "eval_one_policy": {
        "eval.csv": "6395b4c6e4e54ead8c2a4e75b504becd16dc509e62c57e8d0688b71be724e466",
        "eval_pairs.csv": "699f4a5d7576f64976e5428716ec86fd1dd3929c4b032c39d28b909b0aff6079",
        "run_manifest.txt": "dd96f00c8adb60db5efad7dde6d5e1ea3dac2b315f9a194cb4e6e353b705ea6d",
    },
    "eval_threshold": {
        "eval.csv": "2c56254b5d5164202012d373fcc8cf6cc20ece896e16e7c6738c679e8dd064ea",
        "eval_pairs.csv": "1b30f6d246952138dab8bce92d27d554833358c407127d09b410b24b86101303",
        "run_manifest.txt": "a1282b68e4f23d9da64cd64a4253658b4c8a9fb284fed5c3e6030e94d987f94b",
    },
    "figure": {
        "boundary.csv": "de629ec0302e9aa4190314c5c06dc5352ffb08d2450366afc1a9039a28530794",
        "boundary.csv.gp": "321c1c7444af6d79577d27b61df03aa91cfd3fb7507deca51af96c663ca44580",
        "run_manifest.txt": "6b0b3afc8c71ffd830017cfbb19a5f38374c8ad4f527761caadb4f19943ff199",
        "value_surface.csv": "6359b8f4ae1f45bc50a78476b6aae5611c00755bd2d8a00b6cd2a0bf599b8fb1",
    },
    "gcheck": {
        "dgdx_surface.csv": "e0c880f62c2cd878e7f3918fc6487c100fc7f7a24ec453200d23a33fc8bc89a7",
        "gain_surface.csv": "d4bf4edef1939e29176a6fb7e3837dce987372295dee5f515bc696e67064df33",
        "gcheck.csv": "c5c85d2318fd6c71e0c97caa920b0d6d95031769a1e7df1376c17ab6a85f5594",
        "run_manifest.txt": "51544248023d6c3fcc3933dd5bbf3d9a19071df57ac0ea43352578bcfceb47bd",
    },
    "solve_at_maturity": {
        "h_level.csv": "a0345f111be62d0c3607b61ba61943b95266731342edf812f4fd40ded3a7c81a",
        "h_level.csv.gp": "66c5227998c8c742d36786b5cf0532e90aff0dda6a6fdc735c286ff419d84840",
        "lg_surface.csv": "75d19edd4f3eca83fe64ef8db65331c029e8864ca0bf5b3767e31eb907d83f2f",
        "run_manifest.txt": "afed359f6d794c820d3f01427c37b935d08c0327d269a74bd3f041d9be9b925c",
        "value_surface.csv": "be801481c164a12ffe148fe221adb1827507df8ac63a1346a4929366682a5c57",
    },
    "solve_full_size": {
        "h_level.csv": "3571cb34e06f2b78608b46a18231da6746e2c609450c74dba344f277f4790813",
        "h_level.csv.gp": "66c5227998c8c742d36786b5cf0532e90aff0dda6a6fdc735c286ff419d84840",
        "lg_surface.csv": "bba0808ac5519e201f68c6b30b9567ed101205d645553f231d6b32627ee3c9be",
        "run_manifest.txt": "52bc96394bffe3d53dce1a29bb87e74b9345c6ecf444f85657ed96dcabd4244c",
        "value_surface.csv": "9b62bf75e21d2c5e30f5ddc58127edb1b7d8a90b55cfb2d0d818b5f54ac4881c",
    },
    "volterra": {
        "run_manifest.txt": "18ca6d20dc06d8b97303855cd0f19f9d08c709275e93baaa4b636492ccbf6b78",
        "volterra.csv": "a2c9727f08e99e2be05786b05d56ca10c2140a023f8faa1633908facdd5c616b",
    },
}


def output_hashes(case, tmp_path):
    """Run one golden case; return its exit code and {file name: sha256}."""
    import hashlib

    sub, text = GOLDEN_RUNS[case]
    cfg = tmp_path / f"{case}.yaml"
    cfg.write_text(text)
    out = tmp_path / case
    rc = run_cli(sub, cfg, out)
    return rc, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_output_bytes_match_golden_hashes(case, tmp_path):
    rc, hashes = output_hashes(case, tmp_path)
    assert rc == 0
    assert hashes == GOLDEN_SHA256[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_output_bytes_match_golden_hashes_on_the_python_replay(case, tmp_path, python_replay):
    test_output_bytes_match_golden_hashes(case, tmp_path)


def row_by_row_csv(header, blocks, keys=()):
    """What ``_write_csv`` writes, spelled as the writer it replaced did: ``spec % row`` per row.

    A block's 0-d columns are repeated down its rows and the keys put after
    them, so every row is a full tuple; each column's spec comes from its type.
    """
    specs = {"b": "%d", "i": "%d", "u": "%d", "f": "%.12g"}

    def column(col):
        if col.dtype.kind in specs:
            return specs[col.dtype.kind], col.tolist()
        return "%s", ['"' + v.replace('"', '""') + '"' if "," in v or '"' in v else v for v in col.tolist()]

    text = ",".join(header) + "\n"
    for block in blocks:
        block = [np.asarray(col) for col in block]
        n_lead = next((i for i, col in enumerate(block) if col.ndim), len(block))
        n = len(keys[0]) if len(keys) else len(block[n_lead]) if n_lead < len(block) else 0
        full = [np.full(n, col) for col in block[:n_lead]] + [np.asarray(k) for k in keys] + block[n_lead:]
        cols = [column(col) for col in full]
        spec = ",".join(s for s, _ in cols) + "\n"
        text += "".join(spec % row for row in zip(*(values for _, values in cols)))
    return text


SPECIAL = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e300])
BIG = np.array([2**53 + 1, 2**63 - 1, -(2**63), 0, 7, -1], dtype=np.int64)
TEXT = np.array(["a,b", 'say "hi"', "50%", "%d%%", "plain", ""])

# Each case is a header and the tables written one after another, each a list of columns.
WRITER_CASES = {
    "special_floats": (["t", "v", "w"], [[SPECIAL, SPECIAL[::-1], -SPECIAL]]),
    "big_ints_int16_bools": (
        ["big", "state", "flag", "u"],
        [[BIG, np.array([1, 2, 3, 0, -4, 32767], dtype=np.int16), np.arange(6) % 2 == 0,
          np.array([2**64 - 1, 0, 1, 2**53 + 3, 5, 6], dtype=np.uint64)]],
    ),
    # Text is written as a value, so no "%" in it reaches a row template.
    "text_with_comma_quote_percent": (["text", "n", "back"], [[TEXT, np.arange(6), TEXT[::-1]]]),
    "single_row_blocks": (
        ["t", "j", "v"],
        [[np.array([1e300]), np.array([3], dtype=np.int16), TEXT[2:3]], [np.array([5e-324]), [7], np.array([True])]],
    ),
    # No rows: no columns at all (the header-only eval_pairs.csv of one policy), or columns of no entries.
    "no_rows": (["a", "b", "c"], [[], [np.empty(0), np.empty(0, dtype=np.int64), np.array([], dtype=str)]]),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_write_csv_matches_the_row_by_row_writer(case, tmp_path):
    header, tables = WRITER_CASES[case]
    path = tmp_path / "out.csv"
    cli._write_csv(path, header, (cli._table(*columns) for columns in tables))
    assert path.read_bytes() == row_by_row_csv(header, tables).encode()


class SliceLog:
    """A stand-in surface whose time slices record when they are read."""

    def __init__(self, values, read):
        self.slices, self.read = values, read

    @property
    def values(self):
        for k, values in enumerate(self.slices):
            self.read.append(k)
            yield values


@pytest.mark.parametrize("m", [1, 3])
def test_surface_matches_the_row_by_row_writer_one_slice_at_a_time(m, tmp_path):
    from types import SimpleNamespace

    t = np.array([-np.inf, np.nan, -0.0, 5e-324, 0.5])
    x = np.concatenate([SPECIAL, [1.0, 2.5]])
    grid = SimpleNamespace(t=t, x=x, n_x=x.size, m=m)
    rng = np.random.default_rng(m)
    surfaces = [rng.standard_normal((t.size, x.size, m)) * 10.0 ** rng.integers(-300, 300, (t.size, x.size, m))
                for _ in range(m)]
    surfaces[0][1, 2] = [np.inf, np.nan, -0.0][:m]
    read = []
    chunks = cli._surface(grid, *(SliceLog(s, read) for s in surfaces))
    assert read == []
    first = next(chunks)
    assert read == [0] * m  # one slice of each surface, none beyond it
    path = tmp_path / "surface.csv"
    header = ["t", "x", "j", *(f"v{i}" for i in range(m))]
    cli._write_csv(path, header, [first, *chunks])
    assert read == [k for k in range(t.size) for _ in range(m)]
    blocks = [[t[k], *(s[k].ravel() for s in surfaces)] for k in range(t.size)]
    keys = [np.repeat(x, m), np.tile(np.arange(1, m + 1), x.size)]
    assert path.read_bytes() == row_by_row_csv(header, blocks, keys).encode()


@pytest.mark.parametrize(
    "sub, gp, y_cols",
    [("solve", "h_level.csv.gp", (3,)), ("boundary", "boundary.csv.gp", (3, 4)), ("figure", "boundary.csv.gp", (3, 4))],
)
def test_plot_script_has_one_clause_per_regime_and_series(config, tmp_path, sub, gp, y_cols):
    out = tmp_path / sub
    assert run_cli(sub, config, out) == 0
    text = (out / gp).read_text()
    assert text.count("plot ") == 1
    csv_name = gp[: -len(".gp")]
    for j in (1, 2):
        for y in y_cols:
            clause = f"'{csv_name}' using 1:(column(2)=={j} ? column({y}) : 1/0) with lines title 'regime {j} col{y}'"
            assert text.count(clause) == 1, clause
    assert text.count(" with lines ") == 2 * len(y_cols)


def read_kv(path):
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


def test_boundary_report_keys(config, tmp_path):
    out = tmp_path / "report"
    assert run_cli("boundary", config, out) == 0
    report = read_kv(out / "boundary_report.txt")
    assert list(report) == [
        "monotone_applicable", "monotone_violations", "max_jump_cells", "max_jump_per_sqrt_dt", "continuity_bound",
    ]
    assert report["monotone_applicable"] == "1" and report["monotone_violations"] == "0"
    assert float(report["max_jump_per_sqrt_dt"]) >= 0.0 and float(report["continuity_bound"]) > 0.0
    # The report's lines are repeated in the manifest.
    assert read_kv(out / "run_manifest.txt").items() >= report.items()

    # Negative drifts: the monotonicity check does not apply.
    neg = config.parent / "neg.yaml"
    neg.write_text(config.read_text().replace("mu: [0.15, 0.05]", "mu: [-0.05, 0.1]"))
    assert run_cli("boundary", neg, tmp_path / "neg") == 0
    assert read_kv(tmp_path / "neg" / "boundary_report.txt") == {"monotone_applicable": "0"}


@pytest.mark.parametrize("key", ["--out", "outputs"])
def test_output_path_that_is_a_file_exits_2(config, tmp_path, capsys, key):
    taken = tmp_path / "some_file"
    taken.write_text("not a directory\n")
    if key == "--out":
        argv = ["boundary", "--config", str(config), "--out", str(taken)]
    else:
        in_cfg = config.parent / "outputs.yaml"
        in_cfg.write_text(config.read_text() + f"outputs: {taken}\n")
        argv = ["boundary", "--config", str(in_cfg)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: cannot create output directory")
    assert taken.read_text() == "not a directory\n"
