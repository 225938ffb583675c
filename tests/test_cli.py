import csv
import filecmp
from pathlib import Path

import pytest

from ultmax import cli

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


def test_paths_dump_flag(config, tmp_path):
    out = tmp_path / "dump"
    assert run_cli("gcheck", config, out, ["--paths-dump"]) == 0
    assert read_header(out / "paths.csv") == "path_id,step,t,state,y,ymax"


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


def test_property_failures_exit_4(config, tmp_path, monkeypatch):
    # No organic trigger exists at sane settings (the projection yields
    # exactly clean upper sets), so exercise the exit-code contract directly.
    def boom(args, cfg, out_dir):
        raise cli.PropertyCheckFailure("synthetic")

    monkeypatch.setitem(cli.COMMANDS, "boundary", boom)
    assert run_cli("boundary", config, tmp_path / "p4") == 4

    from ultmax.boundary import NonMonotoneSlice

    def boom2(args, cfg, out_dir):
        raise NonMonotoneSlice("synthetic")

    monkeypatch.setitem(cli.COMMANDS, "solve", boom2)
    assert run_cli("solve", config, tmp_path / "p4b") == 4


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
    ],
    ids=["n_x_text", "report_every_0", "n_quad_0", "bridge_max_text", "threshold_count", "no_policies"],
)
def test_bad_config_value_exits_2_naming_the_key(config, tmp_path, capsys, sub, old, new, key):
    bad = config.parent / "badval.yaml"
    bad.write_text(config.read_text().replace(old, new))
    assert bad.read_text() != config.read_text()
    assert run_cli(sub, bad, tmp_path / "badval") == 2
    assert key in capsys.readouterr().err


def test_explicit_zero_tolerances_are_kept(config, tmp_path):
    exact = config.parent / "exact.yaml"
    exact.write_text(config.read_text() + "tolerances: {tol_abs: 0, eps_sign: 0}\n")
    out = tmp_path / "exact"
    assert run_cli("boundary", exact, out) == 0
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    assert "tol_abs=0" in manifest and "eps_sign=0" in manifest


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
