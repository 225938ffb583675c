"""Command-line entry points: configure, run, and emit reproducible artifacts.

One YAML config file drives every subcommand; see the schema in the README.
Regimes are 1-based in configs and output files (matching how the model
families are usually written down), 0-based inside the library.

Every run writes the requested CSVs plus a ``run_manifest.txt`` recording the
config hash, seed, library version, pinned tolerances and derived grid
quantities, so any output file can be traced to the exact inputs.  CSVs are
UTF-8, comma-separated, one header row, LF endings; a column's format is
fixed by its type (integers and flags in full, reals to 12 significant
digits, text quoted as RFC 4180 has it when it holds a comma or a quote).
Identical config and seed reproduce every file byte for byte.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 property-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import paths, pinned
from .boundary import NonMonotoneSlice, check_boundary_monotone, extract_boundary
from .gain import dG_dx, g_monte_carlo, g_pde, h_level, lg
from .grids import Grid, truncation_tail_bound
from .markov import derive_seed
from .model import ModelError, NotApplicable, RegimeModel, classify, validate
from .paths import simulate_paths
from .stepping import GridTooCoarse
from .strategy import Policy, compare_policies, evaluate_policy
from .value import solve_value
from .volterra import volterra_residual

__all__ = ["main", "run", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PROPERTY = 4

_MAX_DUMPED_PATHS = 1000


class ConfigError(ValueError):
    """Configuration problem, reported with its config-file location."""


class PropertyCheckFailure(RuntimeError):
    pass


# How a number is spelled, by numpy dtype kind: integers and bools in full,
# everything else to 12 significant digits (which spells inf, -inf and nan).
_NUMBER_SPECS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.12g"}


def _fmt(text: str) -> str:
    """A CSV text field; quoting one with a comma keeps ``threshold(1.05,1.05)`` one field."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def _column(col):
    """The format of one CSV column, fixed once from its type, and its values."""
    col = np.asarray(col)
    if col.dtype.kind in _NUMBER_SPECS:
        return _NUMBER_SPECS[col.dtype.kind], col.tolist()
    return "%s", [_fmt(v) for v in col.tolist()]


def _write_csv(path: Path, header, blocks) -> None:
    """Write ``header`` and then each block, an iterable of equal-length columns."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            cols = [_column(col) for col in block]
            spec = ",".join(s for s, _ in cols) + "\n"
            fh.writelines(spec % row for row in zip(*(values for _, values in cols)))


def _write_kv(path: Path, entries: dict) -> None:
    """``key=value`` lines; numbers spelled as in the CSVs, text unquoted."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={_NUMBER_SPECS.get(np.asarray(v).dtype.kind, '%s') % v}\n")


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------


_REQUIRED = object()


def _need(cfg: dict, path: str, kind, default=_REQUIRED, minimum=None):
    """The config value at the dotted ``path``, checked to be a ``kind``.

    Every config read goes through here, so a bad value is a ConfigError that
    names its key.  An absent or null key gives ``default`` (an absent
    section, all defaults); without a default the key is required.  A float
    key accepts integers; no numeric key accepts a bool.
    """
    *sections, key = path.split(".")
    sec = cfg
    for depth, name in enumerate(sections):
        sec = sec.get(name)
        if sec is None:
            sec = {}
        elif not isinstance(sec, dict):
            raise ConfigError(f"{'.'.join(sections[: depth + 1])}: expected a mapping, got {type(sec).__name__}")
    val = sec.get(key)
    if val is None:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key")
        return default
    accepted = (int, float) if kind is float else kind
    if not isinstance(val, accepted) or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(val).__name__}")
    val = kind(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {val}")
    return val


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{loc}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    cfg["_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return cfg


def build_model(cfg: dict) -> RegimeModel:
    mu = _need(cfg, "model.mu", list)
    sigma = _need(cfg, "model.sigma", list)
    q = _need(cfg, "model.q", list)
    horizon = _need(cfg, "model.horizon", float)
    try:
        return validate(RegimeModel(mu=mu, sigma=sigma, Q=q, T=horizon))
    except (ModelError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def build_grid(cfg: dict, model: RegimeModel, n_t_override: int | None = None) -> Grid:
    n_x = _need(cfg, "grid.n_x", int, 400, minimum=3)
    n_t = n_t_override if n_t_override is not None else _need(cfg, "grid.n_t", int, 200, minimum=1)
    z_max = _need(cfg, "grid.z_max", float, None)
    try:
        return Grid.for_model(model, n_x=n_x, n_t=n_t, z_max=z_max)
    except ValueError as exc:  # n_x and n_t are checked above, so it is z_max
        raise ConfigError(f"grid.z_max: {exc}") from exc


def run_seed(cfg: dict, seed_override: int | None, default=_REQUIRED) -> int:
    """``--seed`` if given, else ``mc.seed`` (runs are never seeded from the clock)."""
    return seed_override if seed_override is not None else _need(cfg, "mc.seed", int, default, minimum=0)


def mc_settings(cfg: dict, seed_override: int | None) -> dict:
    return dict(
        n_paths=_need(cfg, "mc.n_paths", int, minimum=1),
        n_steps=_need(cfg, "mc.n_steps", int, 250, minimum=1),
        seed=run_seed(cfg, seed_override),
        bridge_max=_need(cfg, "mc.bridge_max", bool, True),
    )


def tolerance_settings(cfg: dict) -> dict:
    return dict(
        tol_abs=_need(cfg, "tolerances.tol_abs", float, pinned.TOL_ABS_DEFAULT, minimum=0.0),
        eps_sign=_need(cfg, "tolerances.eps_sign", float, pinned.EPS_SIGN_DEFAULT, minimum=0.0),
    )


def _start_regime(cfg: dict, m: int) -> int:
    j = _need(cfg, "eval.start_regime", int, 1, minimum=1)
    if j > m:
        raise ConfigError(f"eval.start_regime: regime label {j} outside 1..{m}")
    return j - 1


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _solve_all(model, grid):
    surface_g = g_pde(model, grid)
    surfaces = solve_value(model, grid, surface_g)
    return surface_g, surfaces


def _surface_blocks(grid, *surfaces):
    """CSV blocks of (t, x, regime, each surface's value), one time slice each.

    A slice at a time keeps the formatted rows of a whole surface out of memory.
    """
    x = np.repeat(grid.x, grid.m)
    j = np.tile(np.arange(1, grid.m + 1), grid.n_x)
    for k in range(grid.n_t + 1):
        yield [np.full(x.size, grid.t[k]), x, j, *(s.values[k].ravel() for s in surfaces)]


def _write_boundary(out_dir: Path, boundary, plot_script: bool) -> None:
    grid = boundary.grid
    t, j = np.repeat(grid.t, grid.m), np.tile(np.arange(1, grid.m + 1), grid.n_t + 1)
    b_raw = boundary.b_raw.ravel()
    block = [t, j, b_raw, boundary.b_smoothed.ravel(), ~np.isfinite(b_raw)]
    _write_csv(out_dir / "boundary.csv", ["t", "j", "b_raw", "b_smoothed", "is_sentinel"], [block])
    if plot_script:
        _plot_script(out_dir, "boundary.csv", 1, (3, 4), 2, grid.m, "stopping boundary by regime")


def _base_manifest(cfg, model, grid, tols, subcommand, seed) -> dict:
    from . import __version__

    return {
        "subcommand": subcommand,
        "library_version": __version__,
        "config_sha256": cfg["_sha256"],
        "seed": seed,
        "exercise_regime": classify(model).value,
        "n_x": grid.n_x,
        "n_t": grid.n_t,
        "z_max": grid.z_max,
        "dz": grid.dz,
        "dt": grid.dt,
        "tol_abs": tols["tol_abs"],
        "eps_sign": tols["eps_sign"],
        "tol_scheme_pinned": pinned.TOL_SCHEME,
        "truncation_tail_bound": truncation_tail_bound(model, grid.z_max),
    }


def _plot_script(out_dir: Path, csv_name: str, x_col: int, y_cols, series_col: int, m: int, title: str) -> None:
    """Tiny gnuplot helper next to a CSV; plotting stays out of process."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key autotitle columnhead",
    ]
    plots = []
    for j in range(1, m + 1):
        for y in y_cols:
            plots.append(
                f"'{csv_name}' using {x_col}:(column({series_col})=={j} ? column({y}) : 1/0) "
                f"with lines title 'regime {j} col{y}'"
            )
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(out_dir / (csv_name + ".gp"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _dump_paths(out_dir: Path, model, mc) -> None:
    n = min(mc["n_paths"], _MAX_DUMPED_PATHS)
    b = simulate_paths(model, 0.0, 0, n, mc["n_steps"], mc["seed"], mc["bridge_max"])
    step = np.arange(b.n_steps + 1)
    blocks = ([np.full(step.size, p), step, b.times, b.states[p] + 1, b.y[p], b.ymax[p]] for p in range(n))
    _write_csv(out_dir / "paths.csv", ["path_id", "step", "t", "state", "y", "ymax"], blocks)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gcheck(args, cfg, out_dir):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    mc = mc_settings(cfg, args.seed)
    tols = tolerance_settings(cfg)
    surface_g = g_pde(model, grid)
    surface_d = dG_dx(surface_g, grid)

    probes = pinned.probe_points(model)
    pde, mc_val, se = np.empty((3, len(probes)))
    for i, (t, x, j) in enumerate(probes):
        pde[i] = np.interp(np.log(x), grid.z, surface_g.values[grid.t_index(t), :, j])
        mc_val[i], se[i] = g_monte_carlo(
            model, t, x, j, mc["n_paths"], derive_seed(mc["seed"], i), bridge_max=mc["bridge_max"]
        )
    t, x, j = map(np.array, zip(*probes))
    tol = 3.0 * se + pinned.C_PDE_MC * (grid.dz**2 + grid.dt)
    ok = np.abs(pde - mc_val) <= tol

    _write_csv(out_dir / "gain_surface.csv", ["t", "x", "j", "value"], _surface_blocks(grid, surface_g))
    _write_csv(out_dir / "dgdx_surface.csv", ["t", "x", "j", "value"], _surface_blocks(grid, surface_d))
    _write_csv(
        out_dir / "gcheck.csv",
        ["t", "x", "j", "pde", "mc", "mc_se", "diff", "tol", "pass"],
        [[t, x, j + 1, pde, mc_val, se, pde - mc_val, tol, ok]],
    )
    manifest = _base_manifest(cfg, model, grid, tols, "gcheck", mc["seed"])
    manifest["dgdx_clamp_fraction"] = surface_d.info["clamp_fraction"]
    manifest["gcheck_pass"] = int(ok.all())
    _write_kv(out_dir / "run_manifest.txt", manifest)
    if args.paths_dump:
        _dump_paths(out_dir, model, mc)
    if not ok.all():
        raise PropertyCheckFailure("lattice and Monte Carlo gain estimates disagree beyond tolerance")
    return EXIT_OK


def cmd_solve(args, cfg, out_dir):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    tols = tolerance_settings(cfg)
    seed = run_seed(cfg, args.seed, 0)
    surface_g, surfaces = _solve_all(model, grid)
    surface_d = dG_dx(surface_g, grid)
    surface_lg = lg(surface_g, surface_d, model, grid)

    vgf = _surface_blocks(grid, surfaces.V, surfaces.G, surfaces.F)
    _write_csv(out_dir / "value_surface.csv", ["t", "x", "j", "V", "G", "F"], vgf)
    _write_csv(out_dir / "lg_surface.csv", ["t", "x", "j", "value"], _surface_blocks(grid, surface_lg))
    h = [h_level(surface_lg, grid, j, tols["eps_sign"]) for j in range(grid.m)]
    h_blocks = [[grid.t, np.full(grid.t.size, j + 1), h[j]] for j in range(grid.m)]
    _write_csv(out_dir / "h_level.csv", ["t", "j", "h"], h_blocks)
    if args.plot_script:
        _plot_script(out_dir, "h_level.csv", 1, (3,), 2, grid.m, "sign-change level by regime")
    _write_kv(out_dir / "run_manifest.txt", _base_manifest(cfg, model, grid, tols, "solve", seed))
    return EXIT_OK


def cmd_boundary(args, cfg, out_dir):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    tols = tolerance_settings(cfg)
    seed = run_seed(cfg, args.seed, 0)
    _, surfaces = _solve_all(model, grid)
    boundary = extract_boundary(surfaces, tols["tol_abs"])
    _write_boundary(out_dir, boundary, args.plot_script)

    manifest = _base_manifest(cfg, model, grid, tols, "boundary", seed)
    report_lines = {}
    failed = False
    try:
        rep = check_boundary_monotone(boundary, model)
        report_lines.update(
            monotone_applicable=1,
            monotone_violations=rep.n_violations,
            max_jump_cells=rep.max_jump_cells,
            max_jump_per_sqrt_dt=rep.max_jump_per_sqrt_dt,
            continuity_bound=pinned.C_BOUNDARY_CONTINUITY * np.sqrt(grid.dt) / grid.dz,
        )
        failed = rep.n_violations > 0 or rep.max_jump_per_sqrt_dt > pinned.C_BOUNDARY_CONTINUITY
    except NotApplicable:
        report_lines["monotone_applicable"] = 0
    manifest.update(report_lines)
    _write_kv(out_dir / "run_manifest.txt", manifest)
    _write_kv(out_dir / "boundary_report.txt", report_lines)
    if failed:
        raise PropertyCheckFailure("boundary monotonicity/continuity check failed")
    return EXIT_OK


def cmd_volterra(args, cfg, out_dir):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    mc = mc_settings(cfg, args.seed)
    tols = tolerance_settings(cfg)
    n_quad = _need(cfg, "volterra.n_quad", int, 64, minimum=1)
    report_every = _need(cfg, "volterra.report_every", int, 10, minimum=1)
    _, surfaces = _solve_all(model, grid)
    boundary = extract_boundary(surfaces, tols["tol_abs"])
    rep = volterra_residual(
        model, surfaces, boundary, mc["n_paths"], n_quad, mc["seed"],
        report_every=report_every, bridge_max=mc["bridge_max"],
    )
    _write_csv(
        out_dir / "volterra.csv",
        ["t", "j", "lhs", "J", "J_se", "K_integral", "K_se", "residual", "relative_residual"],
        [[rep.t, rep.regime + 1, rep.lhs, rep.J, rep.J_se, rep.K_integral, rep.K_se, rep.residual,
          rep.relative_residual]],
    )
    manifest = _base_manifest(cfg, model, grid, tols, "volterra", mc["seed"])
    manifest["n_quad"] = n_quad
    manifest["median_abs_relative_residual"] = rep.median_abs_relative()
    manifest["n_extrapolated_samples"] = rep.n_extrapolated
    _write_kv(out_dir / "run_manifest.txt", manifest)
    return EXIT_OK


def _build_policies(cfg, model, surfaces, tols):
    names = _need(cfg, "eval.policies", list, ["boundary", "immediate", "at_maturity"])
    policies = []
    need_boundary = any(p == "boundary" for p in names)
    boundary = extract_boundary(surfaces, tols["tol_abs"]) if need_boundary else None
    for p in names:
        if p == "boundary":
            policies.append(Policy.from_boundary(boundary))
        elif p == "immediate":
            policies.append(Policy.immediate())
        elif p == "at_maturity":
            policies.append(Policy.at_maturity())
        elif isinstance(p, dict) and "threshold" in p:
            try:
                policies.append(Policy.fixed_threshold(p["threshold"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"eval.policies: {p!r}: {exc}") from exc
            if policies[-1].levels.shape[0] != model.m:
                raise ConfigError(f"eval.policies: {p!r}: need one threshold level per regime")
        else:
            raise ConfigError(f"eval.policies: unknown policy {p!r}")
    if not policies:
        raise ConfigError("eval.policies: empty list")
    return policies


def cmd_eval(args, cfg, out_dir):
    model = build_model(cfg)
    grid = build_grid(cfg, model)
    mc = mc_settings(cfg, args.seed)
    tols = tolerance_settings(cfg)
    j0 = _start_regime(cfg, model.m)
    _, surfaces = _solve_all(model, grid)
    policies = _build_policies(cfg, model, surfaces, tols)
    if len(policies) == 1:
        est = evaluate_policy(model, policies[0], j0, mc["n_paths"], mc["n_steps"], mc["seed"], mc["bridge_max"])
        estimates, pairs = [est], []
    else:
        estimates, pairs = compare_policies(
            model, policies, j0, mc["n_paths"], mc["n_steps"], mc["seed"], mc["bridge_max"]
        )
    rows = [(e.policy.name(), j0 + 1, e.mean, e.std_error, e.n_paths) for e in estimates]
    _write_csv(out_dir / "eval.csv", ["policy", "j0", "mean", "std_error", "n_paths"], [zip(*rows)])
    rows = [(p.policy_a, p.policy_b, p.diff, p.diff_se) for p in pairs]
    _write_csv(out_dir / "eval_pairs.csv", ["policy_a", "policy_b", "diff", "diff_se"], [zip(*rows)])
    _write_kv(out_dir / "run_manifest.txt", _base_manifest(cfg, model, grid, tols, "eval", mc["seed"]))
    return EXIT_OK


def cmd_figure(args, cfg, out_dir):
    """End-to-end reproduction of the two-state positive-drift pipeline.

    The model, horizon and 100-step time grid are pinned constants; the config
    contributes only the seed, tolerances and output location.
    """
    model = validate(pinned.make_model(pinned.FIGURE_MODEL))
    grid = build_grid(cfg, model, n_t_override=pinned.FIGURE_N_T)
    tols = tolerance_settings(cfg)
    seed = run_seed(cfg, args.seed, 0)
    _, surfaces = _solve_all(model, grid)
    boundary = extract_boundary(surfaces, tols["tol_abs"])

    vgf = _surface_blocks(grid, surfaces.V, surfaces.G, surfaces.F)
    _write_csv(out_dir / "value_surface.csv", ["t", "x", "j", "V", "G", "F"], vgf)
    _write_boundary(out_dir, boundary, args.plot_script)

    manifest = _base_manifest(cfg, model, grid, tols, "figure", seed)
    anchor_ok = bool(np.all(np.abs(np.log(boundary.b_smoothed[-1])) <= grid.dz))
    rep = check_boundary_monotone(boundary, model)
    ordering = bool(np.all(np.log(boundary.b_smoothed[:, 1]) <= np.log(boundary.b_smoothed[:, 0]) + grid.dz))
    manifest.update(
        terminal_anchor_ok=int(anchor_ok),
        monotone_violations=rep.n_violations,
        regime2_below_regime1=int(ordering),
    )
    _write_kv(out_dir / "run_manifest.txt", manifest)
    if not anchor_ok or rep.n_violations > 0:
        raise PropertyCheckFailure("figure pipeline boundary failed its anchor/monotonicity checks")
    return EXIT_OK


COMMANDS = {
    "gcheck": cmd_gcheck,
    "solve": cmd_solve,
    "boundary": cmd_boundary,
    "volterra": cmd_volterra,
    "eval": cmd_eval,
    "figure": cmd_figure,
}


def run(subcommand: str, args) -> int:
    try:
        cfg = load_config(args.config)
        key = "--out" if args.out is not None else "outputs"
        out_dir = Path(args.out if args.out is not None else _need(cfg, "outputs", str, "."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{key}: cannot create output directory {out_dir}: {exc}") from exc
        return COMMANDS[subcommand](args, cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GridTooCoarse as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (PropertyCheckFailure, NonMonotoneSlice) as exc:
        # NonMonotoneSlice means the surfaces were too noisy to extract a
        # boundary at this tolerance: a property failure, not a config one.
        print(f"property-check failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


def _at_least(low: int):
    """An argparse type: a decimal integer no smaller than ``low``."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return int(text)

    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ultmax",
        description="Optimal selling at the ultimate maximum under regime switching.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the YAML run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config `outputs`)")
    parser.add_argument("--seed", type=_at_least(0), default=None, help="override the config seed")
    parser.add_argument(
        "--threads", type=_at_least(1), default=len(os.sched_getaffinity(0)),
        help="worker threads for Monte Carlo blocks (default: the available cores; outputs do not depend on it)",
    )
    parser.add_argument("--paths-dump", action="store_true", help="also dump simulated paths (debugging)")
    parser.add_argument("--plot-script", action="store_true", help="emit gnuplot scripts next to plottable CSVs")
    args = parser.parse_args(argv)
    paths.threads = args.threads
    return run(args.subcommand, args)


if __name__ == "__main__":
    sys.exit(main())
