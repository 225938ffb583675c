"""Command-line entry points: configure, run, and emit reproducible artifacts.

One YAML config file drives every subcommand; see the schema in the README.
Regimes are 1-based in configs and output files (matching how the model
families are usually written down), 0-based inside the library.

Every run writes its subcommand's CSVs plus a ``run_manifest.txt`` recording
the config hash, seed, library version, pinned tolerances and derived grid
quantities, so any output file can be traced to the exact inputs.  CSVs are
UTF-8, comma-separated, one header row, LF endings; a column's format is
fixed by its type (integers and flags in full, reals to 12 significant
digits, text quoted as RFC 4180 has it when it holds a comma or a quote).
One writer, ``_write_csv``, writes every CSV from chunks of two shapes: a
table (``_table``) and a surface, one time slice at a time (``_surface``).
Identical config and seed reproduce every file byte for byte.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 property-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from . import paths, pinned
from .boundary import NonMonotoneSlice, check_boundary_monotone, extract_boundary
from .gain import dG_dx, g_monte_carlo, g_pde, h_level, lg
from .grids import DEFAULT_N_T, DEFAULT_N_X, Grid, truncation_tail_bound
from .markov import derive_seed
from .model import ModelError, NotApplicable, RegimeModel, classify
from .stepping import GridTooCoarse
from .strategy import Policy, compare_policies
from .value import solve_value
from .volterra import volterra_residual

__all__ = ["main", "run", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PROPERTY = 4


class ConfigError(ValueError):
    """Configuration problem, reported with its config-file location."""


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


def _table(*columns):
    """A table as one ``(template, values)`` chunk: a row per entry of the columns."""
    cols = [_column(col) for col in columns]
    rows = list(zip(*(values for _, values in cols)))
    return (",".join(spec for spec, _ in cols) + "\n") * len(rows), tuple(chain.from_iterable(rows))


def _surface(grid, *surfaces):
    """A surface file's ``(template, values)`` chunks, one per time slice: rows of t, x, j, each surface's value.

    x and the 1-based regime j are spelled once per file and t once per
    slice, into the slice's template; only the surface values are formatted
    into it, and only one slice's rows are in memory at a time.
    """
    spec = ",".join(["%.12g"] * len(surfaces))
    template, fields = _table(np.repeat(grid.x, grid.m), np.tile(np.arange(1, grid.m + 1), grid.n_x))
    rows = ["", *(f"{node},{spec}\n" for node in (template % fields).splitlines())]  # "" puts t before the first row
    for t, *values in zip(grid.t, *(s.values for s in surfaces)):
        yield ("%.12g," % t).join(rows), tuple(np.stack(values, axis=-1).ravel().tolist())


def _write_csv(path: Path, header, chunks) -> None:
    """Write ``header``, then ``template % values`` for each chunk; text is only ever in values, never in a template."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for template, values in chunks:
            fh.write(template % values)


def _write_kv(path: Path, entries: dict) -> None:
    """``key=value`` lines; numbers spelled as in the CSVs, text unquoted."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={_NUMBER_SPECS.get(np.asarray(v).dtype.kind, '%s') % v}\n")


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------


_REQUIRED = object()
_ALL = ("gcheck", "solve", "boundary", "volterra", "eval", "figure")
_LATTICE = _ALL[:5]  # figure pins the model and the time steps
_PATHS = ("gcheck", "volterra", "eval")  # the subcommands that simulate paths

# Every key a config may hold: dotted key -> (type, default or _REQUIRED,
# minimum, the subcommands that read it).  The README's table lists the same.
CONFIG_KEYS = {
    "model.mu": (list, _REQUIRED, None, _LATTICE),
    "model.sigma": (list, _REQUIRED, None, _LATTICE),
    "model.q": (list, _REQUIRED, None, _LATTICE),
    "model.horizon": (float, _REQUIRED, None, _LATTICE),
    "grid.n_x": (int, DEFAULT_N_X, 3, _ALL),
    "grid.n_t": (int, DEFAULT_N_T, 1, _LATTICE),
    "grid.z_max": (float, None, None, _ALL),
    "mc.n_paths": (int, _REQUIRED, 1, _PATHS),
    "mc.n_steps": (int, 250, 1, ("eval",)),
    "mc.seed": (int, _REQUIRED, 0, _PATHS),
    "mc.bridge_max": (bool, True, None, _PATHS),
    "tolerances.tol_abs": (float, pinned.TOL_ABS_DEFAULT, 0.0, _ALL),
    "tolerances.eps_sign": (float, pinned.EPS_SIGN_DEFAULT, 0.0, _ALL),
    "eval.start_regime": (int, 1, 1, ("eval",)),
    "eval.policies": (list, ["boundary", "immediate", "at_maturity"], None, ("eval",)),
    "volterra.n_quad": (int, 64, 1, ("volterra",)),
    "volterra.report_every": (int, 10, 1, ("volterra",)),
    "outputs": (str, ".", None, _ALL),
}
_SECTIONS = {key.split(".")[0] for key in CONFIG_KEYS if "." in key}


def _numbers(key: str, value) -> None:
    """Refuse a list entry, at any depth, that is no number (a bool, text, a mapping) or no double holds."""
    for entry in value:
        if isinstance(entry, list):
            _numbers(key, entry)
        elif isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ConfigError(f"{key}: entries must be numbers, got {type(entry).__name__}")
        elif isinstance(entry, int) and abs(entry) > sys.float_info.max:
            raise ConfigError(f"{key}: an integer entry is too large for a double")


def _need(cfg: dict, path: str, kind, default, minimum):
    """The config value at ``path`` (``key``, or ``section.key`` of a mapping or null), checked.

    An absent or null key gives ``default``; without a default the key is
    required.  The value must be a ``kind``: a float key accepts integers and
    must be finite; no numeric key accepts a bool; a model list holds numbers.
    """
    section, _, key = path.rpartition(".")
    val = (cfg.get(section) or {}).get(key) if section else cfg.get(key)
    if val is None:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key")
        return default
    accepted = (int, float) if kind is float else kind
    if not isinstance(val, accepted) or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(val).__name__}")
    if kind is list and section == "model":
        _numbers(path, val)
    if kind is float and isinstance(val, int) and abs(val) > sys.float_info.max:
        raise ConfigError(f"{path}: an integer too large for a double")
    val = kind(val)
    if minimum is not None and not val >= minimum:  # nan fails too
        raise ConfigError(f"{path}: must be at least {minimum}, got {val}")
    if kind is float and not np.isfinite(val):
        raise ConfigError(f"{path}: must be finite, got {val}")
    return val


def read_config(cfg: dict, subcommand: str, overrides: dict) -> dict:
    """Every key of ``CONFIG_KEYS`` by dotted key, each checked whichever subcommand runs.

    A key not in the table is an error.  One that ``subcommand`` does not read
    is None if absent.  A flag's value in ``overrides``, unless None, replaces
    its key's, which is then not required.
    """
    for name, sec in cfg.items():
        if name in _SECTIONS and not isinstance(sec, (dict, type(None))):
            raise ConfigError(f"{name}: expected a mapping, got {type(sec).__name__}")
        for key in [f"{name}.{k}" for k in sec or {}] if name in _SECTIONS else [name]:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{key}: unknown key")
    settings = {}
    for key, (kind, default, minimum, readers) in CONFIG_KEYS.items():
        flag = overrides.get(key)
        value = _need(cfg, key, kind, default if subcommand in readers and flag is None else None, minimum)
        settings[key] = value if flag is None else flag
    return settings


class _ConfigLoader(yaml.SafeLoader):
    """The safe loader, also reading ``1e-3`` and ``1.0e300`` as floats (YAML 1.1 wants a dot and an exponent sign)."""

    def construct_mapping(self, node, deep=False):
        """Refuse a key written twice in one mapping; keys a ``<<`` merge brings in still yield to written ones."""
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                try:
                    repeated = key in seen
                except TypeError:
                    continue  # unhashable: the base constructor refuses it
                if repeated:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$")
_ConfigLoader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))


def load_config(path: str) -> tuple[dict, str]:
    """The parsed config file and the sha256 of its text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(
            f"cannot read config file {path}: not UTF-8 at line {line} (byte offset {exc.start})"
        ) from exc
    try:
        cfg = yaml.load(text, _ConfigLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{loc}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg, hashlib.sha256(text.encode()).hexdigest()


def _policy(entry, m: int):
    """One ``eval.policies`` entry as a Policy; ``"boundary"`` stays a name until the boundary is solved."""
    if entry in ("boundary", "immediate", "at_maturity"):
        return entry if entry == "boundary" else getattr(Policy, entry)()
    if not isinstance(entry, dict) or list(entry) != ["threshold"]:
        raise ConfigError(f"eval.policies: unknown policy {entry!r}")
    levels = entry["threshold"]
    _numbers(f"eval.policies: {entry!r}", levels if isinstance(levels, list) else [levels])
    try:
        policy = Policy.fixed_threshold(levels)
    except ValueError as exc:
        raise ConfigError(f"eval.policies: {entry!r}: {exc}") from exc
    if policy.levels.shape != (m,):
        raise ConfigError(f"eval.policies: {entry!r}: need one threshold level per regime")
    return policy


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


class RunInputs:
    """Everything a subcommand reads from its config, checked before any output is written.

    ``figure`` pins the model and the time steps.  The seed is ``--seed`` if
    given, else ``mc.seed``, else 0 for a subcommand that simulates nothing;
    runs are never seeded from the clock.
    """

    def __init__(self, cfg: dict, subcommand: str, overrides: dict):
        self.settings = s = read_config(cfg, subcommand, overrides)
        figure = subcommand == "figure"
        try:
            self.model = (pinned.make_model(pinned.FIGURE_MODEL) if figure else
                          RegimeModel(s["model.mu"], s["model.sigma"], s["model.q"], s["model.horizon"]))
        except (ModelError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from exc
        try:
            n_t = pinned.FIGURE_N_T if figure else s["grid.n_t"]
            self.grid = Grid.for_model(self.model, n_x=s["grid.n_x"], n_t=n_t, z_max=s["grid.z_max"])
        except ValueError as exc:  # n_x and n_t are checked above, so it is the time step or z_max
            key = "model.horizon" if str(exc).startswith("horizon") else "grid.z_max"
            raise ConfigError(f"{key}: {exc}") from exc
        x_probe = max(x for _, x, _ in pinned.PROBE_POINTS)
        if subcommand == "gcheck" and self.grid.z_max < np.log(x_probe):  # np.interp would clamp at z_max
            raise ConfigError(f"grid.z_max: z_max = {self.grid.z_max:g} is too small for gcheck: its probe level "
                              f"x = {x_probe:g} needs at least log {x_probe:g} = {float(np.log(x_probe))!r}")
        self.seed = s["mc.seed"] or 0  # a subcommand that simulates nothing may have none
        self.mc = dict(n_paths=s["mc.n_paths"], n_steps=s["mc.n_steps"], seed=self.seed, bridge_max=s["mc.bridge_max"])
        if subcommand == "eval":
            self.j0 = s["eval.start_regime"] - 1
            if self.j0 >= self.model.m:
                raise ConfigError(f"eval.start_regime: regime label {self.j0 + 1} outside 1..{self.model.m}")
            self.policies = [_policy(entry, self.model.m) for entry in s["eval.policies"]]
            if not self.policies:
                raise ConfigError("eval.policies: empty list")

    def surfaces(self):
        return solve_value(self.model, self.grid, g_pde(self.model, self.grid))

    def boundary(self, surfaces):
        return extract_boundary(surfaces, self.settings["tolerances.tol_abs"])


def _write_value_surface(out_dir: Path, surfaces) -> None:
    vgf = _surface(surfaces.grid, surfaces.V, surfaces.G, surfaces.F)
    _write_csv(out_dir / "value_surface.csv", ["t", "x", "j", "V", "G", "F"], vgf)


def _write_boundary(out_dir: Path, boundary) -> None:
    grid = boundary.grid
    t, j = np.repeat(grid.t, grid.m), np.tile(np.arange(1, grid.m + 1), grid.n_t + 1)
    b_raw = boundary.b_raw.ravel()
    table = _table(t, j, b_raw, boundary.b_smoothed.ravel(), ~np.isfinite(b_raw))
    _write_csv(out_dir / "boundary.csv", ["t", "j", "b_raw", "b_smoothed", "is_sentinel"], [table])
    _plot_script(out_dir, "boundary.csv", (3, 4), grid.m, "stopping boundary by regime")


def _base_manifest(config_sha256: str, subcommand: str, inputs: RunInputs) -> dict:
    from . import __version__

    model, grid = inputs.model, inputs.grid
    return {
        "subcommand": subcommand,
        "library_version": __version__,
        "config_sha256": config_sha256,
        "seed": inputs.seed,
        "exercise_regime": classify(model).value,
        "n_x": grid.n_x,
        "n_t": grid.n_t,
        "z_max": grid.z_max,
        "dz": grid.dz,
        "dt": grid.dt,
        "tol_abs": inputs.settings["tolerances.tol_abs"],
        "eps_sign": inputs.settings["tolerances.eps_sign"],
        "tol_scheme_pinned": pinned.TOL_SCHEME,
        "truncation_tail_bound": truncation_tail_bound(model, grid.z_max),
    }


def _plot_script(out_dir: Path, csv_name: str, y_cols, m: int, title: str) -> None:
    """Tiny gnuplot helper next to a CSV of t, j, ...: columns ``y_cols`` against t, one series per regime."""
    lines = ["set datafile separator ','", f"set title '{title}'", "set key autotitle columnhead"]
    plots = []
    for j in range(1, m + 1):
        for y in y_cols:
            plots.append(
                f"'{csv_name}' using 1:(column(2)=={j} ? column({y}) : 1/0) "
                f"with lines title 'regime {j} col{y}'"
            )
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(out_dir / (csv_name + ".gp"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.  Each writes its own files and returns the keys it adds to the
# run manifest and the message of a failed property check (None if none).
# ---------------------------------------------------------------------------


def cmd_gcheck(out_dir, inputs):
    model, grid, mc = inputs.model, inputs.grid, inputs.mc
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

    _write_csv(out_dir / "gain_surface.csv", ["t", "x", "j", "value"], _surface(grid, surface_g))
    _write_csv(out_dir / "dgdx_surface.csv", ["t", "x", "j", "value"], _surface(grid, surface_d))
    table = _table(t, x, j + 1, pde, mc_val, se, pde - mc_val, tol, ok)
    _write_csv(out_dir / "gcheck.csv", ["t", "x", "j", "pde", "mc", "mc_se", "diff", "tol", "pass"], [table])
    keys = {"dgdx_clamp_fraction": surface_d.info["clamp_fraction"], "gcheck_pass": int(ok.all())}
    return keys, None if ok.all() else "lattice and Monte Carlo gain estimates disagree beyond tolerance"


def cmd_solve(out_dir, inputs):
    model, grid = inputs.model, inputs.grid
    surfaces = inputs.surfaces()
    surface_d = dG_dx(surfaces.G, grid)
    surface_lg = lg(surfaces.G, surface_d, model, grid)

    _write_value_surface(out_dir, surfaces)
    _write_csv(out_dir / "lg_surface.csv", ["t", "x", "j", "value"], _surface(grid, surface_lg))
    h = [h_level(surface_lg, grid, j, inputs.settings["tolerances.eps_sign"]) for j in range(grid.m)]
    t, j = np.tile(grid.t, grid.m), np.repeat(np.arange(1, grid.m + 1), grid.n_t + 1)
    _write_csv(out_dir / "h_level.csv", ["t", "j", "h"], [_table(t, j, np.concatenate(h))])
    _plot_script(out_dir, "h_level.csv", (3,), grid.m, "sign-change level by regime")
    return {}, None


def cmd_boundary(out_dir, inputs):
    grid = inputs.grid
    boundary = inputs.boundary(inputs.surfaces())
    _write_boundary(out_dir, boundary)

    report = {}
    failed = False
    try:
        rep = check_boundary_monotone(boundary, inputs.model)
        report.update(
            monotone_applicable=1,
            monotone_violations=rep.n_violations,
            max_jump_cells=rep.max_jump_cells,
            max_jump_per_sqrt_dt=rep.max_jump_per_sqrt_dt,
            continuity_bound=pinned.C_BOUNDARY_CONTINUITY * np.sqrt(grid.dt) / grid.dz,
        )
        failed = rep.n_violations > 0 or rep.max_jump_per_sqrt_dt > pinned.C_BOUNDARY_CONTINUITY
    except NotApplicable:
        report["monotone_applicable"] = 0
    _write_kv(out_dir / "boundary_report.txt", report)
    return report, "boundary monotonicity/continuity check failed" if failed else None


def cmd_volterra(out_dir, inputs):
    mc, n_quad, report_every = inputs.mc, inputs.settings["volterra.n_quad"], inputs.settings["volterra.report_every"]
    surfaces = inputs.surfaces()
    rep = volterra_residual(
        inputs.model, surfaces, inputs.boundary(surfaces), mc["n_paths"], n_quad, mc["seed"],
        report_every=report_every, bridge_max=mc["bridge_max"],
    )
    _write_csv(
        out_dir / "volterra.csv",
        ["t", "j", "lhs", "J", "J_se", "K_integral", "K_se", "residual", "relative_residual"],
        [_table(rep.t, rep.regime + 1, rep.lhs, rep.J, rep.J_se, rep.K_integral, rep.K_se, rep.residual,
                rep.relative_residual)],
    )
    keys = dict(n_quad=n_quad, median_abs_relative_residual=rep.median_abs_relative(),
                n_extrapolated_samples=rep.n_extrapolated)
    return keys, None


def cmd_eval(out_dir, inputs):
    j0 = inputs.j0
    boundary = inputs.boundary(inputs.surfaces()) if "boundary" in inputs.policies else None
    policies = [Policy.from_boundary(boundary) if p == "boundary" else p for p in inputs.policies]
    estimates, pairs = compare_policies(inputs.model, policies, j0, **inputs.mc)
    rows = [(e.policy.name(), j0 + 1, e.mean, e.std_error, e.n_paths) for e in estimates]
    _write_csv(out_dir / "eval.csv", ["policy", "j0", "mean", "std_error", "n_paths"], [_table(*zip(*rows))])
    rows = [(p.policy_a, p.policy_b, p.diff, p.diff_se) for p in pairs]
    _write_csv(out_dir / "eval_pairs.csv", ["policy_a", "policy_b", "diff", "diff_se"], [_table(*zip(*rows))])
    return {}, None


def cmd_figure(out_dir, inputs):
    """End-to-end reproduction of the two-state positive-drift pipeline.

    The model, horizon and 100-step time grid are pinned constants; the config
    contributes only the seed, tolerances, spatial grid and output location.
    """
    grid = inputs.grid
    surfaces = inputs.surfaces()
    boundary = inputs.boundary(surfaces)
    _write_value_surface(out_dir, surfaces)
    _write_boundary(out_dir, boundary)

    anchor_ok = bool(np.all(np.abs(np.log(boundary.b_smoothed[-1])) <= grid.dz))
    rep = check_boundary_monotone(boundary, inputs.model)
    ordering = bool(np.all(np.log(boundary.b_smoothed[:, 1]) <= np.log(boundary.b_smoothed[:, 0]) + grid.dz))
    keys = dict(terminal_anchor_ok=int(anchor_ok), monotone_violations=rep.n_violations,
                regime2_below_regime1=int(ordering))
    failed = not anchor_ok or rep.n_violations > 0
    return keys, "figure pipeline boundary failed its anchor/monotonicity checks" if failed else None


COMMANDS = {
    "gcheck": cmd_gcheck,
    "solve": cmd_solve,
    "boundary": cmd_boundary,
    "volterra": cmd_volterra,
    "eval": cmd_eval,
    "figure": cmd_figure,
}


def run(subcommand: str, args) -> int:
    """Read the inputs, run the subcommand, write ``run_manifest.txt`` (on exit 4 too)."""
    try:
        cfg, config_sha256 = load_config(args.config)
        inputs = RunInputs(cfg, subcommand, {"mc.seed": args.seed, "outputs": args.out})
        out_dir = Path(inputs.settings["outputs"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            key = "--out" if args.out is not None else "outputs"
            raise ConfigError(f"{key}: cannot create output directory {out_dir}: {exc}") from exc
        keys, failure = COMMANDS[subcommand](out_dir, inputs)
        _write_kv(out_dir / "run_manifest.txt", {**_base_manifest(config_sha256, subcommand, inputs), **keys})
        if failure is None:
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridTooCoarse, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NonMonotoneSlice as exc:  # surfaces too noisy for a boundary at this tolerance: a property failure
        failure = exc
    print(f"property-check failure: {failure}", file=sys.stderr)
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
        "--threads", type=_at_least(1), default=paths.threads,
        help="worker threads for Monte Carlo blocks (default: the available cores; outputs do not depend on it)",
    )
    args = parser.parse_args(argv)
    paths.threads = args.threads
    return run(args.subcommand, args)


if __name__ == "__main__":
    sys.exit(main())
