"""Workloads, rounds and metrics of the ultmax CLI benchmark (see run.py).

Imports the library, so ``src`` must be on ``sys.path`` first.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml
from ultmax import pinned
from ultmax.gain import g_pde
from ultmax.grids import Grid
from ultmax.model import RegimeModel, validate
from ultmax.value import solve_value

import checks

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SHIPPED_CONFIG = ROOT / "configs" / "two_state_positive_drift.yaml"

# Inputs per size.  `full` is the benchmark; `tiny` only exercises the code.
SIZES = {
    "full": dict(n_x=400, n_t=200, eval_paths=1 << 18, eval_steps=200,
                 volterra_paths=1 << 17, report_every=40),
    "tiny": dict(n_x=120, n_t=60, eval_paths=1 << 16, eval_steps=60,
                 volterra_paths=1 << 13, report_every=30),
}
# --help timings before the first round; one more follows every round, so the
# set-up samples spread over the run.
SETUP_FIRST = 3


class Fatal(RuntimeError):
    """The CLI cannot be run at all: no result is printed."""


@dataclass
class Operation:
    """One CLI invocation and the checks of its outputs."""

    name: str
    subcommand: str
    config: dict
    check: Callable[[checks.Outcome, Path, dict], None]


@dataclass
class Invocation:
    """Usage and check outcome of one CLI process, with what it wrote."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    outcome: checks.Outcome
    csv_bytes: int = 0
    csv_values: int = 0
    trace: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Configs and checks of one workload, made from the seed and size."""

    def __init__(self, name: str, seed: int, size: dict):
        self.size = size
        self.rng = random.Random(seed)
        shipped = yaml.safe_load(SHIPPED_CONFIG.read_text(encoding="utf-8"))
        self.base = dict(
            model=shipped["model"],
            grid=dict(n_x=size["n_x"], n_t=size["n_t"]),
            mc=dict(n_paths=size["eval_paths"], n_steps=size["eval_steps"], bridge_max=True),
            tolerances={},
            eval=dict(policies=shipped["eval"]["policies"]),
            volterra=dict(n_quad=shipped["volterra"]["n_quad"], report_every=size["report_every"]),
        )
        self.model, self.grid = self.lattice_grid()
        self.dz = self.grid.dz
        self.ops: list[Operation] = getattr(self, name)()

    def config(self, **sections) -> dict:
        cfg = json.loads(json.dumps(self.base))
        for key, value in sections.items():
            cfg[key].update(value)
        cfg["mc"]["seed"] = self.rng.randrange(1, 2**31)
        return cfg

    # --- surfaces: solve, figure, zero-tolerance boundary -------------------

    def surfaces(self) -> list[Operation]:
        n_x, n_t, m = self.size["n_x"], self.size["n_t"], self.model.m

        def solve(out, run_dir, state):
            state["f_solve"] = checks.check_value_surface(out, run_dir / "value_surface.csv", n_x, n_t, m)
            checks.check_solve_extras(out, run_dir, n_x, n_t, m)

        def figure(out, run_dir, state):
            checks.check_value_surface(out, run_dir / "value_surface.csv", n_x, pinned.FIGURE_N_T, m)
            checks.check_boundary(out, run_dir / "boundary.csv", pinned.FIGURE_N_T, m, self.dz)

        def boundary(out, run_dir, state):
            b_zero = checks.check_boundary(out, run_dir / "boundary.csv", n_t, m, self.dz)
            if "f_solve" not in state:
                out.need(False, "no solve output of this round to compare the boundary with")
                return
            checks.check_zero_tolerance(out, run_dir, b_zero, state["f_solve"], n_x, self.dz)

        return [
            Operation("solve", "solve", self.config(), solve),
            Operation("figure", "figure", self.config(), figure),
            Operation("boundary_zero_tol", "boundary",
                      self.config(tolerances=dict(tol_abs=0, eps_sign=0)), boundary),
        ]

    # --- policy_eval: four policies from each start regime ------------------

    def policy_eval(self) -> list[Operation]:
        lattice = self.lattice_at_origin()
        ops = []
        for j0 in (1, 2):
            def check(out, run_dir, state, j0=j0):
                checks.check_eval(out, run_dir, len(self.base["eval"]["policies"]), self.size["eval_paths"],
                                  lattice[j0], j0)

            ops.append(Operation(f"eval_j{j0}", "eval", self.config(eval=dict(start_regime=j0)), check))
        return ops

    def lattice_grid(self):
        """(model, grid) of the configured model and grid, built by the library."""
        sec = self.base["model"]
        model = validate(RegimeModel(mu=sec["mu"], sigma=sec["sigma"], Q=sec["q"], T=float(sec["horizon"])))
        return model, Grid.for_model(model, n_x=self.size["n_x"], n_t=self.size["n_t"])

    def lattice_at_origin(self) -> dict[int, tuple[float, float, float, float]]:
        """(G, V, dz, dt) at t = 0, x = 1 per start regime, from the lattice alone."""
        model, grid = self.model, self.grid
        surface_g = g_pde(model, grid)
        values = solve_value(model, grid, surface_g)
        return {j + 1: (float(values.G.values[0, 0, j]), float(values.V.values[0, 0, j]), grid.dz, grid.dt)
                for j in range(model.m)}

    # --- volterra: boundary integral-equation residual ----------------------

    def volterra(self) -> list[Operation]:
        n_rows = len(range(0, self.size["n_t"] + 1, self.size["report_every"])) * self.model.m

        def check(out, run_dir, state):
            checks.check_volterra(out, run_dir, n_rows, self.dz)

        cfg = self.config(mc=dict(n_paths=self.size["volterra_paths"]))
        return [Operation("volterra", "volterra", cfg, check)]


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class Runner:
    """Runs rounds of a workload's operations through the launcher and checks them."""

    def __init__(self, workload: Workload, spawner, work_dir: Path, threads: int, deadline: float):
        self.workload = workload
        self.spawner = spawner
        self.work_dir = work_dir
        self.threads = threads
        self.deadline = deadline
        self.messages: dict[str, int] = {}
        self.not_traced: set[str] = set()
        self.setup_walls: list[float] = []
        self.n_rounds = 0

    def cli_argv(self, op: Operation, out_dir: Path, traced: bool) -> list[str]:
        cfg_path = self.work_dir / f"{op.name}.yaml"
        if not cfg_path.exists():
            cfg_path.write_text(yaml.safe_dump(op.config, sort_keys=True), encoding="utf-8")
        args = [op.subcommand, "--config", str(cfg_path), "--out", str(out_dir), "--threads", str(self.threads)]
        if traced:
            return [sys.executable, str(HERE / "traced_cli.py"), str(out_dir / "trace.json"), *args]
        return [sys.executable, "-m", "ultmax.cli", *args]

    def time_setup(self, repeats: int) -> None:
        """Append the wall times of `repeats` ``--help`` processes to ``setup_walls``."""
        for _ in range(repeats):
            rc, wall, _, _ = self.spawner.run([sys.executable, "-m", "ultmax.cli", "--help"],
                                              self.work_dir / "setup.err", self.deadline)
            if rc != 0:
                raise Fatal(f"`python -m ultmax.cli --help` exited {rc}: "
                            + (self.work_dir / "setup.err").read_text(errors="replace")[-2000:])
            self.setup_walls.append(wall)

    def round(self, traced: bool) -> list[Invocation]:
        self.n_rounds += 1
        state: dict = {}  # outputs one check of the round hands to a later one
        done = []
        for op in self.workload.ops:
            out_dir = self.work_dir / f"r{self.n_rounds}-{op.name}"
            out_dir.mkdir(parents=True)
            rc, wall, cpu, rss = self.spawner.run(self.cli_argv(op, out_dir, traced), out_dir / "stderr.txt", self.deadline)
            inv = Invocation(wall, cpu, rss, checks.Outcome())
            if rc == 0:
                try:
                    op.check(inv.outcome, out_dir, state)
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    inv.outcome.need(False, f"{op.name}: output unreadable: {exc!r}")
            else:
                tail = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
                inv.outcome.need(False, f"{op.name}: exit code {rc}: {' '.join(tail)}")
            for path in out_dir.glob("*.csv"):
                with open(path, encoding="utf-8") as fh:
                    n_cols = len(fh.readline().split(","))
                    inv.csv_values += n_cols * sum(1 for _ in fh)
                inv.csv_bytes += path.stat().st_size
            if traced and (out_dir / "trace.json").exists():
                inv.trace = json.loads((out_dir / "trace.json").read_text(encoding="utf-8"))
                self.not_traced.update(inv.trace["missing"])
            if (out_dir / "run_manifest.txt").exists():
                inv.manifest = checks.read_manifest(out_dir / "run_manifest.txt")
            for msg in inv.outcome.failures + inv.outcome.known:
                self.messages[msg] = self.messages.get(msg, 0) + 1
            shutil.rmtree(out_dir)
            done.append(inv)
        return done


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def per_layer(untraced: list[Invocation], traced: list[Invocation]) -> dict[str, float]:
    """Per-layer metrics of one untraced round and the traced round after it."""
    spans: dict[str, float] = {}
    counts: dict[str, int] = {}
    traced_wall = main_s = top_s = 0.0
    for inv in traced:
        tr = inv.trace
        if not tr:
            continue
        for k, v in tr["spans"].items():
            spans[k] = spans.get(k, 0.0) + v
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        traced_wall += inv.wall_s - tr["replay_s"]
        main_s += tr["main_s"]
        top_s += tr["top_level_s"]

    def s(name):
        return spans.get(name, 0.0)

    def per(total_s, n):
        return total_s / n * 1e9 if n else 0.0

    csv_values = sum(inv.csv_values for inv in traced)
    engine_strategy, engine_volterra = s("paths.engine.strategy"), s("paths.engine.volterra")
    compare = s("strategy.compare") + s("strategy.evaluate")
    residual = s("volterra.residual")
    return {
        "cli.self_s": main_s - top_s,
        "cli.startup_s": traced_wall - main_s,
        "cli.csv_s": s("cli.csv"),
        "cli.csv_bytes": sum(inv.csv_bytes for inv in traced),
        "cli.csv_values": csv_values,
        "cli.ns_per_csv_value": per(s("cli.csv"), csv_values),
        "cli.cpu_s": sum(inv.cpu_s for inv in untraced),
        "grids.tail_bound_s": s("grids.tail_bound"),
        "gain.g_pde_s": s("gain.g_pde"),
        "gain.diagnostics_s": s("gain.dG_dx") + s("gain.lg") + s("gain.h_level"),
        "value.solve_value_s": s("value.solve_value"),
        "value.generator_image_s": s("value.generator_image"),
        "value.node_updates": counts.get("value.node_updates", 0),
        "value.ns_per_node_update": per(s("value.solve_value"), counts.get("value.node_updates", 0)),
        "boundary.extract_s": s("boundary.extract"),
        "boundary.monotone_s": s("boundary.monotone"),
        "paths.path_steps": counts.get("paths.path_steps", 0),
        "paths.blocks": counts.get("paths.blocks", 0),
        "paths.engine_s": engine_strategy + engine_volterra,
        "paths.ns_per_path_step": per(engine_strategy + engine_volterra, counts.get("paths.path_steps", 0)),
        "strategy.compare_s": compare,
        "strategy.self_s": compare - engine_strategy,
        "strategy.policy_steps": counts.get("strategy.policy_steps", 0),
        "strategy.ns_per_policy_step": per(compare - engine_strategy, counts.get("strategy.policy_steps", 0)),
        "volterra.residual_s": residual,
        "volterra.lv_s": s("volterra.lv"),
        "volterra.lv_samples": counts.get("volterra.lv_samples", 0),
        "volterra.ns_per_lv_sample": per(s("volterra.lv"), counts.get("volterra.lv_samples", 0)),
        "volterra.self_s": residual - engine_volterra - s("volterra.lv") - s("value.generator_image"),
        "volterra.extrapolated": sum(int(inv.manifest.get("n_extrapolated_samples", 0)) for inv in traced),
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_s": traced_wall - sum(inv.wall_s for inv in untraced),
    }
