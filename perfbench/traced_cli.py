"""Run one ultmax CLI invocation in this process with spans around its layers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/traced_cli.py SPANS.json solve --config cfg.yaml --out dir

The library functions the CLI calls are timed by replacing the names bound in
``ultmax.cli`` (and ``LVInterpolator`` / ``discrete_generator_image`` in
``ultmax.volterra``) with timing wrappers; no file of the program changes.
After the CLI returns, every path simulation it ran is replayed through
``paths.reduce_terminal`` with a reducer that does nothing, on the same model,
seed, path count and step count: that time is the path engine's own share of
the policy and Volterra spans.  The replay runs after ``main`` and is reported
separately, so it is not part of the traced CLI time.

Writes one JSON object to SPANS.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from ultmax import cli, paths, volterra
from ultmax.markov import derive_seed

# Library calls made directly from ultmax.cli: span name -> name bound there.
# Their durations do not overlap, so the CLI's self time is main() minus their sum.
TOP_LEVEL = {
    "grids.tail_bound": "truncation_tail_bound",
    "gain.g_pde": "g_pde",
    "gain.dG_dx": "dG_dx",
    "gain.lg": "lg",
    "gain.h_level": "h_level",
    "value.solve_value": "solve_value",
    "boundary.extract": "extract_boundary",
    "boundary.monotone": "check_boundary_monotone",
    "strategy.compare": "compare_policies",
    "strategy.evaluate": "evaluate_policy",
    "volterra.residual": "volterra_residual",
}


class Recorder:
    """Accumulated span seconds, counts, and the simulations to replay."""

    def __init__(self):
        self.spans: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.replays: list[tuple[str, tuple]] = []
        self.missing: list[str] = []

    def add(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, module, attr: str, span: str, on_call=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(span, time.perf_counter() - t0)

        setattr(module, attr, timed)

    # --- call hooks: record the work a call will do --------------------------

    def on_solve_value(self, model, grid, *_args, **_kwargs):
        self.count("value.node_updates", grid.n_x * grid.n_t * grid.m)

    def on_compare(self, model, policies, j0, n_paths, n_steps, seed, bridge_max=True):
        self.count("strategy.policy_steps", n_paths * n_steps * len(policies))
        self.replays.append(("strategy", (model, 0.0, j0, n_paths, n_steps, seed, bridge_max, None)))

    def on_evaluate(self, model, policy, j0, n_paths, n_steps, seed, bridge_max=True):
        self.on_compare(model, [policy], j0, n_paths, n_steps, seed, bridge_max)

    def on_volterra(self, model, surfaces, boundary, n_paths, n_quad, seed, report_every=10, bridge_max=True):
        grid = surfaces.grid
        for k in range(0, grid.n_t, report_every):
            for j in range(grid.m):
                if np.isfinite(boundary.b_smoothed[k, j]):
                    args = (model, grid.t[k], j, n_paths, n_quad, derive_seed(seed, k, j), bridge_max, None)
                    self.replays.append(("volterra", args))

    def install(self) -> None:
        hooks = {
            "value.solve_value": self.on_solve_value,
            "strategy.compare": self.on_compare,
            "strategy.evaluate": self.on_evaluate,
            "volterra.residual": self.on_volterra,
        }
        for span, attr in TOP_LEVEL.items():
            self.wrap(cli, attr, span, hooks.get(span))
        self.wrap(cli, "_write_csv", "cli.csv")
        self.wrap(volterra, "discrete_generator_image", "value.generator_image")
        lv_call = getattr(volterra.LVInterpolator, "__call__")

        def lv_timed(interp, r, logx, regime):
            t0 = time.perf_counter()
            try:
                return lv_call(interp, r, logx, regime)
            finally:
                self.add("volterra.lv", time.perf_counter() - t0)
                self.count("volterra.lv_samples", np.size(logx))

        volterra.LVInterpolator.__call__ = lv_timed

    def replay_engine(self) -> None:
        """Re-simulate every recorded path set with a do-nothing reducer."""

        def nothing(state, ylog, ymaxlog):
            return None

        for owner, (model, t0, j0, n_paths, n_steps, seed, bridge_max, t_end) in self.replays:
            start = time.perf_counter()
            paths.reduce_terminal(model, t0, j0, n_paths, n_steps, seed, bridge_max, nothing, t_end)
            self.add(f"paths.engine.{owner}", time.perf_counter() - start)
            self.count("paths.path_steps", n_paths * n_steps)
            self.count("paths.blocks", -(-n_paths // paths.BLOCK_SIZE))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    rec.install()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    main_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    rec.replay_engine()
    replay_s = time.perf_counter() - t1
    top = sum(rec.spans.get(name, 0.0) for name in TOP_LEVEL)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            dict(rc=rc, main_s=main_s, replay_s=replay_s, top_level_s=top,
                 spans=rec.spans, counts=rec.counts, missing=rec.missing),
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
