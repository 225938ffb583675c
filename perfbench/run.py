"""Benchmark of the ultmax CLI: wall time, set-up time and peak memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 36 --trace 0

Every operation is one ``python -m ultmax.cli`` invocation in a fresh process,
as the program is used, followed by checks of everything it wrote.  A run
times ``--help`` three times, and once after every round (``setup_s``).  It
repeats whole rounds of the workload's operations for ``--seconds``: at least
one round, and no round that would end after that at the pace of the last.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` each round runs untraced, then traced (``traced_cli.py``), and
it reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--size tiny`` shrinks every workload for a quick check (``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every run ends within 180 s, children included


class Spawner:
    """Client of ``spawn.py``, which forks the CLI processes and reports their usage."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), self.env.get("PYTHONPATH", "")) if p)

    def run(self, argv: list[str], stderr_path: Path, deadline: float) -> tuple[int, float, float, float]:
        """Run argv from the repository root; (exit code, wall s, CPU s, peak RSS MB)."""
        req = dict(argv=argv, cwd=str(ROOT), env=self.env, stderr=str(stderr_path),
                   timeout=max(deadline - time.monotonic(), 1.0))
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("process launcher exited")
        r = json.loads(reply)
        return r["rc"], r["wall_s"], r["cpu_s"], r["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "ultmax" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'ultmax' / 'cli.py'} is missing", file=sys.stderr)
        return 2

    # Start the launcher while this process is still small (see spawn.py).
    spawner = Spawner()
    sys.path.insert(0, str(SRC))
    import workloads

    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        runner = workloads.Runner(
            workloads.Workload(args.workload, args.seed, workloads.SIZES[args.size]), spawner, work_dir,
            threads=len(os.sched_getaffinity(0)), deadline=start + RUN_LIMIT_S,
        )
        runner.time_setup(workloads.SETUP_FIRST)
        rounds = []
        t0 = time.monotonic()
        while True:
            r0 = time.monotonic()
            untraced = runner.round(traced=False)
            traced = runner.round(traced=True) if args.trace else []
            rounds.append((untraced, traced))
            runner.time_setup(1)
            # Stop before a round that would end after --seconds (or near the run limit).
            now = time.monotonic()
            if now - t0 + (now - r0) > min(args.seconds, start + RUN_LIMIT_S - t0):
                break
    except workloads.Fatal as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    invocations = [inv for u, t in rounds for inv in u + t]
    n_failed = sum(inv.outcome.failed for inv in invocations)
    correct = not any(inv.outcome.failures for inv in invocations)
    for msg, n in runner.messages.items():
        print(f"FAILED x{n}: {msg}", file=sys.stderr)
    if runner.not_traced:
        print(f"not traced (name not found): {', '.join(sorted(runner.not_traced))}", file=sys.stderr)

    if args.trace:
        layers = [workloads.per_layer(u, t) for u, t in rounds]
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(sum(inv.wall_s for inv in u) for u, _ in rounds),
            "setup_s": statistics.median(runner.setup_walls),
            "peak_rss_mb": max(inv.rss_mb for inv in invocations),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(rounds)} round(s), {len(invocations)} operations, {n_failed} failed, "
          f"correct={correct}; untraced round walls (s): "
          + " ".join(f"{sum(inv.wall_s for inv in u):.3f}" for u, _ in rounds))
    print(json.dumps(dict(correct=correct, attempted=len(invocations), failed=n_failed, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
