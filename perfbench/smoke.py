"""Quick test of the benchmark itself: every workload once, at a tiny size.

Run from the repository root (about a minute on two cores):

    python3 perfbench/smoke.py

For each workload and each of ``--trace 0`` / ``--trace 1`` it checks that the
run exits 0, that every check passed except the known zero-tolerance fault
(whose message must name ``tolerance_settings``), and that every metric of
BENCHMARK.json is printed with its unit.  It then checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int) -> list[str]:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}: {proc.stderr[-800:]}")
    if result["failed"] and "tolerance_settings" not in proc.stderr:
        problems.append(f"{where}: {result['failed']} failed without naming tolerance_settings")
    if result["failed"] and workload != "surfaces":
        problems.append(f"{where}: {result['failed']} operations failed")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if not got or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {m['name']} missing or malformed: {got}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: unexpected metrics {sorted(set(result['metrics']) - {m['name'] for m in wanted})}")
    print(f"{where}: attempted={result['attempted']} failed={result['failed']} "
          f"problems={len(problems)}", flush=True)
    return problems


def check_refuses_without_program() -> list[str]:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"bare directory: exit {proc.returncode}, no result", flush=True)
    return []


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_workload(w["name"], trace)
    problems += check_refuses_without_program()
    for p in problems:
        print("PROBLEM:", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
