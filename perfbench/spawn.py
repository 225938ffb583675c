"""Start and reap the benchmark's child processes from a small process.

Linux records the resident-set high-water mark of the process image a child
replaces when it calls exec, so a child forked from the benchmark itself
(which holds numpy and parsed CSVs) would report the benchmark's own peak as
part of its ``ru_maxrss``.  This launcher is started before the benchmark
loads anything large, and forks every CLI process in its place.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": str, "env": {...}, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout, ``{"rc", "wall_s", "cpu_s", "rss_mb"}``.
A child still running after ``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dict(rc=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0)


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
