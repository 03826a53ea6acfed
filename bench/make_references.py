"""Write the reference reports that ``check.py`` compares runs against.

Usage (from the repository root): python3 bench/make_references.py

Runs every command of every workload, full size and smoke, once with seed 0
and the BLAS thread count set to the core count, and stores each exit code
and JSON report under ``bench/reference/{full,smoke}/<workload>/``.  Only
rerun it when the program's output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads


def main():
    env = run.child_env(len(os.sched_getaffinity(0)))
    for scale, table in (("smoke", workloads.SMOKE), ("full", workloads.WORKLOADS)):
        for wl in table.values():
            folder = run.BENCH_DIR / "reference" / scale / wl.name
            folder.mkdir(parents=True, exist_ok=True)
            work = run.OUT_DIR / f"reference-{scale}-{wl.name}"
            work.mkdir(parents=True, exist_ok=True)
            cfg_path = work / "config.txt"
            cfg_path.write_text(wl.config_text(0), encoding="utf-8")
            for command in wl.commands:
                out = work / f"{command}.json"
                argv = [sys.executable, "-m", "dualstab.cli", command, "--config", str(cfg_path),
                        "--format", "json", "--out", str(out)]
                code, wall, _ = run.run_child(argv, env, work / f"{command}.log", time.monotonic() + 600)
                reference = {"exit_code": code, "report": json.loads(out.read_text(encoding="utf-8"))}
                (folder / f"{command}.json").write_text(json.dumps(reference, indent=1) + "\n")
                print(f"{scale} {wl.name} {command}: exit {code}, {wall:.2f} s")


if __name__ == "__main__":
    main()
