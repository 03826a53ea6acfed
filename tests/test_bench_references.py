"""The benchmark's full-size references, checked in process.

Each workload's config at seed 1 runs every command the benchmark runs on
it, and its JSON report must pass ``bench/check.py``'s ``check_report``
against ``bench/reference/full``: exit code, strings and integers equal,
floats within its FLOAT_RTOL (1e-9), roundoff cells under their thresholds.
So a change that moves a pinned cell fails here, not only in the benchmark.
The test reads ``bench/`` and writes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dualstab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")

CASES = [
    pytest.param(wl, command, id=f"{name}-{command}")
    for name, wl in workloads.WORKLOADS.items()
    for command in wl.commands
]


@pytest.mark.parametrize("wl, command", CASES)
def test_report_passes_the_benchmark_check(tmp_path, capsys, wl, command):
    reference = json.loads((BENCH / "reference" / "full" / wl.name / f"{command}.json").read_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(wl.config_text(SEED))
    out = tmp_path / "report.json"
    code = main([command, "--config", str(cfg), "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert check.check_report(code, out.read_text(), reference, SEED) == []
