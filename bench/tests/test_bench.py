"""Tests of the benchmark itself: BENCHMARK.json, tracer arithmetic, output check.

Run from the repository root: python3 -m pytest bench/tests -q
The smoke runs use the same workload shapes at truth 64.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
END_TO_END = {"setup_s", "pass_s", "peak_rss_mb"}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_is_well_formed():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in spec["command"])
    assert spec["command"][0] == "python3"
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert spec["command"][1].startswith(tuple(p + "/" for p in spec["paths"]))
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for wl in spec["workloads"]:
        assert set(wl) == {"name", "why"}
        assert "\n" not in wl["why"] and 0 < len(wl["why"]) <= 200
        names.append(wl["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_metrics()


# ---------------------------------------------------------------------------
# tracer arithmetic


def _toy_package():
    """A package 'toypkg' with a module that re-imports a function by name."""
    base = types.ModuleType("toypkg.base")
    user = types.ModuleType("toypkg.user")

    def leaf(seconds):
        time.sleep(seconds)
        return seconds

    def work(seconds):
        return base.leaf(seconds) + user.leaf(seconds)

    def fanout(seconds, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(base.work, [seconds] * workers))

    base.leaf, base.work, base.fanout = leaf, work, fanout
    user.leaf = leaf  # as `from .base import leaf` would bind it
    package = types.ModuleType("toypkg")
    modules = {"toypkg": package, "toypkg.base": base, "toypkg.user": user}
    return modules


@pytest.fixture
def toypkg(monkeypatch):
    modules = _toy_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return modules


def _traced(toypkg, fn, *args):
    tracer = Tracer()
    base = toypkg["toypkg.base"]
    for attr in ("leaf", "work"):
        tracer.patch_function(base, attr, f"base.{attr}")
    try:
        with tracer.span("root"):
            fn(*args)
    finally:
        tracer.unpatch()
    return tracer.spans


def test_patch_reaches_every_namespace_and_unpatch_restores(toypkg):
    base, user = toypkg["toypkg.base"], toypkg["toypkg.user"]
    original = base.leaf
    spans = _traced(toypkg, base.work, 0.001)
    assert [s.name for s in spans].count("base.leaf") == 2
    assert base.leaf is original and user.leaf is original


def test_self_time_never_above_span_time_and_children_add_up(toypkg):
    spans = _traced(toypkg, toypkg["toypkg.base"].work, 0.02)
    selfs = self_times(spans)
    for span, self_s in zip(spans, selfs):
        assert 0.0 <= self_s <= span.end - span.start
    # same-thread children do not overlap: self times add up to the root span
    root = spans[0]
    assert sum(selfs) == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-9)
    leaves = [self_s for span, self_s in zip(spans, selfs) if span.name == "base.leaf"]
    assert len(leaves) == 2 and min(leaves) >= 0.015


def test_worker_thread_spans_hang_off_the_root_span(toypkg):
    spans = _traced(toypkg, toypkg["toypkg.base"].fanout, 0.02, 3)
    selfs = self_times(spans)
    works = [s for s in spans if s.name == "base.work"]
    assert len(works) == 3 and all(s.parent == 0 for s in works)
    assert len({s.thread for s in works}) == 3
    for span, self_s in zip(spans, selfs):
        assert 0.0 <= self_s <= span.end - span.start
    # overlapping children are covered once: busy time exceeds the wall time
    root = spans[0]
    assert selfs[0] < 0.5 * (root.end - root.start)
    assert sum(selfs) > 1.5 * (root.end - root.start)


def test_call_counts_repeat_across_runs(toypkg):
    runs = [_traced(toypkg, toypkg["toypkg.base"].fanout, 0.001, 4) for _ in range(2)]
    counts = [sorted((s.name, s.parent >= 0) for s in spans) for spans in runs]
    assert counts[0] == counts[1]


def test_init_wrapping_keeps_the_class():
    class Thing:
        def __init__(self, value):
            self.value = value

    original = Thing.__init__
    tracer = Tracer()
    tracer.patch_init(Thing, "Thing")
    thing = Thing(3)
    tracer.unpatch()
    assert isinstance(thing, Thing) and thing.value == 3
    assert [s.name for s in tracer.spans] == ["Thing"]
    assert Thing.__init__ is original


# ---------------------------------------------------------------------------
# output check


def _reference(workload, command):
    path = BENCH / "reference" / "smoke" / workload / f"{command}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _problems(ref, report, exit_code=0, seed=0):
    return check.check_report(exit_code, json.dumps(report), ref, seed)


def test_check_accepts_the_reference():
    for wl in workloads.SMOKE.values():
        for command in wl.commands:
            ref = _reference(wl.name, command)
            assert _problems(ref, ref["report"]) == []


def test_check_rejects_a_changed_float_status_and_exit_code():
    ref = _reference("levels-1024", "constants")
    changed = copy.deepcopy(ref["report"])
    changed["rows"][1]["c_star"] *= 1 + 1e-6
    assert _problems(ref, changed)
    changed = copy.deepcopy(ref["report"])
    changed["verdict"] = "fail"
    assert _problems(ref, changed)
    assert _problems(ref, ref["report"], exit_code=1)
    assert _problems(ref, ref["report"], seed=5)
    spectral = _reference("levels-1024", "spectral")
    changed = copy.deepcopy(spectral["report"])
    changed["rows"][0]["status"] = "fail"
    assert _problems(spectral, changed)


def test_check_uses_closed_forms_thresholds_and_seeded_rows():
    ref = _reference("levels-1024", "constants")
    exact = copy.deepcopy(ref["report"])
    for row in exact["rows"]:
        row.update(alpha=1.0, norm_A=1.0, kappa_star=1.0, K_star=1.0, C_star=1.0)
    assert _problems(ref, exact) == []
    exact["rows"][0]["alpha"] = 1.0 + 1e-6
    assert _problems(ref, exact)

    solve = _reference("fine-coarse", "solve")
    changed = copy.deepcopy(solve["report"])
    changed["rows"][0]["residual"] = 5e-11
    assert _problems(solve, changed) == []
    changed["rows"][0]["residual"] = 2e-10
    assert _problems(solve, changed)

    spectral = _reference("levels-1024", "spectral")
    changed = copy.deepcopy(spectral["report"])
    pairing = [r for r in changed["rows"] if r["check"].startswith("pairing_")]
    assert pairing
    for row in pairing:
        row["value"] *= 1.01
    assert _problems(spectral, changed) == []


# ---------------------------------------------------------------------------
# smoke runs of the whole benchmark


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_smoke_run_untraced(workload):
    result = _result(_run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workloads.SMOKE[workload].commands)
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_smoke_run_traced(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = _result(_run_bench(*args)), _result(_run_bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = first["metrics"]
    for module, names in layers.LAYERS.items():
        for fn in names:
            name = f"{module}.{fn}"
            if name != layers.COMMAND_SPAN:
                assert 0 <= metrics[f"{name}.self_s"]["value"] <= metrics["trace.busy_s"]["value"]
            calls = [r["metrics"][f"{name}.calls"]["value"] for r in (first, second)]
            assert calls[0] == calls[1], name
    assert metrics["cli.main.calls"]["value"] == len(workloads.SMOKE[workload].commands)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in _spec()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "levels-1024", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
