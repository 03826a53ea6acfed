"""dualstab benchmark: wall time of the real CLI, checked against references.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` every command of the workload runs in a fresh
``python3 -m dualstab.cli`` process, one at a time, in passes until ``S``
seconds have been measured (at least one pass).  Set-up time is the median of
several fresh interpreters importing ``dualstab.cli``.  With ``--trace 1`` the
run makes one untraced pass, one traced pass (``traced_cli.py``) and one pass
with a single BLAS thread, and prints the per-layer metrics.

Every report is checked against the committed reference (``check.py``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are for people.
Exit code 0 after a measurement, even if a report failed its check; 2 when
the program or the workload cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# fresh interpreters timed for set-up, after one untimed warm-up import
SETUP_SAMPLES = 5

# a run must end within 180 s; a pass starts only if it should end within this
RUN_BUDGET_S = 150.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


class Failure(Exception):
    """The benchmark cannot run here; the message says why."""


def child_env(threads):
    """Environment of every child: this checkout's sources, pinned threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_child(argv, env, log_path, deadline):
    """Run one child to completion; return (exit code, wall s, max RSS MB).

    The child is killed at ``deadline`` (a ``time.monotonic`` value).
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment(env, threads):
    """Versions, BLAS, cores and commit; also proves dualstab imports from here."""
    probe = (
        "import json, platform, numpy, scipy, dualstab\n"
        "blas = lambda cfg: cfg['Build Dependencies']['blas']\n"
        "nb, sb = blas(numpy.show_config(mode='dicts')), blas(scipy.show_config(mode='dicts'))\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "  'scipy': scipy.__version__, 'dualstab_file': dualstab.__file__,\n"
        "  'numpy_blas': f\"{nb['name']} {nb['version']}\",\n"
        "  'scipy_blas': f\"{sb['name']} {sb['version']}\"}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise Failure(f"cannot import dualstab from {ROOT / 'src'}: {proc.stderr.strip()[-300:]}")
    stamp = json.loads(proc.stdout)
    if Path(stamp["dualstab_file"]).resolve().parent != ROOT / "src" / "dualstab":
        raise Failure(f"dualstab imported from {stamp['dualstab_file']}, not this checkout")
    del stamp["dualstab_file"]
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    stamp.update(nproc=len(os.sched_getaffinity(0)), commit=commit)
    stamp.update({var: threads for var in THREAD_VARS})
    return stamp


def measure_setup(env, work, deadline):
    """Median wall time of a fresh interpreter importing dualstab.cli."""
    argv = [sys.executable, "-c", "import dualstab.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        code, wall, _ = run_child(argv, env, work / "setup.log", deadline)
        if code != 0:
            raise Failure(f"importing dualstab.cli failed: {(work / 'setup.log').read_text()[-300:]}")
        if i:
            samples.append(wall)
    return samples


class Pass:
    """One pass over a workload's commands: wall times, RSS and check results."""

    def __init__(self):
        self.walls = {}
        self.rss = 0.0
        self.problems = {}
        self.reports = {}

    @property
    def wall(self):
        return sum(self.walls.values())


def run_pass(wl, cfg_path, seed, env, refs, work, deadline, traced=False):
    """Run each command of ``wl`` once and check its report."""
    result = Pass()
    for command in wl.commands:
        report, spans = work / f"{command}.json", work / f"{command}.spans.json"
        report.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        cli = [command, "--config", str(cfg_path), "--format", "json", "--out", str(report)]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans)]
        else:
            argv = [sys.executable, "-m", "dualstab.cli"]
        code, wall, rss = run_child(argv + cli, env, work / f"{command}.log", deadline)
        text = report.read_text(encoding="utf-8") if report.exists() else None
        result.walls[command] = wall
        result.rss = max(result.rss, rss)
        result.reports[command] = text
        result.problems[command] = check.check_report(code, text, refs[command], seed)
    return result


def load_references(wl, smoke):
    folder = BENCH_DIR / "reference" / ("smoke" if smoke else "full") / wl.name
    return {c: json.loads((folder / f"{c}.json").read_text(encoding="utf-8")) for c in wl.commands}


def tail(values):
    """Highest percentile with at least ten samples above it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def describe(name, values, unit):
    label, value = tail(values)
    return (
        f"  {name:<22} median {statistics.median(values):.4f} {unit}  "
        f"{label} {value:.4f} {unit}  n={len(values)}"
    )


def gated_run(wl, cfg_path, seed, seconds, env, refs, work, deadline):
    setup = measure_setup(env, work, deadline)
    passes = []
    start = time.monotonic()
    while not passes or (
        time.monotonic() - start < seconds and time.monotonic() - start < RUN_BUDGET_S - passes[-1].wall
    ):
        passes.append(run_pass(wl, cfg_path, seed, env, refs, work, deadline))
    lines = [describe("setup_s", setup, "s")]
    for command in wl.commands:
        name = command.replace("-", "_") + "_s"
        lines.append(describe(name, [p.walls[command] for p in passes], "s"))
    lines.append(describe("pass_s", [p.wall for p in passes], "s"))
    lines.append(describe("peak_rss_mb", [p.rss for p in passes], "MB"))
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": statistics.median(p.rss for p in passes),
    }
    return passes, lines, metrics


def traced_run(wl, cfg_path, seed, env, single_env, refs, work, deadline):
    plain = run_pass(wl, cfg_path, seed, env, refs, work, deadline)
    traced = run_pass(wl, cfg_path, seed, env, refs, work, deadline, traced=True)
    for command in wl.commands:
        if traced.reports[command] != plain.reports[command]:
            traced.problems[command].append("traced report differs from the untraced one")
    folded = []
    lines = ["per-command split (traced pass):"]
    for command in wl.commands:
        spans = work / f"{command}.spans.json"
        records = json.loads(spans.read_text()) if spans.exists() else []
        folded.append(layers.fold(records))
        if records:
            lines += layers.split_table(command, folded[-1])
    single = run_pass(wl, cfg_path, seed, single_env, refs, work, deadline)
    walls = {
        "pass.default_threads_s": plain.wall,
        "pass.traced_s": traced.wall,
        "pass.single_thread_s": single.wall,
    }
    for command in wl.commands:
        walls[f"command.{command}.wall_s"] = plain.walls[command]
        walls[f"command.{command}.single_thread_wall_s"] = single.walls[command]
    return [plain, traced, single], lines, layers.layer_metrics(folded, walls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="same workloads at truth 64")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + 175.0
    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    try:
        if not (ROOT / "src" / "dualstab" / "cli.py").is_file():
            raise Failure(f"no dualstab sources under {ROOT / 'src'}")
        if args.workload not in table:
            raise Failure(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
        if args.seed < 0:
            raise Failure("seed must be nonnegative")
        wl = table[args.workload]
        refs = load_references(wl, args.smoke)
        work = OUT_DIR / (("smoke-" if args.smoke else "") + wl.name)
        work.mkdir(parents=True, exist_ok=True)
        cfg_path = work / "config.txt"
        cfg_path.write_text(wl.config_text(args.seed), encoding="utf-8")
        threads = len(os.sched_getaffinity(0))
        env = child_env(threads)
        stamp = environment(env, threads)
        if args.trace:
            stamp["single_thread_pass"] = {var: 1 for var in THREAD_VARS}
            passes, lines, metrics = traced_run(
                wl, cfg_path, args.seed, env, child_env(1), refs, work, deadline
            )
        else:
            passes, lines, metrics = gated_run(
                wl, cfg_path, args.seed, args.seconds, env, refs, work, deadline
            )
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(p.walls) for p in passes)
    failed = sum(1 for p in passes for problems in p.problems.values() if problems)
    print(f"workload {wl.name}  seed {args.seed}  passes {len(passes)}  trace {args.trace}")
    print("environment " + json.dumps(stamp, sort_keys=True))
    for p in passes:
        for command, problems in p.problems.items():
            for problem in problems[:5]:
                print(f"  check failed: {command}: {problem}")
    print("\n".join(lines))
    print(f"  failed_ratio           {failed}/{attempted} = {failed / attempted:.4f}")
    units = dict(layers.per_layer_metrics() if args.trace else END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"environment": stamp, **result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
