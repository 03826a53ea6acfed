"""The dualstab layers the traced run times, and the per-layer metrics.

Each traced command writes its spans as records ``[name, duration_s, self_s,
size, key]``; ``layer_metrics`` folds the records of one pass into the
per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import ALL_COMMANDS

# public functions timed per module; classes are timed through __init__
LAYERS = {
    "algebra": ("cholesky", "spd_solve", "sym_generalized_eig", "operator_norm"),
    "hilbert": ("TruthSpace", "Subspace", "dual_norm", "orthogonal_project"),
    "dualprod": (
        "pressure_deflation",
        "make_stiffness",
        "equivalence_report",
        "estimate_c_star",
        "infsup_qw",
        "dual_equivalence_interval",
        "stiffness_dual_norm",
        "verify_dual_equivalence",
        "verify_stiffness_bound",
        "verify_cstar_infsup_link",
        "verify_infsup_sandwich",
    ),
    "saddle": (
        "Discretization",
        "constants",
        "assemble_stabilized",
        "assemble_three_field",
        "static_condense",
        "solve",
        "quasi_optimality",
        "verify_relaxed_infsup",
    ),
    "models": ("build_truth", "build_spaces", "error_norms"),
    "report": ("write_report",),
    # the command span, opened around dualstab.cli.main
    "cli": ("main",),
}

# spans whose inputs are keyed, to count repeated work
UNIQUE = (
    "dualprod.pressure_deflation",
    "algebra.operator_norm",
    "models.build_truth",
    "models.build_spaces",
    "algebra.sym_generalized_eig",
)

# spans whose size (matrix order) is recorded
SIZED = ("algebra.sym_generalized_eig", "saddle.solve")

COMMAND_SPAN = "cli.main"


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for module, names in LAYERS.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count"))
            if f"{module}.{fn}" != COMMAND_SPAN:
                out.append((f"{module}.{fn}.self_s", "s"))
        out.append((f"{module}.self_s", "s"))
    out += [(f"{name}.unique_ratio", "ratio") for name in UNIQUE]
    out.append(("algebra.eig_n3", "n3.computed"))
    out += [(f"{name}.max_n", "n") for name in SIZED]
    out += [
        ("trace.busy_s", "s"),
        ("trace.wall_s", "s"),
        ("trace_overhead_ratio", "ratio"),
        ("pass.default_threads_s", "s"),
        ("pass.traced_s", "s"),
        ("pass.single_thread_s", "s"),
    ]
    for command in ALL_COMMANDS:
        out.append((f"command.{command}.wall_s", "s"))
        out.append((f"command.{command}.single_thread_wall_s", "s"))
    return out


def fold(records):
    """Per-span-name totals of one command's records."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    keys = defaultdict(set)
    max_n = defaultdict(int)
    n3 = 0
    for name, duration, self_time, size, key in records:
        calls[name] += 1
        self_s[name] += self_time
        total_s[name] += duration
        if key is not None:
            keys[name].add(key)
        if size:
            max_n[name] = max(max_n[name], size)
            if name == "algebra.sym_generalized_eig":
                n3 += size**3
    return {
        "calls": calls,
        "self_s": self_s,
        "total_s": total_s,
        "distinct": {name: len(k) for name, k in keys.items()},
        "max_n": max_n,
        "eig_n3": n3,
    }


def layer_metrics(folded, walls):
    """Per-layer metrics of one pass.

    ``folded`` holds ``fold`` of each traced command's records; ``walls`` maps
    the names ``pass.*`` and ``command.*`` to measured wall times.  Repeated
    inputs are counted within a command, since commands share no state.
    """
    metrics = {}
    for module, names in LAYERS.items():
        module_self = 0.0
        for fn in names:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls"] = sum(f["calls"][name] for f in folded)
            self_s = sum(f["self_s"][name] for f in folded)
            module_self += self_s
            if name != COMMAND_SPAN:
                metrics[f"{name}.self_s"] = self_s
        metrics[f"{module}.self_s"] = module_self
    for name in UNIQUE:
        calls = metrics[f"{name}.calls"]
        distinct = sum(f["distinct"].get(name, 0) for f in folded)
        metrics[f"{name}.unique_ratio"] = distinct / calls if calls else 0.0
    metrics["algebra.eig_n3"] = sum(f["eig_n3"] for f in folded)
    for name in SIZED:
        metrics[f"{name}.max_n"] = max((f["max_n"][name] for f in folded), default=0)
    metrics["trace.busy_s"] = sum(sum(f["self_s"].values()) for f in folded)
    metrics["trace.wall_s"] = sum(f["total_s"][COMMAND_SPAN] for f in folded)
    traced, untraced = walls["pass.traced_s"], walls["pass.default_threads_s"]
    metrics["trace_overhead_ratio"] = traced / untraced - 1.0
    for name, _ in per_layer_metrics():
        if name.startswith(("pass.", "command.")):
            metrics[name] = walls.get(name, 0.0)
    return metrics


def split_table(command, folded, top=5):
    """Lines naming where one traced command spent its time."""
    wall = folded["total_s"][COMMAND_SPAN]
    lines = [f"  {command}: traced wall {wall:.3f} s"]
    ranked = sorted(folded["self_s"].items(), key=lambda kv: kv[1], reverse=True)
    for name, self_s in ranked[:top]:
        lines.append(f"    self {name:<36} {self_s:9.3f} s  {100 * self_s / wall:5.1f}%")
    ranked = sorted(
        ((n, t) for n, t in folded["total_s"].items() if n != COMMAND_SPAN),
        key=lambda kv: kv[1],
        reverse=True,
    )
    for name, total in ranked[:top]:
        lines.append(f"    incl {name:<36} {total:9.3f} s  {100 * total / wall:5.1f}%")
    return lines
