"""The benchmark's workloads: one dualstab config and a list of commands each.

Every workload uses the auxiliary space ``refined:2``, the Gramian stiffness,
gamma 0.1 and no reaction term.  The workload seed goes only into the config's
``seed`` key, which moves nothing but the random pairing sweep of ``spectral``.
``SMOKE`` has the same workload shapes at truth 64, for the benchmark's tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """A named dualstab config and the CLI commands run on it, in order."""

    name: str
    why: str
    commands: tuple
    truth_elems: int
    coarse_elems: int
    pressure: str
    levels: tuple = ()
    gammas: tuple = ()

    def config_text(self, seed):
        """The config file of this workload for one seed."""
        lines = [
            f"truth_elems = {self.truth_elems}",
            f"coarse_elems = {self.coarse_elems}",
            f"pressure = {self.pressure}",
            "w = refined:2",
            "s = gramian",
            "gamma = 0.1",
            "reaction = 0",
        ]
        if self.levels:
            lines.append("levels = " + ", ".join(str(n) for n in self.levels))
        if self.gammas:
            lines.append("gammas = " + ", ".join(repr(g) for g in self.gammas))
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"


_WHY = {
    "levels-1024": "four levels on one truth mesh: truth-level work repeats per level, "
    "so caching, deduplication and level parallelism show",
    "truth-2048": "one level at truth 2048: dense eigensolves at n = 2047 dominate; "
    "nothing repeats across levels",
    "fine-coarse": "p0 pressure with a truth-sized W: assembly, the screened solve and "
    "condensation dominate, truth-level constants are minor",
}

_COMMANDS = {
    "levels-1024": ("constants", "spectral", "infsup", "converge"),
    "truth-2048": ("constants", "solve"),
    "fine-coarse": ("solve", "condense-check"),
}


def _workload(name, **settings):
    return Workload(name=name, why=_WHY[name], commands=_COMMANDS[name], **settings)


WORKLOADS = {
    w.name: w
    for w in (
        _workload(
            "levels-1024", truth_elems=1024, coarse_elems=16, pressure="p1", levels=(16, 32, 64, 128)
        ),
        _workload("truth-2048", truth_elems=2048, coarse_elems=16, pressure="p1"),
        _workload(
            "fine-coarse", truth_elems=512, coarse_elems=256, pressure="p0", gammas=(0.01, 0.1, 1.0)
        ),
    )
}

SMOKE = {
    w.name: w
    for w in (
        _workload("levels-1024", truth_elems=64, coarse_elems=2, pressure="p1", levels=(2, 4, 8, 16)),
        _workload("truth-2048", truth_elems=64, coarse_elems=4, pressure="p1"),
        _workload(
            "fine-coarse", truth_elems=64, coarse_elems=32, pressure="p0", gammas=(0.01, 0.1, 1.0)
        ),
    )
}

# every command any workload runs, in CLI order; names the per-command metrics
ALL_COMMANDS = ("constants", "spectral", "infsup", "solve", "converge", "condense-check")
