"""Fuzz every command over the documented config grammar, in process.

Whatever the draw, a run ends with a documented exit code (0 pass, 1 check
failed, 2 config error, 3 numerical failure), never with an exception, and a
JSON report is strict RFC 8259 JSON.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualstab.cli import main

COMMANDS = ["constants", "spectral", "infsup", "solve", "converge", "condense-check"]

# stiffness scales log-uniform over the positive doubles, subnormals included
SCALES = st.floats(min_value=math.log(5e-324), max_value=math.log(1.7e308)).map(
    lambda x: f"scaled:{math.exp(x)!r}"
)

# reaction coefficients: 0, or log-uniform over the positive doubles
REACTIONS = st.one_of(
    st.just("0"),
    st.floats(min_value=math.log(5e-324), max_value=math.log(1.7e308)).map(
        lambda x: repr(math.exp(x))
    ),
)

# condense-check sweeps: 1 to 3 gammas, log-uniform over the positive doubles
GAMMAS = st.lists(
    st.floats(min_value=math.log(5e-324), max_value=math.log(1.7e308)).map(
        lambda x: repr(math.exp(x))
    ),
    min_size=1,
    max_size=3,
).map(", ".join)


@st.composite
def runs(draw):
    truth = draw(st.integers(min_value=1, max_value=6))
    coarse = draw(st.integers(min_value=1, max_value=truth))
    gamma = draw(st.one_of(st.just("auto"), st.floats(min_value=0.0, max_value=10.0).map(repr)))
    config = {
        "truth_elems": 2**truth,
        "coarse_elems": 2**coarse,
        "pressure": draw(st.sampled_from(["p1", "p0"])),
        "w": draw(st.sampled_from(["refined:2", "refined:1", "truth", "same"])),
        "s": draw(st.one_of(st.sampled_from(["gramian", "lumped"]), SCALES)),
        "gamma": gamma,
        "reaction": draw(REACTIONS),
        "gammas": draw(GAMMAS),
    }
    return draw(st.sampled_from(COMMANDS)), config


def _reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(runs())
def test_every_run_exits_documented_code_with_strict_json(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        out = Path(tmp) / "report.json"
        code = main([command, "--config", str(cfg), "--format", "json", "--out", str(out)])
        assert code in (0, 1, 2, 3)
        # a failed verdict writes its report; a raised check or error does not
        if code == 0 or out.exists():
            payload = json.loads(out.read_text(), parse_constant=_reject)
            assert payload["command"] == command
