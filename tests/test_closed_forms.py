"""Every ``constants`` column against the closed forms of the 1D model.

The dense path drifts with the truth size: the dual Gram solves with the
truth Gramian, whose condition grows like truth².  Over every pressure, W,
sigma, reaction and gamma below, on levels 2..128, the largest relative error
measured (at one BLAS thread and at two) is 2.5e-14 at truth 64, 2.3e-13 at
256, 1.1e-12 at 1024 and 8.1e-12 at 4096, each in ``beta_gamma`` of P0
pressures, which compounds the errors of beta, c_star and gamma0.  The
reduction of the pencils moves none of these by more than 1%.
RTOL_PER_ELEM · truth is about twice the drift at 4096, and more below.
"""

import json

import pytest

from dualstab.cli import main
from oracles import closed_form_constants

RTOL_PER_ELEM = 4e-15

SIZES = (64, 256, 1024, 4096)
W_KINDS = ("refined:1", "refined:2", "refined:4", "refined:8", "truth")
SETTINGS = ((1.0, 0.0), (1.0, 2.5), (3.0, 0.0), (3.0, 2.5))  # (sigma, reaction)

# each (pressure, W) block meets every truth size, and every (sigma, reaction)
# meets every size across the blocks: the size rotates with the block.  A W
# on the whole truth mesh is dense, so it stops at 1024
CASES = [
    (kind, w, sigma, reaction, truth if w != "truth" else min(truth, 1024), gamma)
    for b, (kind, w) in enumerate((k, w) for k in ("p1", "p0") for w in W_KINDS)
    for j, (sigma, reaction) in enumerate(SETTINGS)
    for truth, gamma in [(SIZES[(j + b) % len(SIZES)], ("0.1", "auto")[j in (1, 2)])]
]


def _case_id(case):
    kind, w, sigma, reaction, truth, gamma = case
    return f"{kind}-{w}-s{sigma:g}-r{reaction:g}-n{truth}-g{gamma}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_constants_match_closed_forms(tmp_path, case):
    kind, w, sigma, reaction, truth, gamma = case

    def w_elems(m):
        return truth if w == "truth" else m * int(w.split(":")[1])

    levels = [m for m in (2**j for j in range(1, 8)) if m < truth and w_elems(m) <= truth]
    stiffness = "gramian" if sigma == 1.0 else f"scaled:{sigma:g}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"truth_elems = {truth}\npressure = {kind}\nw = {w}\ns = {stiffness}\n"
        f"reaction = {reaction}\ngamma = {gamma}\nlevels = {', '.join(map(str, levels))}\n"
    )
    out = tmp_path / "constants.json"
    assert main(["constants", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["coarse_elems"] for row in rows] == levels
    rtol = RTOL_PER_ELEM * truth
    for row in rows:
        m = row["coarse_elems"]
        expected = closed_form_constants(truth, m, w_elems(m), kind, sigma, reaction, gamma)
        assert set(expected) == set(row) - {"level", "coarse_elems"}
        for key, value in expected.items():
            got = float(row[key])  # a non-finite cell is its CSV string
            assert got == value or abs(got - value) <= rtol * abs(value), (m, key, got, value)
