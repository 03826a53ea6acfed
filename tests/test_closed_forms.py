"""Every ``constants`` column against the closed forms of the 1D model.

beta and norm_B come from the pressures' dual Gram, which a model level forms
in closed form, with no truth solve: their error no longer grows with the
truth size (the dense G-solve's did, like truth²: at truth 16384 it put
norm_B 5.7e-11 and P0 beta_gamma 3.2e-10 off).  What drift remains comes
from W's pencils, whose G_W condition grows with W's size, at most 1024
elements below.  Over every pressure, W, sigma, reaction and gamma below, on
levels 2..128, the largest relative error measured is 2.4e-14 at truth 64,
1.2e-13 at 256, 1.3e-12 at 1024 (P1 with W on the whole truth mesh), 6.3e-13
at 4096 and 1.2e-12 at 16384 (P0 with W eight times finer than the pressures),
each in ``beta_gamma``, which compounds the errors of beta, c_star and gamma0.
RTOL is about twice the largest.
"""

import json

import pytest

from dualstab.cli import main
from oracles import closed_form_constants

RTOL = 2.5e-12

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
# truth 16384, where the truth-solved dual Gram was 5.7e-11 (P1 norm_B) and
# 3.2e-10 (P0 beta_gamma) off
CASES += [
    ("p1", "refined:2", 1.0, 0.0, 16384, "0.1"),
    ("p0", "refined:8", 3.0, 2.5, 16384, "auto"),
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
    for row in rows:
        m = row["coarse_elems"]
        expected = closed_form_constants(truth, m, w_elems(m), kind, sigma, reaction, gamma)
        assert set(expected) == set(row) - {"level", "coarse_elems"}
        for key, value in expected.items():
            got = float(row[key])  # a non-finite cell is its CSV string
            assert got == value or abs(got - value) <= RTOL * abs(value), (m, key, got, value)
