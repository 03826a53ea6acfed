"""Output check of one dualstab run against its committed reference report.

References were made at the commit that added the benchmark, with seed 0 and
the BLAS thread count set to the core count.  A run passes when:

- its exit code, ``verdict``, and every string and integer cell equal the
  reference's;
- every float cell agrees with the reference within ``FLOAT_RTOL``;
- the cells with a closed-form value in these configs agree with that value
  instead, so that a more accurate eigensolver does not read as a failure;
- the roundoff-scale cells stay within the thresholds the CLI documents;
- the rows of the seed-dependent pairing sweep match by status only.
"""

from __future__ import annotations

import json
import math

# Between 1 and 2 BLAS threads the reference reports differ by at most
# 7.2e-13 relative (converge p_err at truth 1024); every other float cell
# by at most 1e-13.  The tolerance leaves three orders of magnitude above
# that, and stays below the 1e-10 agreement asked of any faster eigensolver.
FLOAT_RTOL = 1e-9

# alpha = norm_A = 1 because the a-form is the truth Gramian (reaction 0);
# kappa_star = K_star = C_star = 1 because S is the Gramian of W.
CLOSED_FORM = {"alpha": 1.0, "norm_A": 1.0, "kappa_star": 1.0, "K_star": 1.0, "C_star": 1.0}

# roundoff-scale cells and their documented upper thresholds:
# saddle.RESIDUAL_RTOL, cli.CONDENSE_TOL and cli.W_VANISH_TOL
ROUNDOFF = {"residual": 1e-10, "discrepancy": 1e-12, "w_ratio": 1e-9}

# spectral rows drawn from the seeded random stream
SEEDED_CHECKS = ("pairing_min", "pairing_max")


def _close(value, expected, rtol=FLOAT_RTOL):
    return abs(value - expected) <= rtol * max(abs(expected), math.ulp(1.0))


def _cell_problem(column, value, expected):
    if column in ROUNDOFF:
        if value is None and expected is None:
            return None
        if not isinstance(value, float) or not value <= ROUNDOFF[column]:
            return f"{column} {value!r} above threshold {ROUNDOFF[column]:g}"
        return None
    if column in CLOSED_FORM and isinstance(value, float):
        if not _close(value, CLOSED_FORM[column]):
            return f"{column} {value!r} differs from its closed form {CLOSED_FORM[column]!r}"
        return None
    if isinstance(expected, float) and isinstance(value, float):
        if not _close(value, expected):
            return f"{column} {value!r} differs from reference {expected!r}"
        return None
    if value != expected or type(value) is not type(expected):
        return f"{column} {value!r} differs from reference {expected!r}"
    return None


def check_report(exit_code, text, reference, seed):
    """Problems of one run (an empty list when it passes).

    ``text`` is the JSON report the run wrote, ``reference`` the parsed
    reference file (``{"exit_code": ..., "report": ...}``).
    """
    if exit_code != reference["exit_code"]:
        return [f"exit code {exit_code}, reference {reference['exit_code']}"]
    try:
        report = json.loads(text)
    except (TypeError, ValueError) as exc:
        return [f"report is not JSON: {exc}"]
    ref = reference["report"]
    problems = []
    for key in ("command", "config", "verdict"):
        if report.get(key) != ref[key]:
            problems.append(f"{key} {report.get(key)!r}, reference {ref[key]!r}")
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')!r}, expected {seed}")
    rows, ref_rows = report.get("rows", []), ref["rows"]
    if len(rows) != len(ref_rows):
        return problems + [f"{len(rows)} rows, reference {len(ref_rows)}"]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if list(row) != list(ref_row):
            problems.append(f"row {i}: columns {list(row)}, reference {list(ref_row)}")
            continue
        columns = ref_row
        if ref_row.get("check") in SEEDED_CHECKS:
            columns = ("check", "status")
        for column in columns:
            problem = _cell_problem(column, row[column], ref_row[column])
            if problem:
                problems.append(f"row {i}: {problem}")
    return problems
