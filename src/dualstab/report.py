"""Deterministic result tables: CSV and JSON serialization, atomic writes."""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field


def format_real(x):
    """17 significant digits: enough to round-trip any double."""
    return format(float(x), ".17g")


def _json_value(value):
    """JSON has no inf or nan: a non-finite float is written as its CSV cell."""
    if isinstance(value, float) and not math.isfinite(value):
        return _cell(value)
    return value


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    return str(value)


@dataclass
class Report:
    """One command's result table plus metadata."""

    command: str
    config: dict
    seed: int
    columns: list
    rows: list = field(default_factory=list)
    verdict: str = "pass"

    def add_row(self, **values):
        """Append a row; a column it leaves out renders blank, a key that is no column raises."""
        if not values.keys() <= set(self.columns):
            raise ValueError(f"row keys {sorted(values.keys() - set(self.columns))} are not columns")
        self.rows.append(values)

    def to_csv(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(row.get(col)) for col in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "command": self.command,
            "config": {k: _cell(v) for k, v in self.config.items()},
            "seed": self.seed,
            "rows": [{col: _json_value(row.get(col)) for col in self.columns} for row in self.rows],
            "verdict": self.verdict,
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"

    def render(self, fmt):
        if fmt == "json":
            return self.to_json()
        return self.to_csv()


def write_report(report, out, fmt):
    """Serialize to `out` atomically (temp file + rename), or stdout if None."""
    text = report.render(fmt)
    if out is None:
        print(text, end="")
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dualstab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
