"""Deterministic result tables: CSV and JSON serialization, atomic writes."""

from __future__ import annotations

import json
import math
import os
import stat
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
        """Append a row; a column it leaves out renders blank, a key that is no column raises.

        A row whose ``status`` is ``"fail"`` fails the verdict.
        """
        if not values.keys() <= set(self.columns):
            raise ValueError(f"row keys {sorted(values.keys() - set(self.columns))} are not columns")
        self.rows.append(values)
        if values.get("status") == "fail":
            self.verdict = "fail"

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
    """Serialize to `out`, or stdout if None.

    A regular file, new or existing, is written atomically: a temp file in
    the directory of the resolved path, renamed onto it, with the mode the
    file had (``0o666`` less the umask for a new one).  A symlink is
    followed, so the link stays and its target gets the table.  Another
    existing target, such as a device or a FIFO, is written in place, since
    a rename would replace it with a regular file.
    """
    text = report.render(fmt)
    if out is None:
        print(text, end="")
        return
    path = os.path.realpath(out)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    if mode is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".dualstab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
