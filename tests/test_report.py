import json
import os

import numpy as np
import pytest

from dualstab.report import Report, format_real, write_report


def make_report():
    r = Report(command="demo", config={"gamma": 0.1, "levels": "8,16"}, seed=7,
               columns=["name", "value", "ok", "note"])
    r.add_row(name="first", value=1.0 / 3.0, ok=True, note=None)
    r.add_row(name="second", value=2, ok=False, note="text")
    return r


class TestFormatting:
    def test_seventeen_significant_digits_round_trip(self):
        for x in (1.0 / 3.0, np.pi, 1e-300, 6.02e23, -0.1):
            assert float(format_real(x)) == x

    def test_integer_valued_float(self):
        assert format_real(2.0) == "2"
        assert format_real(np.float64(0.5)) == "0.5"


class TestCsv:
    def test_header_and_cells(self):
        lines = make_report().to_csv().splitlines()
        assert lines[0] == "name,value,ok,note"
        assert lines[1] == f"first,{format_real(1 / 3)},1,"
        assert lines[2] == "second,2,0,text"

    def test_missing_column_is_empty(self):
        r = Report(command="c", config={}, seed=0, columns=["a", "b"])
        r.add_row(a=1)
        assert r.to_csv().splitlines()[1] == "1,"

    def test_unknown_key_raises(self):
        # a misspelled key would otherwise blank its column without an error
        r = Report(command="c", config={}, seed=0, columns=["alpha", "norm_A"])
        with pytest.raises(ValueError, match="norm_a"):
            r.add_row(alpha=1.0, norm_a=2.0)
        assert r.rows == []

    def test_trailing_newline(self):
        assert make_report().to_csv().endswith("\n")


class TestJson:
    def test_structure(self):
        payload = json.loads(make_report().to_json())
        assert set(payload) == {"command", "config", "seed", "rows", "verdict"}
        assert payload["command"] == "demo"
        assert payload["seed"] == 7
        assert payload["verdict"] == "pass"
        assert payload["config"] == {"gamma": format_real(0.1), "levels": "8,16"}
        assert payload["rows"][0] == {"name": "first", "value": 1 / 3, "ok": True, "note": None}

    def test_render_dispatch(self):
        r = make_report()
        assert r.render("csv") == r.to_csv()
        assert r.render("json") == r.to_json()


class TestWrite:
    def test_stdout_when_no_path(self, capsys):
        r = make_report()
        write_report(r, None, "csv")
        assert capsys.readouterr().out == r.to_csv()

    def test_file_written_and_no_temp_left(self, tmp_path):
        target = tmp_path / "out.csv"
        r = make_report()
        write_report(r, str(target), "csv")
        assert target.read_text() == r.to_csv()
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("stale")
        write_report(make_report(), str(target), "json")
        assert json.loads(target.read_text())["command"] == "demo"

    def test_failed_rename_cleans_temp_file(self, tmp_path, monkeypatch):
        import dualstab.report as report_mod

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(report_mod.os, "replace", broken_replace)
        target = tmp_path / "never.csv"
        with pytest.raises(OSError):
            write_report(make_report(), str(target), "csv")
        assert os.listdir(tmp_path) == []
