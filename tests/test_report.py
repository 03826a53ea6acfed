import json
import os
import stat
import threading

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


class TestVerdict:
    def test_failing_status_row_fails_the_verdict(self):
        r = Report(command="c", config={}, seed=0, columns=["check", "status"])
        r.add_row(check="a", status="pass")
        assert r.verdict == "pass"
        r.add_row(check="b", status="fail")
        r.add_row(check="c", status="pass")
        assert r.verdict == "fail"

    @pytest.mark.parametrize("status", ["singular", "ok", None])
    def test_other_statuses_pass(self, status):
        r = Report(command="c", config={}, seed=0, columns=["route", "status"])
        r.add_row(route="stabilized", status=status)
        r.add_row(route="other")
        assert r.verdict == "pass"


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

    def test_symlink_kept_and_its_target_written(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("stale")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_report(make_report(), str(link), "csv")
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == make_report().to_csv()
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_new_file_gets_umask_mode(self, tmp_path):
        target = tmp_path / "new.csv"
        old = os.umask(0o027)
        try:
            write_report(make_report(), str(target), "csv")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_existing_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "kept.csv"
        target.write_text("stale")
        target.chmod(0o604)
        write_report(make_report(), str(target), "csv")
        assert stat.S_IMODE(target.stat().st_mode) == 0o604
        assert target.read_text() == make_report().to_csv()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # a read-write end keeps the pipe open, so the reader's open does not
        # block and its read ends once this end closes, whatever happens to
        # the path; the table is written once the reader holds the pipe
        keeper = os.open(fifo, os.O_RDWR)
        received, opened = [], threading.Event()

        def read():
            with open(fifo, "rb") as handle:
                opened.set()
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            assert opened.wait(timeout=30)
            write_report(make_report(), str(fifo), "csv")
        finally:
            os.close(keeper)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [make_report().to_csv().encode()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
