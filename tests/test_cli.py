import functools
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import dualstab.cli as cli
from dualstab import algebra, dualprod, hilbert, models, saddle
from dualstab.cli import (
    ConfigError,
    RunConfig,
    build_run_config,
    main,
    parse_config_file,
)
from dualstab.dualprod import BoundViolated
from dualstab.report import Report, format_real


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = "truth_elems = 32\ncoarse_elems = 4\n"


class TestConfigParsing:
    def test_comments_blanks_and_values(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "# header comment\n"
            "\n"
            "truth_elems = 64   # inline comment\n"
            "gamma=auto\n"
            "levels = 4, 8\n",
        )
        assert parse_config_file(path) == {
            "truth_elems": "64",
            "gamma": "auto",
            "levels": "4, 8",
        }

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a UTF-8 file saved with a byte-order mark parses as the same file without one
        text = "truth_elems = 64\ngamma = auto\n"
        plain = write_cfg(tmp_path, text)
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config_file(str(marked)) == parse_config_file(plain)
        assert parse_config_file(plain) == {"truth_elems": "64", "gamma": "auto"}

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "truth_elems = 64\nmesh = 4\n")
        with pytest.raises(ConfigError, match=r"line 2.*mesh"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "gamma = 0.1\ngamma = 0.2\n")
        with pytest.raises(ConfigError, match=r"line 2.*duplicate"):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(str(tmp_path / "absent.cfg"))


class TestRunConfig:
    def test_defaults(self):
        cfg = build_run_config({}, {})
        assert cfg == RunConfig()

    def test_file_values_parsed(self):
        cfg = build_run_config(
            {"truth_elems": "64", "gamma": "auto", "levels": "4,8", "seed": "3"}, {}
        )
        assert cfg.truth_elems == 64
        assert cfg.gamma == "auto"
        assert cfg.levels == (4, 8)
        assert cfg.seed == 3

    def test_override_beats_file(self):
        cfg = build_run_config({"gamma": "0.5"}, {"gamma": "0.25"})
        assert cfg.gamma == 0.25

    def test_none_override_ignored(self):
        cfg = build_run_config({"gamma": "0.5"}, {"gamma": None})
        assert cfg.gamma == 0.5

    @pytest.mark.parametrize(
        "values, field",
        [
            ({"pressure": "p2"}, "pressure"),
            ({"format": "xml"}, "format"),
            ({"truth_elems": "0"}, "truth_elems"),
            ({"truth_elems": "many"}, "truth_elems"),
            ({"gamma": "-1"}, "gamma"),
            ({"seed": "-2"}, "seed"),
            ({"gammas": "0.1,0"}, "gammas"),
            ({"levels": ""}, "levels"),
            ({"w": "refined:0"}, "w_kind"),
            ({"w": "refined:two"}, "w_kind"),
            ({"truth_elems": "64", "levels": "8, 16, 8"}, "levels: entry 8 is repeated"),
        ],
    )
    def test_invalid_field_named_in_message(self, values, field):
        with pytest.raises(ConfigError, match=field):
            build_run_config(values, {})

    def test_bad_stiffness_choice(self):
        with pytest.raises(ConfigError, match="stiffness"):
            build_run_config({"s": "diagonal"}, {})
        with pytest.raises(ConfigError, match="positive"):
            build_run_config({"s": "scaled:-2"}, {})

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_stiffness_scale(self, scale):
        with pytest.raises(ConfigError, match="finite"):
            build_run_config({"s": f"scaled:{scale}"}, {})

    def test_non_nested_mesh_pair(self):
        with pytest.raises(ConfigError, match="coarse"):
            build_run_config({"truth_elems": "16", "coarse_elems": "64"}, {})

    def test_levels_validated_up_front(self):
        with pytest.raises(ConfigError, match="nest"):
            build_run_config({"truth_elems": "32", "levels": "4,32"}, {})

    @pytest.mark.parametrize(
        "text, error",
        [
            ("truth_elems = 8\nlevels = 2, 4\n", "coarse mesh cannot be finer than the truth mesh"),
            (
                "truth_elems = 32\nlevels = 4, 8\nw = refined:4\n",
                "auxiliary mesh with 64 elements does not nest into truth mesh with 32",
            ),
        ],
        ids=["coarse-above-truth", "w-beyond-truth"],
    )
    def test_levels_replace_an_invalid_coarse_mesh(self, tmp_path, capsys, text, error):
        # the default coarse_elems = 16 fails here; the level commands never
        # run it, while solve and condense-check run only it
        path = write_cfg(tmp_path, text)
        for command in ("constants", "spectral", "infsup", "converge"):
            assert main([command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
        assert capsys.readouterr().err == ""
        for command in ("solve", "condense-check"):
            assert main([command, "--config", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"dualstab: config error: {error}\n"

    def test_default_sweep_stops_at_nesting_limit(self):
        # w = refined:2 cannot nest once the coarse mesh reaches truth/2
        cfg = RunConfig(truth_elems=16, coarse_elems=4)
        assert cli._default_sweep(cfg) == (4, 8)

    def test_default_sweep_stops_at_dense_limit(self):
        # at coarse 2048, w = refined:2 is the whole truth mesh, a dense path at truth 4096
        cfg = RunConfig(truth_elems=2 * models.DENSE_TRUTH_LIMIT, coarse_elems=512)
        assert cli._default_sweep(cfg) == (512, 1024)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["constants", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_not_utf8_exits_2_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"truth_elems = 64\xff\n")
        assert main(["constants", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"dualstab: config error: config: cannot read {str(path)!r}: ")

    def test_bad_override_value(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL)
        code = main(["constants", "--config", path, "--truth-elems", "-5"])
        assert code == 2
        assert "truth_elems" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, flag, value, message",
        [
            ("pressure", "--pressure", "p2", "pressure: must be 'p1' or 'p0', got 'p2'"),
            ("format", "--format", "xml", "format: must be 'csv' or 'json', got 'xml'"),
        ],
        ids=["pressure", "format"],
    )
    def test_bad_flag_value_is_the_config_error_of_the_file(
        self, tmp_path, capsys, key, flag, value, message
    ):
        # a flag value goes through the parser of its config key, not argparse
        expected = [f"dualstab: config error: {message}"]
        assert main(["constants", "--config", write_cfg(tmp_path, SMALL), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == expected
        path = write_cfg(tmp_path, SMALL + f"{key} = {value}\n", name="bad.cfg")
        assert main(["constants", "--config", path]) == 2
        assert capsys.readouterr().err.splitlines() == expected

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unwritable_out_exits_2_in_one_line(self, tmp_path, capsys, where):
        out = tmp_path / "reports"
        out.mkdir()
        target = out if where == "directory" else out / "nodir" / "x.csv"
        reason = "Is a directory" if where == "directory" else "No such file or directory"
        code = main(["constants", "--config", write_cfg(tmp_path, SMALL), "--out", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"dualstab: config error: out: cannot write {str(target)!r}: {reason}"
        ]
        assert "Traceback" not in err
        assert list(tmp_path.rglob(".dualstab-*.tmp")) == []

    def test_unknown_command_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "--config", write_cfg(tmp_path, SMALL)])
        assert exc.value.code == 2

    def test_missing_required_config_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["constants"])
        assert exc.value.code == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # mass lumping of a stiffness Gramian produces zero diagonal entries
        path = write_cfg(tmp_path, SMALL + "s = lumped\n")
        code = main(["constants", "--config", path])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("gamma = abc", "gamma: expected a real number, got 'abc'"),
            ("reaction = x", "reaction: expected a real number, got 'x'"),
            ("gammas = 0.1, y", "gammas: expected a real number, got 'y'"),
        ],
        ids=["gamma", "reaction", "gammas"],
    )
    def test_non_number_exits_2_naming_its_field(self, tmp_path, capsys, line, message):
        path = write_cfg(tmp_path, SMALL + line + "\n")
        assert main(["constants", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"dualstab: config error: {message}"]

    def test_non_finite_scale_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL + "s = scaled:nan\n")
        assert main(["constants", "--config", path]) == 2
        assert "dualstab: config error: s:" in capsys.readouterr().err

    @pytest.mark.parametrize("choice", ["bogus", "scaled:x", "scaled:inf", "scaled:-1"])
    def test_bad_stiffness_choice_exits_2_naming_s(self, tmp_path, capsys, choice):
        path = write_cfg(tmp_path, SMALL + f"s = {choice}\n")
        assert main(["constants", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("dualstab: config error: s: ")

    def test_converge_gamma_above_gamma0_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "truth_elems = 64\n")
        code = main(["converge", "--config", path, "--gamma", "50"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("dualstab: config error: gamma 50 ")
        assert "gamma0" in err and "Traceback" not in err

    def test_converge_level_at_truth_mesh_exits_2(self, tmp_path, capsys):
        # U = W = truth: the exact solution is discrete, the ratio undefined,
        # so the level is refused before it is solved (saddle.quasi_optimality
        # still raises DegenerateDenominator on it)
        path = write_cfg(tmp_path, "truth_elems = 64\n")
        code = main(["converge", "--config", path, "--coarse-elems", "64", "--w", "truth"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "dualstab: config error: coarse_elems: 64 is the truth mesh, where the exact pair "
            "is discrete; converge needs levels below it"
        ]

    def test_any_numerical_failure_exits_3_in_one_line(self, tmp_path, monkeypatch, capsys):
        # a failure class cli does not name exits 3 through the common base
        class NewFailure(algebra.NumericalFailure):
            pass

        def boom(cfg):
            raise NewFailure("a new kind of breakdown")

        monkeypatch.setitem(cli._COMMANDS, "constants", (boom, ""))
        assert main(["constants", "--config", write_cfg(tmp_path, SMALL)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["dualstab: numerical failure: a new kind of breakdown"]

    def test_bound_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise BoundViolated("spectral bound breached")

        monkeypatch.setitem(cli._COMMANDS, "constants", (boom, ""))
        code = main(["constants", "--config", write_cfg(tmp_path, SMALL)])
        assert code == 1
        assert "check failed" in capsys.readouterr().err

    def test_failing_verdict_exits_1_but_writes_report(self, tmp_path, monkeypatch):
        def fake(cfg):
            report = Report("constants", {}, cfg.seed, ["a"])
            report.add_row(a=1)
            report.verdict = "fail"
            return report

        monkeypatch.setitem(cli._COMMANDS, "constants", (fake, ""))
        out = tmp_path / "report.csv"
        code = main(["constants", "--config", write_cfg(tmp_path, SMALL), "--out", str(out)])
        assert code == 1
        assert out.read_text() == "a\n1\n"


def run_csv(tmp_path, argv):
    out = tmp_path / "table.csv"
    code = main(argv + ["--out", str(out)])
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return code, header, rows


class TestEigensolvers:
    # every eigensolve and SVD runs on algebra's LAPACK, none on numpy's;
    # both OpenBLAS copies run on one thread, where algebra's give numpy's
    # bits (test_algebra.py::TestLapackModule) and work in their one copy

    @pytest.mark.parametrize(
        "text",
        ["truth_elems = 64\ncoarse_elems = 8\ngamma = auto\n", "truth_elems = 64\npressure = p0\n"],
    )
    def test_no_command_calls_numpy_eigensolvers(self, tmp_path, monkeypatch, text):
        def refused(*args, **kwargs):
            raise AssertionError("numpy eigensolver called")

        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refused)
        path = write_cfg(tmp_path, text)
        for command in cli._COMMANDS:
            assert main([command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 0


class TestCommands:
    def test_constants_table(self, tmp_path):
        path = write_cfg(tmp_path, SMALL)
        code, header, rows = run_csv(tmp_path, ["constants", "--config", path])
        assert code == 0
        # ConstantsReport extends EquivalenceReport, but the column order is the a-form's
        # constants first and the thresholds last
        assert header == [
            "level", "coarse_elems", "alpha", "norm_A", "norm_B", "beta", "kappa_star",
            "K_star", "c_star", "C_star", "alpha_hat", "beta_hat", "gamma0", "gamma_tilde0",
            "gamma", "beta_gamma",
        ]  # fmt: skip
        assert len(rows) == 1
        assert rows[0]["coarse_elems"] == "4"
        assert float(rows[0]["alpha"]) == pytest.approx(1.0)
        assert float(rows[0]["beta_gamma"]) > 0.0

    def test_constants_auto_gamma_is_half_gamma0(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + "gamma = auto\n")
        code, _, rows = run_csv(tmp_path, ["constants", "--config", path])
        assert code == 0
        assert float(rows[0]["gamma"]) == float(rows[0]["gamma0"]) / 2.0

    def test_constants_levels_rows(self, tmp_path):
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8, 16\n")
        code, _, rows = run_csv(tmp_path, ["constants", "--config", path])
        assert code == 0
        assert [r["coarse_elems"] for r in rows] == ["4", "8", "16"]
        assert [r["level"] for r in rows] == ["0", "1", "2"]

    def test_spectral_all_rows_pass(self, tmp_path):
        path = write_cfg(tmp_path, SMALL)
        code, header, rows = run_csv(tmp_path, ["spectral", "--config", path])
        assert code == 0
        assert len(rows) == 8
        assert {r["status"] for r in rows} == {"pass"}
        checks = {r["check"] for r in rows}
        assert "equivalence_low" in checks and "pairing_max" in checks

    def test_spectral_deterministic_per_seed(self, tmp_path):
        path = write_cfg(tmp_path, SMALL)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        assert main(["spectral", "--config", path, "--seed", "5", "--out", str(a)]) == 0
        assert main(["spectral", "--config", path, "--seed", "5", "--out", str(b)]) == 0
        assert main(["spectral", "--config", path, "--seed", "6", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_spectral_does_not_import_numpy_random(self, tmp_path):
        # the pairing sweep draws from the stdlib Mersenne Twister; numpy.random
        # and the hashlib it pulls in cost about 6 MB of RSS per process
        path = write_cfg(tmp_path, SMALL)
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys\n"
            "from dualstab.cli import main\n"
            "assert main(['spectral', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "sys.exit('numpy.random imported' if 'numpy.random' in sys.modules else 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, path, str(tmp_path / "spectral.csv")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_infsup_table(self, tmp_path):
        path = write_cfg(tmp_path, SMALL)
        code, _, rows = run_csv(tmp_path, ["infsup", "--config", path])
        assert code == 0
        row = rows[0]
        assert row["status"] == "pass"
        assert int(row["u_dim"]) == 3 and int(row["w_dim"]) == 7
        assert float(row["relaxed"]) >= float(row["beta_hat"]) - 1e-9

    def test_solve_three_routes(self, tmp_path):
        path = write_cfg(tmp_path, SMALL)
        code, _, rows = run_csv(tmp_path, ["solve", "--config", path])
        assert code == 0
        assert [r["route"] for r in rows] == ["stabilized", "three_field", "condensed_vs_stabilized"]
        assert float(rows[0]["residual"]) < 1e-12
        assert float(rows[1]["u_err"]) == pytest.approx(float(rows[0]["u_err"]), rel=1e-9)
        assert float(rows[2]["discrepancy"]) <= 1e-12

    def test_solve_singular_pair_flagged(self, tmp_path):
        # equal-order P1 pair on the same mesh is singular without stabilization
        path = write_cfg(tmp_path, SMALL + "gamma = 0\n")
        code, _, rows = run_csv(tmp_path, ["solve", "--config", path])
        assert code == 0
        assert len(rows) == 1
        assert rows[0]["route"] == "stabilized" and rows[0]["status"] == "singular"

    def test_solve_json_payload(self, tmp_path):
        path = write_cfg(tmp_path, SMALL)
        out = tmp_path / "solve.json"
        code = main(["solve", "--config", path, "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"command", "config", "seed", "rows", "verdict"}
        assert payload["command"] == "solve"
        assert payload["verdict"] == "pass"
        assert payload["rows"][0]["route"] == "stabilized"

    def test_converge_default_sweep(self, tmp_path):
        path = write_cfg(tmp_path, "truth_elems = 16\ncoarse_elems = 4\n")
        code, _, rows = run_csv(tmp_path, ["converge", "--config", path])
        assert code == 0
        assert [r["coarse_elems"] for r in rows] == ["4", "8"]
        assert rows[0]["rate"] == ""
        assert float(rows[1]["rate"]) > 0.0

    def test_converge_default_sweep_stops_below_truth(self, tmp_path):
        # the exact pair is discrete on the truth mesh, where the sweep would
        # end in DegenerateDenominator
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 16\nw = truth\n")
        code, _, rows = run_csv(tmp_path, ["converge", "--config", path])
        assert code == 0
        assert [r["coarse_elems"] for r in rows] == ["16", "32"]

    @pytest.mark.parametrize(
        "text, named",
        [
            # swept from coarse_elems; ended in DegenerateDenominator after solving
            ("coarse_elems = 16\n", "coarse_elems: 16 is the truth mesh"),
            # an explicit level; ended in a singular system after solving level 8
            ("levels = 8, 16\n", "levels: entry 16 is the truth mesh"),
        ],
        ids=["coarse", "levels"],
    )
    def test_converge_rejects_a_level_at_the_truth_mesh(
        self, tmp_path, capsys, monkeypatch, text, named
    ):
        built = []
        monkeypatch.setattr(models, "build_level", lambda *args: built.append(args))
        path = write_cfg(tmp_path, "truth_elems = 16\nw = same\ngamma = auto\n" + text)
        assert main(["converge", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and built == []
        (line,) = captured.err.splitlines()
        assert line.startswith(f"dualstab: config error: {named}")
        # the other commands keep accepting the level
        monkeypatch.undo()
        assert main(["solve", "--config", path, "--out", str(tmp_path / "solve.csv")]) == 0

    def test_converge_failing_verdict_exits_1_with_its_rows(self, tmp_path):
        # a large reaction at gamma = auto: the qratio column spreads by 2.8,
        # above QRATIO_SPREAD, so the sweep fails but still writes its rows
        text = "truth_elems = 256\nlevels = 2, 4, 8, 16\nreaction = 100\ngamma = auto\n"
        out = tmp_path / "sweep.json"
        argv = ["converge", "--config", write_cfg(tmp_path, text), "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "fail"
        rows = payload["rows"]
        assert [r["coarse_elems"] for r in rows] == [2, 4, 8, 16]
        ratios = [r["qratio"] for r in rows]
        np.testing.assert_allclose(ratios, [3.034, 1.435, 1.164, 1.075], rtol=1e-3)
        assert max(ratios) / min(ratios) > cli.QRATIO_SPREAD
        for row in rows:
            assert row["total_err"] == pytest.approx(row["u_err"] + row["p_err"])
            assert row["gamma"] == pytest.approx(0.00605, rel=0.01)

    def test_converge_explicit_levels(self, tmp_path):
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8, 16\ngamma = auto\n")
        code, _, rows = run_csv(tmp_path, ["converge", "--config", path])
        assert code == 0
        assert len(rows) == 3
        for row in rows:
            assert float(row["qratio"]) >= 1.0
            assert float(row["total_err"]) == pytest.approx(
                float(row["u_err"]) + float(row["p_err"])
            )

    def test_converge_rate_divides_by_the_mesh_ratio(self, tmp_path):
        # a rate is the order in h between a level and the one before it: a
        # skipped mesh reads the mean of the dyadic steps it spans, and a
        # reversed one the same order; dividing by one halving read 2.156 and
        # -2.156 for this first-order method
        def rates(levels):
            path = write_cfg(tmp_path, f"truth_elems = 256\nlevels = {levels}\n")
            code, _, rows = run_csv(tmp_path, ["converge", "--config", path])
            assert code == 0 and rows[0]["rate"] == ""
            return [float(r["rate"]) for r in rows[1:]]

        r16, r32 = rates("8, 16, 32")
        (skip,) = rates("8, 32")
        back, ahead = rates("32, 8, 16")
        assert 0.9 < skip < 1.2
        assert skip == pytest.approx((r16 + r32) / 2, rel=1e-12)
        assert back == pytest.approx(skip, rel=1e-12)
        assert ahead == r16

    def test_condense_check_row_per_gamma(self, tmp_path):
        path = write_cfg(tmp_path, SMALL + "gammas = 0.05, 0.5\n")
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", path])
        assert code == 0
        assert [float(r["gamma"]) for r in rows] == [0.05, 0.5]
        for row in rows:
            assert row["status"] == "pass"
            assert float(row["discrepancy"]) <= 1e-12
            assert float(row["w_ratio"]) <= 1e-9

    def test_stdout_report_when_no_out(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL)
        assert main(["constants", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("level,coarse_elems,")


class TestTruthLevelWork:
    # alpha and norm_A enter gamma0 and beta_gamma only, and the truth record
    # reads them from the closed-form spectrum of (M, G): no command solves
    # the truth pencil, at any reaction
    @pytest.mark.parametrize(
        "command, extra, n_rows, reaction",
        [
            pytest.param("constants", [], 4, 2.5, id="constants"),
            pytest.param("converge", [], 4, 2.5, id="converge"),
            pytest.param("spectral", [], 4 * 8, 2.5, id="spectral"),
            pytest.param("infsup", [], 4, 2.5, id="infsup"),
            pytest.param("solve", [], 3, 2.5, id="solve"),
            pytest.param("solve", ["--gamma", "auto"], 3, 2.5, id="solve-auto"),
            pytest.param("constants", [], 4, 0.0, id="constants-reaction0"),
            pytest.param("converge", [], 4, 0.0, id="converge-reaction0"),
            pytest.param("spectral", [], 4 * 8, 0.0, id="spectral-reaction0"),
            pytest.param("infsup", [], 4, 0.0, id="infsup-reaction0"),
            pytest.param("solve", [], 3, 0.0, id="solve-reaction0"),
            pytest.param("solve", ["--gamma", "auto"], 3, 0.0, id="solve-auto-reaction0"),
        ],
    )
    def test_truth_pencil_measured_once_per_command(
        self, tmp_path, monkeypatch, command, extra, n_rows, reaction
    ):
        # counted by the pencil's matrix, the dense truth mass, not by shape:
        # at level 32, refined:2 gives a W of the truth dimension 63
        mass = models.p1_interior_mass(64)
        records, calls = [], []
        original_record = models.truth_record

        def recorded(cfg):
            records.append(original_record(cfg))
            return records[-1]

        def counting(original):
            def counted(a, b_fact):
                if a.shape == mass.shape and np.array_equal(a, mass):
                    calls.append(a.shape)
                return original(a, b_fact)

            return counted

        monkeypatch.setattr(models, "truth_record", recorded)
        for module in (algebra, dualprod, saddle):
            monkeypatch.setattr(
                module, "sym_generalized_eigvals", counting(module.sym_generalized_eigvals)
            )
        path = write_cfg(
            tmp_path, f"truth_elems = 64\nlevels = 4, 8, 16, 32\nreaction = {reaction}\n"
        )
        code, _, rows = run_csv(tmp_path, [command, "--config", path] + extra)
        assert code == 0
        assert len(rows) == n_rows
        assert len(records) == 1
        assert calls == []

    # S = σ·G_W carries its range (σ, σ) from the start, so no command solves
    # the pencil (S, G_W), whether or not it reads kappa_star and K_star
    @pytest.mark.parametrize("stiffness", ["scaled:2", "gramian"])
    @pytest.mark.parametrize(
        "command, extra, n_forms",
        [
            pytest.param("constants", [], 4, id="constants"),
            pytest.param("spectral", [], 4, id="spectral"),
            pytest.param("converge", [], 4, id="converge"),
            pytest.param("solve", ["--gamma", "auto"], 1, id="solve-auto"),
            pytest.param("infsup", [], 4, id="infsup"),
            pytest.param("solve", [], 1, id="solve"),
            pytest.param("condense-check", [], 2, id="condense-check"),
        ],
    )
    def test_no_command_solves_the_stiffness_pencil(
        self, tmp_path, monkeypatch, command, extra, n_forms, stiffness
    ):
        forms, calls, intervals = [], [], []
        original_form = models.make_stiffness
        original_interval = dualprod.dual_equivalence_interval

        def recorded(sub, choice):
            forms.append(original_form(sub, choice))
            return forms[-1]

        # at s = gramian, S is G_W with G_W's factor, so the (G_W, S) pencil
        # of spectral's equivalence rows is the same call: it is set aside
        def interval(dp):
            intervals.append(dp)
            try:
                return original_interval(dp)
            finally:
                intervals.pop()

        def counting(original):
            def counted(a, b_fact):
                if not intervals:
                    calls.append((a, b_fact))
                return original(a, b_fact)

            return counted

        monkeypatch.setattr(models, "make_stiffness", recorded)
        monkeypatch.setattr(dualprod, "dual_equivalence_interval", interval)
        for module in (algebra, dualprod, saddle, models):
            if hasattr(module, "sym_generalized_eigvals"):
                monkeypatch.setattr(
                    module, "sym_generalized_eigvals", counting(module.sym_generalized_eigvals)
                )
        text = f"truth_elems = 64\nlevels = 4, 8, 16, 32\ns = {stiffness}\n"
        code, _, _ = run_csv(tmp_path, [command, "--config", write_cfg(tmp_path, text)] + extra)
        assert code == 0
        assert len(forms) == n_forms
        pencils = [
            a.shape
            for a, b in calls
            for f in forms
            if b is f.aux.fact and a.shape == f.matrix.shape and np.array_equal(a, f.matrix)
        ]
        assert pencils == []

    # B_effᵀ G⁻¹ B_eff is formed by a level's pressures on first read and kept
    # with them: once per level in a command that reads beta, norm_B or the
    # pairing sweep, never otherwise, and factored only for c_star and alpha_hat
    @pytest.mark.parametrize(
        "command, extra, n_formed, n_factored",
        [
            pytest.param("constants", [], 4, 4, id="constants"),
            pytest.param("spectral", [], 4, 4, id="spectral"),
            pytest.param("infsup", [], 4, 0, id="infsup"),
            pytest.param("converge", [], 4, 4, id="converge"),
            pytest.param("solve", ["--gamma", "auto"], 1, 1, id="solve-auto"),
            pytest.param("solve", [], 0, 0, id="solve"),
            pytest.param("condense-check", [], 0, 0, id="condense-check"),
        ],
    )
    def test_dual_gram_formed_once_per_level(
        self, tmp_path, monkeypatch, command, extra, n_formed, n_factored
    ):
        formed, factored = [], []
        original_form = dualprod.DeflatedPressures.dual_gram.func
        original_cholesky = dualprod.cholesky

        def form(pressures):
            formed.append(pressures)
            return original_form(pressures)

        def factor(m, name="matrix"):
            factored.append(m)
            return original_cholesky(m, name)

        counted = functools.cached_property(form)
        counted.__set_name__(dualprod.DeflatedPressures, "dual_gram")
        monkeypatch.setattr(dualprod.DeflatedPressures, "dual_gram", counted)
        monkeypatch.setattr(dualprod, "cholesky", factor)
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8, 16, 32\n")
        code, _, _ = run_csv(tmp_path, [command, "--config", path] + extra)
        assert code == 0
        # one formation per level, each on its own pressures
        assert len({id(p) for p in formed}) == len(formed) == n_formed
        grams = [p.dual_gram for p in formed]
        assert sum(any(m is g for g in grams) for m in factored) == n_factored

    @pytest.mark.parametrize(
        "command", ["constants", "spectral", "infsup", "solve", "converge", "condense-check"]
    )
    def test_one_truth_record_per_command(self, tmp_path, monkeypatch, command):
        # condense-check builds its maximal level on the same record
        records, spaces = [], []
        original_record = models.truth_record
        original_init = hilbert.BandedTruthSpace.__init__

        def recorded(cfg):
            records.append(original_record(cfg))
            return records[-1]

        def counted(self, *args, **kwargs):
            spaces.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(models, "truth_record", recorded)
        monkeypatch.setattr(hilbert.BandedTruthSpace, "__init__", counted)
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8\n")
        code, _, _ = run_csv(tmp_path, [command, "--config", path])
        assert code == 0
        assert len(records) == len(spaces) == 1

    def test_infsup_solves_one_pressure_pencil_per_level(self, tmp_path, monkeypatch):
        # the W-only pencil gives beta_hat, the floor of the relaxed check, and,
        # since U nests in W, the relaxed constant of U + W = W too
        dims = []
        original = dualprod.pressure_infsup

        def counted(pressures, sub):
            dims.append(sub.dim)
            return original(pressures, sub)

        for module in (dualprod, saddle, cli):
            if hasattr(module, "pressure_infsup"):
                monkeypatch.setattr(module, "pressure_infsup", counted)
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8\n")
        code, _, rows = run_csv(tmp_path, ["infsup", "--config", path])
        assert code == 0 and len(rows) == 2
        # W only, once per level
        assert dims == [7, 15]

    def test_infsup_closed_form_at_truth_2_18(self, tmp_path):
        # W's derivatives are the piecewise constants on the halved mesh, so
        # beta_hat is the least ratio ‖Π₀q‖/‖q‖ over zero-mean P1 pressures,
        # √3/2, attained by the alternating pressure; U + W is W, so the
        # relaxed constant is the same value.  A dense n × m embedding of this
        # truth mesh would not fit the level path
        path = write_cfg(tmp_path, "truth_elems = 262144\ncoarse_elems = 16\n")
        code, _, rows = run_csv(tmp_path, ["infsup", "--config", path])
        assert code == 0 and len(rows) == 1
        assert rows[0]["relaxed"] == rows[0]["beta_hat"]
        assert float(rows[0]["beta_hat"]) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("reaction", [0.0, 2.5])
    def test_library_constants_read_the_cli_record(self, tmp_path, reaction):
        # saddle.constants and the command read alpha and norm_A from one record
        text = f"truth_elems = 1024\ncoarse_elems = 16\nreaction = {reaction}\n"
        code, _, rows = run_csv(tmp_path, ["constants", "--config", write_cfg(tmp_path, text)])
        assert code == 0
        cfg = models.ModelConfig(truth_elems=1024, coarse_elems=16, reaction=reaction)
        pb = models.build_truth(cfg)
        rep = saddle.constants(pb, models.build_spaces(cfg, pb))
        assert rows[0]["alpha"] == format_real(rep.alpha)
        assert rows[0]["norm_A"] == format_real(rep.norm_A)
        if reaction == 0.0:
            assert rep.alpha == rep.norm_A == 1.0

    def test_infsup_does_not_depend_on_stiffness(self, tmp_path):
        # beta, beta_hat and the relaxed constant read the pressure pencils
        # only; at these scales gamma0 would over- or underflow C_star**2
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8, 16\n")
        tables = {}
        for s in ("gramian", "scaled:1e-300", "scaled:1e300"):
            out = tmp_path / f"{s.replace(':', '_')}.csv"
            assert main(["infsup", "--config", path, "--s", s, "--out", str(out)]) == 0
            tables[s] = out.read_bytes()
        assert tables["scaled:1e-300"] == tables["gramian"]
        assert tables["scaled:1e300"] == tables["gramian"]


class TestCondenseCheckPhases:
    # condense-check builds one level, the configured one; W ⊆ U forces w = 0
    # whatever the pressures, so its maximal systems (U = W = truth) run on
    # the configured problem, before the condensation is measured

    def test_maximal_level_has_one_subspace(self, tmp_path, monkeypatch):
        subspaces, levels, maximal = [], [], []
        original_init = hilbert.Subspace.__init__
        original_spaces = models.build_spaces

        def counted(self, *args, **kwargs):
            subspaces.append(self)
            original_init(self, *args, **kwargs)

        def recorded(cfg, pb):
            levels.append(original_spaces(cfg, pb))
            return levels[-1]

        class Recorded(saddle.Discretization):
            def __init__(self, *args):
                super().__init__(*args)
                if self.U.dim == 63:
                    maximal.append(self)

        monkeypatch.setattr(hilbert.Subspace, "__init__", counted)
        monkeypatch.setattr(models, "build_spaces", recorded)
        monkeypatch.setattr(saddle, "Discretization", Recorded)
        # W of coarse 8 is coarser than the truth mesh: U and W of coarse 8,
        # and one U = W on the truth mesh
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 8\n")
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", path])
        assert code == 0 and len(rows) == 3
        assert len(subspaces) == 3
        (truth_level,) = [d for d in levels if d.U.dim == 63]
        assert truth_level.dp.aux is truth_level.U
        # one restatement of the truth level per gamma, all on its blocks
        assert len(maximal) == 3
        assert all(d.U is d.W is truth_level.U for d in maximal)
        assert all(d.blocks is truth_level.blocks for d in maximal)
        # refined:2 of coarse 32 spans the truth mesh: the maximal U is the
        # configured W, and no truth subspace is built beside it
        for recorded_list in (subspaces, levels, maximal):
            recorded_list.clear()
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 32\nw = refined:2\n")
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", path])
        assert code == 0 and len(rows) == 3
        assert len(subspaces) == 2
        (configured,) = levels
        assert configured.U.dim == 31 and configured.W.dim == 63
        # the maximal discretization on the configured W and one restatement
        # per gamma, all on its blocks
        assert len(maximal) == 4
        assert all(d.U is d.W is configured.W and d.dp is configured.dp for d in maximal)
        assert all(d.blocks is maximal[0].blocks for d in maximal)

    def test_one_level_and_one_deflation(self, tmp_path, monkeypatch):
        levels, deflations = [], []
        original_level = models.build_level
        original_deflate = dualprod.deflate_pressures

        def recorded(cfg, truth):
            pb = original_level(cfg, truth)
            levels.append(pb.pressure_dim)
            return pb

        def counted(b_t, q_gram, truth):
            deflations.append(b_t.shape)
            return original_deflate(b_t, q_gram, truth)

        monkeypatch.setattr(models, "build_level", recorded)
        for module in (dualprod, saddle):
            monkeypatch.setattr(module, "deflate_pressures", counted)
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 8\n")
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", path])
        assert code == 0 and len(rows) == 3
        assert levels == [9]
        assert deflations == [(63, 9)]

    @pytest.mark.parametrize("pressure", ["p1", "p0"])
    @pytest.mark.parametrize("coarse", [4, 8, 16, 32, 64])
    def test_w_vanishes_whatever_the_pressures(self, tmp_path, pressure, coarse):
        # the maximal U = W = truth on pressures of every coarse mesh; refined:2
        # does not nest at coarse = truth, where W = U spans the truth mesh
        w = "same" if coarse == 64 else "refined:2"
        text = f"truth_elems = 64\ncoarse_elems = {coarse}\npressure = {pressure}\nw = {w}\n"
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", write_cfg(tmp_path, text)])
        assert code == 0 and len(rows) == 3
        for row in rows:
            assert 0.0 <= float(row["w_ratio"]) <= cli.W_VANISH_TOL

    def test_singular_maximal_system_named_with_its_gamma(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "truth_elems = 256\ncoarse_elems = 8\ngammas = 1e-10\n")
        assert main(["condense-check", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(
            "dualstab: numerical failure: maximal system (U = W = truth) at gamma 1e-10: "
            "system is singular: reciprocal condition estimate "
        )
        # the re-raised exception keeps the estimate and the original
        cfg = build_run_config(parse_config_file(path), {})
        with pytest.raises(saddle.SingularSystem) as exc:
            cli.cmd_condense_check(cfg)
        assert 0.0 < exc.value.rcond <= saddle.SINGULAR_RTOL
        assert exc.value.rcond == exc.value.__cause__.rcond
        assert str(exc.value).endswith(str(exc.value.__cause__))


class TestGammaFreeBlocks:
    # every gamma and both assemblies of one (problem, U, dual product) read
    # one set of gamma-free blocks, built once

    @staticmethod
    def record_builds(monkeypatch):
        """Weak references to every block set built, and for each build the
        liveness of the sets built before it."""
        built, alive = [], []
        original = saddle.GammaFreeBlocks

        def recorded(pb, u, dp):
            alive.append([ref() is not None for ref in built])
            blocks = original(pb, u, dp)
            built.append(weakref.ref(blocks))
            return blocks

        monkeypatch.setattr(saddle, "GammaFreeBlocks", recorded)
        return built, alive

    @pytest.mark.parametrize(
        "text", ["coarse_elems = 8\n", "coarse_elems = 32\nw = refined:2\n"], ids=["w8", "w64"]
    )
    def test_condense_check_builds_two_sets(self, tmp_path, monkeypatch, text):
        # the maximal set, whether or not the configured W spans the truth
        # mesh, and the configured one; the maximal set is freed before the
        # configured one is built, and only the stabilized route solves S
        built, alive = self.record_builds(monkeypatch)
        stiffness, solved = [], []
        original_stiffness, original_solve = models.make_stiffness, saddle.spd_solve

        def made(sub, choice):
            stiffness.append(original_stiffness(sub, choice))
            return stiffness[-1]

        def counted(fact, rhs):
            solved.append(any(fact is s.fact for s in stiffness))
            return original_solve(fact, rhs)

        monkeypatch.setattr(models, "make_stiffness", made)
        monkeypatch.setattr(saddle, "spd_solve", counted)
        path = write_cfg(tmp_path, "truth_elems = 64\n" + text)
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", path])
        assert code == 0 and len(rows) == 3
        assert len(built) == 2
        assert alive == [[], [False]]
        assert solved.count(True) == 3

    def test_condense_check_forms_each_g_gram_once(self, tmp_path, monkeypatch):
        # the Grams of U and W, and the cross Gram A_WU; A_UU is U's own Gram,
        # in the configured set and in the maximal one on the configured W
        calls, original = [], models.P1Prolongation.band_gram

        def counted(self, band, other):
            calls.append((self.shape, other.shape))
            return original(self, band, other)

        monkeypatch.setattr(models.P1Prolongation, "band_gram", counted)
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 32\nw = refined:2\n")
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", path])
        assert code == 0 and len(rows) == 3
        u, w = (63, 31), (63, 63)
        assert calls == [(u, u), (w, w), (w, u)]

    @pytest.mark.parametrize(
        "command, text, builds",
        [
            ("solve", "truth_elems = 64\ncoarse_elems = 8\n", 1),
            ("solve", "truth_elems = 64\ncoarse_elems = 8\ngamma = auto\n", 1),
            ("converge", "truth_elems = 64\nlevels = 4, 8, 16\n", 3),
        ],
        ids=["solve", "solve-auto", "converge"],
    )
    def test_one_set_per_level(self, tmp_path, monkeypatch, command, text, builds):
        built, _ = self.record_builds(monkeypatch)
        code, _, _ = run_csv(tmp_path, [command, "--config", write_cfg(tmp_path, text)])
        assert code == 0
        assert len(built) == builds

    @pytest.mark.parametrize("command", ["constants", "spectral", "infsup"])
    def test_no_assembly_no_set(self, tmp_path, monkeypatch, command):
        built, _ = self.record_builds(monkeypatch)
        code, _, _ = run_csv(tmp_path, [command, "--config", write_cfg(tmp_path, SMALL)])
        assert code == 0 and built == []


class TestSystemLifetimes:
    # a command holds one gamma's assembled systems at a time, so the largest
    # of them, not their sum, sets its peak memory

    @staticmethod
    def record_systems(monkeypatch, *names):
        """Weak references to every system the named saddle functions return."""
        made = []
        for name in names:
            original = getattr(saddle, name)

            def recorded(*args, _original=original):
                system = _original(*args)
                made.append(weakref.ref(system))
                return system

            monkeypatch.setattr(saddle, name, recorded)
        return made

    def test_condense_check_frees_each_gamma_before_the_next(self, tmp_path, monkeypatch):
        made = self.record_systems(
            monkeypatch, "assemble_three_field", "assemble_stabilized", "static_condense"
        )
        alive, original = [], saddle.assemble_three_field

        def assembled(pb, d):
            alive.append([ref() is not None for ref in made])
            return original(pb, d)

        monkeypatch.setattr(saddle, "assemble_three_field", assembled)
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 8\n")
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", path])
        assert code == 0 and len(rows) == 3
        # three maximal gammas, then three configured ones
        assert len(alive) == 6
        assert not any(any(flags) for flags in alive)
        assert len(made) == 12

    def test_solve_frees_the_stabilized_system_before_the_three_field_solve(
        self, tmp_path, monkeypatch
    ):
        made = self.record_systems(monkeypatch, "assemble_stabilized")
        alive, original = [], saddle.solve

        def solved(system):
            if len(system.sizes) == 3:
                alive.append([ref() is not None for ref in made])
            return original(system)

        monkeypatch.setattr(saddle, "solve", solved)
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 8\n")
        code, _, rows = run_csv(tmp_path, ["solve", "--config", path])
        assert code == 0
        assert [row["route"] for row in rows] == [
            "stabilized",
            "three_field",
            "condensed_vs_stabilized",
        ]
        assert alive == [[False]]

    @pytest.mark.parametrize("command", ["constants", "spectral", "infsup", "converge"])
    def test_level_loop_frees_each_level_before_the_next(self, tmp_path, monkeypatch, command):
        # a level's problem and spaces are dead, with no collection, by the
        # time the next level's problem is built
        made, alive, original = [], [], models.build_level

        def built(cfg, truth):
            alive.append([ref() is not None for ref in made])
            pb = original(cfg, truth)
            made.append(weakref.ref(pb))
            return pb

        monkeypatch.setattr(models, "build_level", built)
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8, 16\n")
        code, _, _ = run_csv(tmp_path, [command, "--config", path])
        assert code == 0
        assert alive == [[], [False], [False, False]]

    @staticmethod
    def traced_peak(tmp_path, command):
        """(exit code, rows, tracemalloc peak in bytes) of one command on the fine-coarse shape.

        The fine-coarse shape at half size: truth-sized W, P0 pressures on
        half the truth mesh.
        """
        path = write_cfg(
            tmp_path, "truth_elems = 256\ncoarse_elems = 128\npressure = p0\nw = refined:2\n"
        )
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code, _, rows = run_csv(tmp_path, [command, "--config", path])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        return code, rows, peak

    def test_condense_check_traced_peak(self, tmp_path):
        # 5.09 MiB cold (4.90 warm), with W factored only after the maximal
        # solves, whose truth-sized U = W is never factored; 5.71 MiB (5.52
        # warm) when every subspace was factored when built, 5.80 MiB when the
        # problem kept B_T's dense matrix, 8.93 MiB when solve() factored a
        # copy of an assembled matrix, and 9.43 MiB when A_UU was a second
        # Gram and each gamma's systems outlived the next gamma's
        code, rows, peak = self.traced_peak(tmp_path, "condense-check")
        assert code == 0 and len(rows) == 3
        assert peak <= 5.25 * 2**20

    def test_solve_traced_peak(self, tmp_path):
        # 5.27 MiB cold (5.08 warm), with U never factored; 5.39 MiB (5.20
        # warm) when it was factored when built, 5.46 MiB when the problem
        # kept B_T's dense matrix, 8.04 MiB when solve() factored a copy of an
        # assembled matrix
        code, rows, peak = self.traced_peak(tmp_path, "solve")
        assert code == 0 and len(rows) == 3
        assert peak <= 5.33 * 2**20


class TestFactorsOnFirstSolve:
    # a level's subspaces factor their Grams only when a command solves with
    # them: U only in converge's best approximation, W only through S

    @staticmethod
    def record_spaces(monkeypatch):
        """Every discretization models.build_spaces returns, in order."""
        spaces, original = [], models.build_spaces

        def recorded(cfg, pb):
            spaces.append(original(cfg, pb))
            return spaces[-1]

        monkeypatch.setattr(models, "build_spaces", recorded)
        return spaces

    @pytest.mark.parametrize(
        "command, factored",
        [
            ("constants", False),
            ("spectral", False),
            ("infsup", False),
            ("solve", False),
            ("condense-check", False),
            ("converge", True),
        ],
    )
    def test_u_factored_only_by_converge(self, tmp_path, monkeypatch, command, factored):
        spaces = self.record_spaces(monkeypatch)
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8\ncoarse_elems = 8\n")
        code, _, _ = run_csv(tmp_path, [command, "--config", path])
        assert code == 0
        # condense-check's maximal spaces come last, with U = W
        configured = [d for d in spaces if d.U is not d.W]
        assert configured and all(("fact" in vars(d.U)) == factored for d in configured)

    @pytest.mark.parametrize(
        "text",
        [
            "truth_elems = 64\ncoarse_elems = 8\n",
            "truth_elems = 64\ncoarse_elems = 32\npressure = p0\n",
        ],
        ids=["w16", "w-truth"],
    )
    def test_condense_check_factors_w_after_its_maximal_solves(self, tmp_path, monkeypatch, text):
        # the maximal systems (U = W = truth) never solve S; the configured
        # W is factored for the stabilized route's products, after them
        spaces = self.record_spaces(monkeypatch)
        factored, original = [], saddle.solve

        def solved(system):
            factored.append([sub for d in spaces for sub in (d.U, d.W) if "fact" in vars(sub)])
            return original(system)

        monkeypatch.setattr(saddle, "solve", solved)
        code, _, rows = run_csv(tmp_path, ["condense-check", "--config", write_cfg(tmp_path, text)])
        assert code == 0 and len(rows) == 3
        assert factored == [[], [], []]
        assert "fact" in vars(spaces[0].W) and "fact" not in vars(spaces[0].U)


class TestExactStiffnessRange:
    # S = σ·G_W has the (S, G_W) range (σ, σ) by construction: the reports
    # carry σ itself, never a solved pencil's roundoff
    @pytest.mark.parametrize("sigma", ["1", "2", "3", "0.1", "1e-300", "1e300"])
    def test_constants_read_sigma_exactly(self, tmp_path, sigma):
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8, 16\n")
        out = tmp_path / "constants.json"
        argv = ["constants", "--config", path, "--s", f"scaled:{sigma}", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["kappa_star"] == row["K_star"] == float(sigma)
            assert row["C_star"] == 1.0 / float(sigma)

    @pytest.mark.parametrize(
        "command", ["constants", "spectral", "infsup", "solve", "converge", "condense-check"]
    )
    def test_scaled_one_is_gramian(self, tmp_path, command):
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8\n")
        reports = []
        for s in ("gramian", "scaled:1"):
            out = tmp_path / f"{s.replace(':', '_')}.csv"
            assert main([command, "--config", path, "--s", s, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestEdgeExits:
    # 1e-300, 1e170 and 1e300: gamma0 squares nothing, so it scales with S
    # inside the float range, also where σ² overflows; 1.7e308: S overflows to
    # inf; 5e-324: S is subnormal and S⁻¹ overflows to inf
    @pytest.mark.parametrize(
        "scale",
        ["scaled:1e-300", "scaled:1e170", "scaled:1e300", "scaled:1.7e308", "scaled:5e-324"],
    )
    def test_stiffness_scale_overflow_exits_3(self, tmp_path, capsys, scale):
        path = write_cfg(tmp_path, "truth_elems = 64\n")
        if scale in ("scaled:1e-300", "scaled:1e170", "scaled:1e300"):
            code, _, (row,) = run_csv(tmp_path, ["constants", "--config", path, "--s", scale])
            assert code == 0
            _, _, (base,) = run_csv(tmp_path, ["constants", "--config", path])
            expected = float(scale.split(":")[1]) * float(base["gamma0"])
            assert float(row["gamma0"]) == pytest.approx(expected, rel=1e-12, abs=0.0)
            return
        code = main(["constants", "--config", path, "--s", scale])
        assert code == 3
        err = capsys.readouterr().err
        matrix = "stiffness" if scale == "scaled:1.7e308" else "pencil"
        assert err == f"dualstab: numerical failure: {matrix} matrix contains non-finite entries\n"

    def test_stiffness_near_the_float_maximum_exits_0_with_its_exact_range(
        self, tmp_path, capsys
    ):
        # W on 32 elements has a largest Gram entry of 64, so S = σ·G_W is
        # finite at 1.5e308 although S + Sᵀ is not; S is factored by W's own
        # factor, as √σ·L_W, so nothing sums it
        sigma = 2.34375e306
        path = write_cfg(tmp_path, f"truth_elems = 64\ns = scaled:{sigma!r}\n")
        out = tmp_path / "constants.json"
        assert main(["constants", "--config", path, "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        (row,) = json.loads(out.read_text())["rows"]
        assert row["kappa_star"] == row["K_star"] == sigma
        assert row["C_star"] == 1.0 / sigma

    def test_three_field_overflow_exits_3(self, tmp_path, capsys):
        # (1/γ)S overflows when solve writes it, before the second gamma
        path = write_cfg(tmp_path, SMALL + "gammas = 1e-310, 0.1\n")
        assert main(["condense-check", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dualstab: numerical failure: overflow encountered in divide\n"

    def test_three_field_residual_at_a_huge_stiffness_scale(self, tmp_path):
        # at gamma = auto, γ grows with σ, so (1/γ)S is O(1) although S
        # squared overflows: the residual reads the quotients, not S
        path = write_cfg(tmp_path, SMALL + "s = scaled:1e300\ngamma = auto\n")
        code, _, rows = run_csv(tmp_path, ["solve", "--config", path])
        assert code == 0
        assert [r["status"] for r in rows] == ["ok", "ok", "pass"]
        assert float(rows[1]["residual"]) < 1e-15

    @pytest.mark.parametrize(
        "truth, coarse, reaction",
        [
            pytest.param(16, 4, "1e300", id="1e300"),
            pytest.param(16, 4, "1.7e308", id="1.7e308"),
            pytest.param(64, 16, "1e300", id="truth-64-1e300"),
        ],
    )
    @pytest.mark.parametrize(
        "command, extra, code",
        [
            pytest.param("constants", [], 0, id="constants"),
            pytest.param("converge", [], 2, id="converge"),
            pytest.param("solve", ["--gamma", "auto"], 0, id="solve-auto"),
        ],
    )
    def test_huge_reaction_overflows_gamma0_exits_3(
        self, tmp_path, capsys, command, extra, code, truth, coarse, reaction
    ):
        # norm_A = 1 + reaction·μ_max(M, G) is finite, and so is gamma0, which
        # squares nothing: constants reports it with beta_gamma = -inf, converge
        # refuses gamma 0.1 above it, and the auto gamma0 / 2 leaves a singular system
        text = f"truth_elems = {truth}\ncoarse_elems = {coarse}\nreaction = {reaction}\n"
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path] + extra) == code
        captured = capsys.readouterr()
        if command == "converge":
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("dualstab: config error: gamma 0.1 is not below gamma0")
            return
        assert captured.err == ""
        header, *lines = captured.out.splitlines()
        (row,) = [dict(zip(header.split(","), line.split(","))) for line in lines]
        if command == "constants":
            assert 0.0 < float(row["gamma0"]) < 1e-300
            assert row["beta_gamma"] == "-inf"
        else:
            assert row["route"] == "stabilized" and row["status"] == "singular"

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param(
                "solve",
                "truth_elems = 32\ncoarse_elems = 32\npressure = p0\nw = truth\n"
                "s = scaled:1.19e283\ngamma = 1.5e-104\n",
                id="solve-three-field-divide",
            ),
            pytest.param(
                "condense-check",
                "truth_elems = 2\ncoarse_elems = 2\nw = refined:1\n"
                "s = scaled:1.3e-320\ngammas = 2.5e-216\n",
                id="condense-check-discrepancy",
            ),
            pytest.param(
                "solve",
                "truth_elems = 32\ncoarse_elems = 2\npressure = p0\nw = refined:1\n"
                "s = scaled:8.8e-186\ngamma = 0.81\nreaction = 4.05e167\n",
                id="solve-residual",
            ),
            pytest.param(
                "solve",
                "truth_elems = 2\ncoarse_elems = 2\npressure = p0\nw = refined:1\n"
                "s = lumped\ngamma = 9.9\nreaction = 1.11e308\n",
                id="solve-stabilized-assembly",
            ),
        ],
    )
    def test_overflow_or_invalid_value_exits_3(self, tmp_path, capsys, command, text):
        # a numpy overflow or invalid value mid-command is one numerical
        # failure, not a warning or a traceback
        code = main([command, "--config", write_cfg(tmp_path, text)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("dualstab: numerical failure:")

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_stiffness_bound_measured_at_extreme_scales(self, tmp_path, scale):
        # S G_W⁻¹ S would under- or overflow without a power-of-two rescaling
        path = write_cfg(tmp_path, "truth_elems = 64\n")
        code, _, rows = run_csv(tmp_path, ["spectral", "--config", path, "--s", f"scaled:{scale}"])
        assert code == 0
        (row,) = [r for r in rows if r["check"] == "stiffness_bound"]
        assert float(row["value"]) == pytest.approx(float(row["upper"]), rel=1e-9, abs=0.0)
        assert float(row["upper"]) == pytest.approx(scale, rel=1e-9, abs=0.0)

    def test_c_star_of_same_w_is_exactly_zero(self, tmp_path):
        # with W = U some deflated pressures have B q = 0 on W: c_star is zero
        path = write_cfg(
            tmp_path, "truth_elems = 1024\ncoarse_elems = 16\nw = same\ngamma = auto\n"
        )
        code, _, rows = run_csv(tmp_path, ["constants", "--config", path])
        assert code == 0
        assert rows[0]["c_star"] == "0"
        assert rows[0]["alpha_hat"] == "0" and rows[0]["beta_hat"] == "0"
        assert rows[0]["gamma0"] == "0" and rows[0]["gamma"] == "0"

    @pytest.mark.parametrize(
        "text, why",
        [
            pytest.param(
                "truth_elems = 256\ncoarse_elems = 16\nw = same\n",
                "beta_hat = 0: W does not control the pressures",
                id="same-w",
            ),
            pytest.param(
                "truth_elems = 16\ncoarse_elems = 4\ns = scaled:1e-300\nreaction = 1e300\n",
                "gamma0 underflows to 0",
                id="underflow",
            ),
        ],
    )
    def test_auto_gamma_at_zero_gamma0_is_a_config_error(self, tmp_path, capsys, text, why):
        # gamma0 / 2 = 0 would solve the unstabilized, singular system: solve
        # reported it as its singular row (exit 0) and converge exited 3 with
        # "reciprocal condition estimate 7.323e-20"; constants only measures
        path = write_cfg(tmp_path, text + "gamma = auto\n")
        for command in ("solve", "converge"):
            assert main([command, "--config", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"dualstab: config error: gamma: auto needs gamma0 > 0, but {why}; "
                "no gamma is predicted to stabilize the pair\n"
            )
        code, _, rows = run_csv(tmp_path, ["constants", "--config", path])
        assert code == 0
        assert rows[0]["gamma0"] == "0" and rows[0]["gamma"] == "0"

    def test_infsup_of_same_w_is_exactly_zero(self, tmp_path):
        # beta_hat and the relaxed constant share U = W: both are 0, not
        # roundoff of either sign that fails the relaxed ≥ beta_hat check
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 8\nw = same\n")
        code, _, rows = run_csv(tmp_path, ["infsup", "--config", path])
        assert code == 0
        assert rows[0]["beta_hat"] == "0" and rows[0]["relaxed"] == "0"
        assert rows[0]["status"] == "pass"

    def test_json_report_is_strict_json(self, tmp_path):
        # beta_gamma is -inf when c_star = 0; strict JSON has no such literal
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = write_cfg(tmp_path, "truth_elems = 64\n")
        out = tmp_path / "constants.json"
        argv = ["constants", "--config", path, "--w", "same", "--format", "json"]
        code = main(argv + ["--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["rows"][0]["beta_gamma"] == "-inf"
        assert payload["rows"][0]["c_star"] == 0.0


class TestCheckTable:
    @pytest.mark.parametrize("command", ["constants", "spectral", "infsup", "converge"])
    def test_one_deflation_per_level(self, tmp_path, monkeypatch, command):
        from dualstab import dualprod

        calls = []
        original = dualprod.pressure_deflation

        def counted(b_t, q_gram):
            calls.append(b_t.shape)
            return original(b_t, q_gram)

        monkeypatch.setattr(dualprod, "pressure_deflation", counted)
        # the counter sees every deflation only if no other module bound the name
        assert not [m for m in (saddle, models, cli) if hasattr(m, "pressure_deflation")]
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8\n")
        code, _, _ = run_csv(tmp_path, [command, "--config", path])
        assert code == 0
        # P1 pressures on 4 and 8 elements against 63 truth hats, once each
        assert sorted(calls) == [(63, 5), (63, 9)]

    def test_converge_projects_each_exact_pressure_once(self, tmp_path, monkeypatch):
        # the exact pressure of a level is projected once, for both its error
        # and its best approximation
        levels = []
        original = saddle.project_pressure

        def counted(pb, y_raw):
            levels.append(pb.pressure_dim)
            return original(pb, y_raw)

        monkeypatch.setattr(saddle, "project_pressure", counted)
        path = write_cfg(tmp_path, "truth_elems = 64\nlevels = 4, 8\n")
        code, _, rows = run_csv(tmp_path, ["converge", "--config", path])
        assert code == 0 and len(rows) == 2
        # P1 pressures on 4 and 8 elements
        assert levels == [5, 9]

    def test_solve_projects_its_exact_pressure_once(self, tmp_path, monkeypatch):
        # the exact pressure of solve is projected once, for the errors of
        # both assembly routes
        levels = []
        original = saddle.project_pressure

        def counted(pb, y_raw):
            levels.append(pb.pressure_dim)
            return original(pb, y_raw)

        monkeypatch.setattr(saddle, "project_pressure", counted)
        path = write_cfg(tmp_path, "truth_elems = 64\ncoarse_elems = 8\ngamma = 0.1\n")
        code, _, rows = run_csv(tmp_path, ["solve", "--config", path])
        assert code == 0
        assert [r["route"] for r in rows] == ["stabilized", "three_field", "condensed_vs_stabilized"]
        assert levels == [9]

    def test_failing_row_sets_verdict(self, tmp_path, monkeypatch):
        from dualstab import dualprod

        def wrong_sandwich(rep, pressures, rng, samples):
            rows = original(rep, pressures, rng, samples)
            return rows[:-1] + [dualprod.Check("pairing_max", 2.0, None, 1.0, dualprod.CHAIN_RTOL)]

        original = dualprod._sandwich_rows
        monkeypatch.setattr(dualprod, "_sandwich_rows", wrong_sandwich)
        path = write_cfg(tmp_path, SMALL)
        code, _, rows = run_csv(tmp_path, ["spectral", "--config", path])
        assert code == 1
        assert [r["status"] for r in rows] == ["pass"] * 7 + ["fail"]


def no_assembly(*args, **kwargs):
    raise AssertionError("a config above the dense limit is rejected before assembly")


class TestDenseLimit:
    # above DENSE_TRUTH_LIMIT, a config that needs an n × n truth object is a
    # config error that names truth_elems and the field forcing the dense path
    @pytest.mark.parametrize(
        "command, extra, path",
        [
            pytest.param("constants", "w = truth\n", "w = truth", id="w-truth"),
            # W contains U's mesh, so these W are the whole truth mesh too
            pytest.param(
                "infsup",
                f"coarse_elems = {models.DENSE_TRUTH_LIMIT}\nw = refined:2\n",
                "w = refined:2",
                id="w-refined-reaches-truth",
            ),
            pytest.param(
                "infsup",
                f"coarse_elems = {2 * models.DENSE_TRUTH_LIMIT}\nw = same\n",
                "w = same",
                id="w-same-at-truth",
            ),
            pytest.param(
                "solve",
                f"coarse_elems = {2 * models.DENSE_TRUTH_LIMIT}\nw = refined:1\n",
                "w = refined:1",
                id="w-refined-1-at-truth",
            ),
            pytest.param("condense-check", "", "condense-check", id="condense-check"),
        ],
    )
    def test_dense_path_above_limit_exits_2(self, tmp_path, monkeypatch, capsys, command, extra, path):
        monkeypatch.setattr(models, "truth_record", no_assembly)
        monkeypatch.setattr(models, "build_level", no_assembly)
        cfg = write_cfg(tmp_path, f"truth_elems = {2 * models.DENSE_TRUTH_LIMIT}\n{extra}")
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("dualstab: config error: truth_elems")
        assert path in line

    def test_truth_band_numpy_cannot_size_exits_2(self, tmp_path, monkeypatch, capsys):
        # the band of 2 (truth_elems − 1) floats is refused before any assembly
        monkeypatch.setattr(models, "truth_record", no_assembly)
        monkeypatch.setattr(models, "build_level", no_assembly)
        cfg = write_cfg(tmp_path, f"truth_elems = {2**62}\n")
        assert main(["constants", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"dualstab: config error: truth_elems = {2**62}")

    def test_banded_path_has_no_limit(self):
        n = 8 * models.DENSE_TRUTH_LIMIT
        cfg = build_run_config({"truth_elems": str(n), "w": "refined:2"}, {})
        assert cfg.truth_elems == n
        # at the limit the dense paths stay open
        models.ModelConfig(truth_elems=models.DENSE_TRUTH_LIMIT, w_kind="truth", reaction=1.0)
        # the truth constants are closed-form: a reaction has no limit
        cfg = build_run_config({"truth_elems": str(n), "reaction": "2.5"}, {})
        assert cfg.reaction == 2.5
        with pytest.raises(ValueError, match="truth_elems"):
            models.ModelConfig(truth_elems=2 * models.DENSE_TRUTH_LIMIT, w_kind="truth")
        # so do the other spellings of a W on the whole truth mesh
        coarse = models.DENSE_TRUTH_LIMIT // 4
        models.ModelConfig(truth_elems=models.DENSE_TRUTH_LIMIT, coarse_elems=coarse, w_kind="refined:4")
        with pytest.raises(ValueError, match="w = refined:4"):
            models.ModelConfig(
                truth_elems=2 * models.DENSE_TRUTH_LIMIT, coarse_elems=2 * coarse, w_kind="refined:4"
            )

    def test_out_of_memory_exits_3_in_one_line(self, tmp_path, monkeypatch, capsys):
        # numpy refuses an 8 PiB array without allocating it
        monkeypatch.setitem(cli._COMMANDS, "constants", (lambda cfg: np.empty(2**50), ""))
        assert main(["constants", "--config", write_cfg(tmp_path, SMALL)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("dualstab: numerical failure: out of memory")


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))


@pytest.mark.parametrize(
    "command, reaction",
    [pytest.param(c, 0.0, id=c) for c in ("constants", "spectral", "infsup", "solve", "converge")]
    + [pytest.param(c, 2.5, id=f"{c}-reaction") for c in ("constants", "converge")],
)
def test_truth_16384_runs_in_1gb_of_address_space(tmp_path, command, reaction):
    # the banded truth builds no n × n matrix: 16383² doubles alone are 2.1 GB;
    # at reaction > 0 the truth constants are closed-form
    path = write_cfg(tmp_path, f"truth_elems = 16384\nw = refined:2\nreaction = {reaction}\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dualstab.cli", command, "--config", path],
        env=env,
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# where numpy's BLAS is one that algebra cannot put on one thread (a BLAS
# shared with scipy, or MKL), 1 and 2 threads were measured to agree to
# 1.3e-10 relative, when numpy's OpenBLAS still ran at the caller's count
THREAD_RTOL = 1.3e-10

# cells that are roundoff by construction, with the CLI threshold each stays under
ROUNDOFF_CELLS = {
    "residual": saddle.RESIDUAL_RTOL,
    "discrepancy": cli.CONDENSE_TOL,
    "w_ratio": cli.W_VANISH_TOL,
}


def _thread_disagreements(row_1, row_2):
    """Cells of row_2 (two BLAS threads) that disagree with row_1 (one thread)."""
    bad = []
    for key, a in row_1.items():
        b = row_2[key]
        if key in ROUNDOFF_CELLS:
            ok = (a is None and b is None) or (a <= ROUNDOFF_CELLS[key] and b <= ROUNDOFF_CELLS[key])
        elif key == "best_p":
            # the interpolated exact pressure lies in the pressure space, so
            # best_p is roundoff; the report reads it only in best_u + best_p
            ok = abs(a - b) <= THREAD_RTOL * row_1["best_u"]
        elif isinstance(a, float):
            ok = abs(a - b) <= THREAD_RTOL * abs(a)
        else:
            ok = a == b
        if not ok:
            bad.append((key, a, b))
    return bad


THREAD_COMMANDS = ("spectral", "solve", "converge")

# one child runs the three commands, each through the CLI's main: the
# interpreter's start-up would otherwise be most of this test's time
_THREAD_CHILD = """
import sys
from dualstab.cli import main
config, folder = sys.argv[1:]
for command in {commands!r}:
    out = f"{{folder}}/{{command}}.json"
    code = main([command, "--config", config, "--format", "json", "--out", out])
    if code:
        sys.exit(f"{{command}} exited {{code}}")
""".format(commands=THREAD_COMMANDS)


def test_reports_deterministic_per_blas_thread_count(tmp_path):
    # large enough that an OpenBLAS at 2 threads splits work: p_err moved by
    # about 4e-11 between thread counts here while numpy's copy ran at the
    # caller's count; every bundled OpenBLAS runs on one thread now, and the
    # tolerance stays for installs whose numpy BLAS keeps the caller's count
    path = write_cfg(
        tmp_path,
        "truth_elems = 512\ncoarse_elems = 128\npressure = p0\nw = refined:2\nlevels = 128\n",
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        texts = []
        for run in ("a", "b"):
            folder = tmp_path / f"{threads}{run}"
            folder.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", _THREAD_CHILD, path, str(folder)],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            texts.append({c: (folder / f"{c}.json").read_bytes() for c in THREAD_COMMANDS})
        assert texts[0] == texts[1], f"reports differ between runs at {threads} threads"
        for command, data in texts[0].items():
            reports[command, threads] = json.loads(data)
    for command in THREAD_COMMANDS:
        rows_1, rows_2 = reports[command, "1"]["rows"], reports[command, "2"]["rows"]
        assert [list(r) for r in rows_1] == [list(r) for r in rows_2]
        for i, (row_1, row_2) in enumerate(zip(rows_1, rows_2)):
            assert not _thread_disagreements(row_1, row_2), (command, i)


# the benchmark's fine-coarse and levels-1024 configs at seed 1
BYTES_CONFIGS = {
    "fine-coarse": "truth_elems = 512\ncoarse_elems = 256\npressure = p0\nw = refined:2\n"
    "gamma = 0.1\ngammas = 0.01, 0.1, 1.0\nseed = 1\n",
    "levels": "truth_elems = 1024\ncoarse_elems = 16\npressure = p1\nw = refined:2\n"
    "levels = 16, 32, 64, 128\nseed = 1\n",
}
BYTES_RUNS = (
    ("fine-coarse", "solve"),
    ("fine-coarse", "condense-check"),
    ("levels", "constants"),
    ("levels", "spectral"),
    ("levels", "infsup"),
    ("levels", "converge"),
)

# runs BYTES_RUNS through the CLI's main, with numpy imported first when
# argv[2] says so: bench/traced_cli.py imports it first too
_BYTES_CHILD = """
import sys
folder, order, *runs = sys.argv[1:]
if order == "numpy-first":
    import numpy
from dualstab.cli import main
for config, command in zip(runs[::2], runs[1::2]):
    argv = [command, "--config", config, "--format", "json", "--out", f"{folder}/{command}.json"]
    if main(argv):
        sys.exit(f"{command} exited nonzero")
"""


def test_reports_byte_identical_across_blas_thread_counts(tmp_path):
    # every BLAS runs on one thread, whatever the thread variable and whichever
    # of numpy and dualstab is imported first (in this process numpy was): a
    # numpy OpenBLAS at 2 threads split these products and moved their last digits
    configs = {n: write_cfg(tmp_path, text, f"{n}.cfg") for n, text in BYTES_CONFIGS.items()}
    runs = [arg for name, command in BYTES_RUNS for arg in (configs[name], command)]
    src = str(Path(cli.__file__).resolve().parents[1])
    children = {}
    for threads, order in (("1", "dualstab-first"), ("2", "dualstab-first"), ("2", "numpy-first")):
        folder = tmp_path / f"{threads}-{order}"
        folder.mkdir()
        env = dict(os.environ, PYTHONPATH=src)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        argv = [sys.executable, "-c", _BYTES_CHILD, str(folder), order, *runs]
        children[folder] = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE)
    here = tmp_path / "in-process"
    here.mkdir()
    for name, command in BYTES_RUNS:
        out = str(here / f"{command}.json")
        assert main([command, "--config", configs[name], "--format", "json", "--out", out]) == 0
    expected = {command: (here / f"{command}.json").read_bytes() for _, command in BYTES_RUNS}
    for folder, child in children.items():
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err[-2000:]
        got = {command: (folder / f"{command}.json").read_bytes() for _, command in BYTES_RUNS}
        assert got == expected, folder.name
