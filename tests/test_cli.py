import json

import numpy as np
import pytest

import dualstab.cli as cli
from dualstab import algebra, dualprod, models, saddle
from dualstab.cli import (
    ConfigError,
    RunConfig,
    build_run_config,
    main,
    parse_config_file,
)
from dualstab.dualprod import BoundViolated
from dualstab.report import Report


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

    def test_default_sweep_stops_at_nesting_limit(self):
        # w = refined:2 cannot nest once the coarse mesh reaches truth/2
        cfg = RunConfig(truth_elems=16, coarse_elems=4)
        assert cli._default_sweep(cfg) == (4, 8)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["constants", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_override_value(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL)
        code = main(["constants", "--config", path, "--truth-elems", "-5"])
        assert code == 2
        assert "truth_elems" in capsys.readouterr().err

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

    def test_non_finite_scale_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SMALL + "s = scaled:nan\n")
        assert main(["constants", "--config", path]) == 2
        assert "dualstab: config error: s:" in capsys.readouterr().err

    def test_converge_gamma_above_gamma0_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "truth_elems = 64\n")
        code = main(["converge", "--config", path, "--gamma", "50"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("dualstab: config error: gamma 50 ")
        assert "gamma0" in err and "Traceback" not in err

    def test_converge_discrete_exact_solution_exits_3(self, tmp_path, capsys):
        # U = W = truth: the exact solution is discrete, the ratio undefined
        path = write_cfg(tmp_path, "truth_elems = 64\n")
        code = main(["converge", "--config", path, "--coarse-elems", "64", "--w", "truth"])
        assert code == 3
        assert "dualstab: numerical failure:" in capsys.readouterr().err

    def test_bound_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise BoundViolated("spectral bound breached", value=0.5)

        monkeypatch.setitem(cli._COMMANDS, "constants", boom)
        code = main(["constants", "--config", write_cfg(tmp_path, SMALL)])
        assert code == 1
        assert "check failed" in capsys.readouterr().err

    def test_failing_verdict_exits_1_but_writes_report(self, tmp_path, monkeypatch):
        def fake(cfg):
            report = Report("constants", {}, cfg.seed, ["a"])
            report.add_row(a=1)
            report.verdict = "fail"
            return report

        monkeypatch.setitem(cli._COMMANDS, "constants", fake)
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


class TestCommands:
    def test_constants_table(self, tmp_path):
        path = write_cfg(tmp_path, SMALL)
        code, header, rows = run_csv(tmp_path, ["constants", "--config", path])
        assert code == 0
        assert header[:2] == ["level", "coarse_elems"]
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
    # alpha and norm_A enter gamma0 and beta_gamma only: a command solves the
    # truth pencil (M, G) once if it prints either and reaction > 0, and never
    # otherwise; at reaction 0 both are exactly 1 without a solve
    @pytest.mark.parametrize(
        "command, extra, n_rows, reaction, expected",
        [
            pytest.param("constants", [], 4, 2.5, 1, id="constants"),
            pytest.param("converge", [], 4, 2.5, 1, id="converge"),
            pytest.param("spectral", [], 4 * 8, 2.5, 0, id="spectral"),
            pytest.param("infsup", [], 4, 2.5, 0, id="infsup"),
            pytest.param("solve", [], 3, 2.5, 0, id="solve"),
            pytest.param("solve", ["--gamma", "auto"], 3, 2.5, 1, id="solve-auto"),
            pytest.param("constants", [], 4, 0.0, 0, id="constants-reaction0"),
            pytest.param("converge", [], 4, 0.0, 0, id="converge-reaction0"),
            pytest.param("spectral", [], 4 * 8, 0.0, 0, id="spectral-reaction0"),
            pytest.param("infsup", [], 4, 0.0, 0, id="infsup-reaction0"),
            pytest.param("solve", [], 3, 0.0, 0, id="solve-reaction0"),
            pytest.param("solve", ["--gamma", "auto"], 3, 0.0, 0, id="solve-auto-reaction0"),
        ],
    )
    def test_truth_pencil_measured_once_per_command(
        self, tmp_path, monkeypatch, command, extra, n_rows, reaction, expected
    ):
        # counted by the truth factor, not by shape: at level 32, refined:2
        # gives a W of the truth dimension 63
        records, calls = [], []
        original_record = models.truth_record

        def recorded(cfg):
            records.append(original_record(cfg))
            return records[-1]

        def counting(original):
            def counted(a, b_fact):
                if any(b_fact is r.space.fact for r in records):
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
        assert calls == [(63, 63)] * expected

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


class TestEdgeExits:
    # 1e-300: C_star = 1e300 squares past the float range in gamma0;
    # 1e300: C_star = 1e-300 squares to 0 there; 1.7e308: S overflows to inf;
    # 5e-324: S is subnormal and S⁻¹ overflows to inf
    @pytest.mark.parametrize(
        "scale", ["scaled:1e-300", "scaled:1e300", "scaled:1.7e308", "scaled:5e-324"]
    )
    def test_stiffness_scale_overflow_exits_3(self, tmp_path, capsys, scale):
        path = write_cfg(tmp_path, "truth_elems = 64\n")
        code = main(["constants", "--config", path, "--s", scale])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("dualstab: numerical failure:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("reaction", ["1e300", "1.7e308"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            pytest.param("constants", [], id="constants"),
            pytest.param("converge", [], id="converge"),
            pytest.param("solve", ["--gamma", "auto"], id="solve-auto"),
        ],
    )
    def test_huge_reaction_overflows_gamma0_exits_3(
        self, tmp_path, capsys, command, extra, reaction
    ):
        # norm_A = 1 + reaction·μ_max(M, G) is finite, but norm_A**2 in gamma0
        # leaves the float range: one message, no numpy warning
        path = write_cfg(tmp_path, f"truth_elems = 16\ncoarse_elems = 4\nreaction = {reaction}\n")
        code = main([command, "--config", path] + extra)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("dualstab: numerical failure:")

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

    def test_failing_row_sets_verdict(self, tmp_path, monkeypatch):
        from dualstab import dualprod

        def wrong_sandwich(rep, dual_t, q_eff, rng, samples):
            rows = original(rep, dual_t, q_eff, rng, samples)
            return rows[:-1] + [dualprod.Check("pairing_max", 2.0, None, 1.0, dualprod.CHAIN_RTOL)]

        original = dualprod._sandwich_rows
        monkeypatch.setattr(dualprod, "_sandwich_rows", wrong_sandwich)
        path = write_cfg(tmp_path, SMALL)
        code, _, rows = run_csv(tmp_path, ["spectral", "--config", path])
        assert code == 1
        assert [r["status"] for r in rows] == ["pass"] * 7 + ["fail"]
