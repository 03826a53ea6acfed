"""Command-line driver for measured constants, spectral checks, and sweeps.

Config files are flat ``key = value`` text ('#' starts a comment); command
line flags override file values.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 config error, 3 numerical failure (a kernel
failure, or an overflow or invalid value anywhere in a command).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import models, saddle
from .algebra import NonFinite, NotSpd
from .dualprod import BoundViolated, DegeneratePencil, measure_equivalence, spectral_checks
from .models import ModelConfig, NestingViolated
from .report import Report, write_report
from .saddle import DegenerateDenominator, GammaTooLarge, GammaZero, SingularSystem

# pass/fail thresholds of the sweep verdicts
RATE_FLOOR = 0.9
QRATIO_SPREAD = 2.0
CONDENSE_TOL = 1e-12
W_VANISH_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated options of one command invocation."""

    truth_elems: int = 256
    coarse_elems: int = 16
    pressure: str = "p1"
    w: str = "refined:2"
    s: str = "gramian"
    gamma: object = 0.1  # nonnegative float, or the string "auto"
    reaction: float = 0.0
    levels: tuple = ()
    gammas: tuple = (0.01, 0.1, 1.0)
    seed: int = 0
    format: str = "csv"
    out: str = None


def parse_config_file(path):
    """Read a flat key = value file into a dict of raw strings."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc.strerror or exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _PARSERS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    return values


def _parse_pos_int(field, text):
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{field}: expected an integer, got {text!r}") from None
    if value <= 0:
        raise ConfigError(f"{field}: must be positive, got {value}")
    return value


def _parse_nonneg_float(field, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{field}: expected a real number, got {text!r}") from None
    if not np.isfinite(value) or value < 0.0:
        raise ConfigError(f"{field}: must be finite and nonnegative, got {text!r}")
    return value


def _parse_gamma(text):
    if text == "auto":
        return "auto"
    return _parse_nonneg_float("gamma", text)


def _parse_seed(text):
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"seed: expected an integer, got {text!r}") from None
    if value < 0:
        raise ConfigError(f"seed: must be nonnegative, got {value}")
    return value


def _parse_list(field, text, parse):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{field}: expected a comma-separated list, got {text!r}")
    return tuple(parse(field, s) for s in items)


def _parse_float_list(field, text):
    values = _parse_list(field, text, _parse_nonneg_float)
    if any(v == 0.0 for v in values):
        raise ConfigError(f"{field}: entries must be positive")
    return values


_PARSERS = {
    "truth_elems": lambda s: _parse_pos_int("truth_elems", s),
    "coarse_elems": lambda s: _parse_pos_int("coarse_elems", s),
    "pressure": lambda s: s,
    "w": lambda s: s,
    "s": lambda s: s,
    "gamma": _parse_gamma,
    "reaction": lambda s: _parse_nonneg_float("reaction", s),
    "levels": lambda s: _parse_list("levels", s, _parse_pos_int),
    "gammas": lambda s: _parse_float_list("gammas", s),
    "seed": _parse_seed,
    "format": lambda s: s,
    "out": lambda s: s,
}


def build_run_config(file_values, overrides):
    """Merge config file values and command-line overrides into a RunConfig."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    fields = {}
    for key, raw in merged.items():
        fields[key] = _PARSERS[key](raw) if isinstance(raw, str) else raw
    cfg = RunConfig(**fields)
    if cfg.pressure not in ("p1", "p0"):
        raise ConfigError(f"pressure: must be 'p1' or 'p0', got {cfg.pressure!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {cfg.format!r}")
    # the model config validates mesh sizes, w, s, and reaction up front
    _model_config(cfg, cfg.coarse_elems)
    for level in cfg.levels:
        _model_config(cfg, level)
    return cfg


def _model_config(cfg, coarse):
    try:
        mc = ModelConfig(
            truth_elems=cfg.truth_elems,
            coarse_elems=coarse,
            pressure_kind=cfg.pressure,
            w_kind=cfg.w,
            s_choice=cfg.s,
            gamma=0.0,
            reaction=cfg.reaction,
        )
        if mc.s_choice not in ("gramian", "lumped"):
            # parse eagerly so a bad scale string fails as a config error
            if not mc.s_choice.startswith("scaled:"):
                raise ValueError(f"s: unknown stiffness choice {mc.s_choice!r}")
            scale = float(mc.s_choice.split(":", 1)[1])
            if not np.isfinite(scale) or scale <= 0.0:
                raise ValueError("s: stiffness scaling must be finite and positive")
        return mc
    except (ValueError, NestingViolated) as exc:
        raise ConfigError(str(exc)) from None


def _truth(cfg):
    """The truth record every level of one command shares."""
    return models.truth_record(_model_config(cfg, cfg.coarse_elems))


def _level(cfg, truth, coarse):
    """Model config, problem and spaces (at gamma 0) of one mesh level on the truth record."""
    mc = _model_config(cfg, coarse)
    pb = models.build_level(mc, truth)
    return mc, pb, models.build_spaces(mc, pb)


def _gamma(cfg, rep):
    """The configured gamma; 'auto' is gamma0 / 2 of the level's constants."""
    return rep.gamma0 / 2.0 if cfg.gamma == "auto" else float(cfg.gamma)


def _levels(cfg):
    return cfg.levels if cfg.levels else (cfg.coarse_elems,)


def _config_echo(cfg):
    echo = {
        "truth_elems": cfg.truth_elems,
        "coarse_elems": cfg.coarse_elems,
        "pressure": cfg.pressure,
        "w": cfg.w,
        "s": cfg.s,
        "gamma": cfg.gamma,
        "reaction": cfg.reaction,
    }
    if cfg.levels:
        echo["levels"] = ",".join(str(n) for n in cfg.levels)
    return echo


# ---------------------------------------------------------------------------
# commands


def cmd_constants(cfg):
    """One row of measured constants per mesh level."""
    columns = [
        "level",
        "coarse_elems",
        "alpha",
        "norm_A",
        "norm_B",
        "beta",
        "kappa_star",
        "K_star",
        "c_star",
        "C_star",
        "alpha_hat",
        "beta_hat",
        "gamma0",
        "gamma_tilde0",
        "gamma",
        "beta_gamma",
    ]
    report = Report("constants", _config_echo(cfg), cfg.seed, columns)
    truth = _truth(cfg)
    for level, coarse in enumerate(_levels(cfg)):
        _, pb, d = _level(cfg, truth, coarse)
        rep = saddle.constants(pb, d, truth=truth)
        gamma = _gamma(cfg, rep)
        report.add_row(
            level=level,
            coarse_elems=coarse,
            alpha=rep.alpha,
            norm_A=rep.norm_A,
            norm_B=rep.norm_B,
            beta=rep.beta,
            kappa_star=rep.kappa_star,
            K_star=rep.K_star,
            c_star=rep.c_star,
            C_star=rep.C_star,
            alpha_hat=rep.alpha_hat,
            beta_hat=rep.beta_hat,
            gamma0=rep.gamma0,
            gamma_tilde0=rep.gamma_tilde0,
            gamma=gamma,
            beta_gamma=rep.beta_gamma(gamma),
        )
    return report


def cmd_spectral(cfg):
    """Per-level verification rows for every spectral bound."""
    columns = ["level", "coarse_elems", "check", "value", "lower", "upper", "status"]
    report = Report("spectral", _config_echo(cfg), cfg.seed, columns)
    truth = _truth(cfg)
    for level, coarse in enumerate(_levels(cfg)):
        _, _, d = _level(cfg, truth, coarse)
        rng = np.random.default_rng([cfg.seed, level, 1])
        _, rows = spectral_checks(d.dp, d.pressures, rng)
        for row in rows:
            # the row's fields are columns; its tol is not rendered
            report.add_row(level=level, coarse_elems=coarse, status=row.status, **vars(row))
    if any(r["status"] == "fail" for r in report.rows):
        report.verdict = "fail"
    return report


def cmd_infsup(cfg):
    """Mixed-form inf-sup constants of W and the joint space U + W per level."""
    columns = [
        "level",
        "coarse_elems",
        "u_dim",
        "w_dim",
        "p_dim",
        "beta",
        "beta_hat",
        "relaxed",
        "status",
    ]
    report = Report("infsup", _config_echo(cfg), cfg.seed, columns)
    truth = _truth(cfg)
    for level, coarse in enumerate(_levels(cfg)):
        _, pb, d = _level(cfg, truth, coarse)
        # the inf-sup constants read the pressure pencils only, not alpha or norm_A
        er = measure_equivalence(d.dp, d.pressures)
        status = "pass"
        try:
            relaxed = saddle.verify_relaxed_infsup(pb, d)
        except BoundViolated as exc:
            relaxed = exc.value
            status = "fail"
            report.verdict = "fail"
        report.add_row(
            level=level,
            coarse_elems=coarse,
            u_dim=d.U.dim,
            w_dim=d.W.dim,
            p_dim=d.p_dim,
            beta=er.beta,
            beta_hat=er.beta_hat,
            relaxed=relaxed,
            status=status,
        )
    return report


def condensation_discrepancy(stabilized, condensed):
    """Largest entrywise difference of the two routes, relative to the direct one."""
    scale = max(np.abs(stabilized.matrix).max(), np.abs(stabilized.rhs).max(), 1.0)
    dm = np.abs(condensed.matrix - stabilized.matrix).max()
    dr = np.abs(condensed.rhs - stabilized.rhs).max()
    return float(max(dm, dr) / scale)


def cmd_solve(cfg):
    """Solve one level through both assembly routes and compare them."""
    columns = ["route", "status", "residual", "u_err", "p_err", "w_norm", "discrepancy"]
    report = Report("solve", _config_echo(cfg), cfg.seed, columns)
    truth = _truth(cfg)
    mc, pb, d = _level(cfg, truth, cfg.coarse_elems)
    # only gamma = auto reads the level's constants
    rep = saddle.constants(pb, d, truth=truth) if cfg.gamma == "auto" else None
    d = d.with_gamma(_gamma(cfg, rep))
    exact = models.exact_coefficients(mc, models.default_solution())
    stab = saddle.assemble_stabilized(pb, d)
    try:
        x, y = saddle.solve(stab)
    except SingularSystem:
        report.add_row(route="stabilized", status="singular")
        return report
    u_err, p_err = models.error_norms(pb, d, (x, y), exact)
    report.add_row(
        route="stabilized",
        status="ok",
        residual=saddle.relative_residual(stab, np.concatenate([x, y])),
        u_err=u_err,
        p_err=p_err,
    )
    if d.gamma > 0.0:
        tf = saddle.assemble_three_field(pb, d)
        x3, z3, y3 = saddle.solve(tf)
        u_err3, p_err3 = models.error_norms(pb, d, (x3, y3), exact)
        report.add_row(
            route="three_field",
            status="ok",
            residual=saddle.relative_residual(tf, np.concatenate([x3, z3, y3])),
            u_err=u_err3,
            p_err=p_err3,
            w_norm=d.W.norm(z3),
        )
        disc = condensation_discrepancy(stab, saddle.static_condense(tf))
        status = "pass" if disc <= CONDENSE_TOL else "fail"
        report.add_row(route="condensed_vs_stabilized", status=status, discrepancy=disc)
        if status == "fail":
            report.verdict = "fail"
    return report


def cmd_converge(cfg):
    """Error sweep over dyadic coarse meshes at a fixed truth mesh."""
    columns = [
        "level",
        "coarse_elems",
        "gamma",
        "u_err",
        "p_err",
        "total_err",
        "best_u",
        "best_p",
        "qratio",
        "rate",
    ]
    report = Report("converge", _config_echo(cfg), cfg.seed, columns)
    levels = cfg.levels if cfg.levels else _default_sweep(cfg)
    truth = _truth(cfg)
    totals = []
    for level, coarse in enumerate(levels):
        mc, pb, d = _level(cfg, truth, coarse)
        rep = saddle.constants(pb, d, truth=truth)
        gamma = _gamma(cfg, rep)
        exact = models.exact_coefficients(mc, models.default_solution())
        qo = saddle.quasi_optimality(pb, d.with_gamma(gamma), exact, report=rep)
        total = qo.u_err + qo.p_err
        rate = None if not totals else float(np.log2(totals[-1] / total))
        totals.append(total)
        report.add_row(
            level=level,
            coarse_elems=coarse,
            gamma=gamma,
            u_err=qo.u_err,
            p_err=qo.p_err,
            total_err=total,
            best_u=qo.best_u,
            best_p=qo.best_p,
            qratio=qo.ratio,
            rate=rate,
        )
    if len(levels) >= 2:
        slope = np.polyfit(np.log2(np.asarray(levels, dtype=float)), np.log2(totals), 1)[0]
        ratios = [r["qratio"] for r in report.rows]
        if -slope < RATE_FLOOR or max(ratios) / min(ratios) > QRATIO_SPREAD:
            report.verdict = "fail"
    return report


def _default_sweep(cfg):
    levels = []
    coarse = cfg.coarse_elems
    for _ in range(4):
        try:
            _model_config(cfg, coarse)
        except ConfigError:
            break
        levels.append(coarse)
        coarse *= 2
    return tuple(levels)


def cmd_condense_check(cfg):
    """Condensation agreement per gamma, plus the maximal-space w ≈ 0 test."""
    columns = ["gamma", "discrepancy", "w_ratio", "status"]
    report = Report("condense-check", _config_echo(cfg), cfg.seed, columns)
    mc = _model_config(cfg, cfg.coarse_elems)
    pb = models.build_truth(mc)
    mc_max = _model_config(replace(cfg, w="truth"), cfg.truth_elems)
    pb_max = models.build_truth(mc_max)
    # the spaces do not depend on gamma: build them once, vary gamma only
    spaces = models.build_spaces(mc, pb)
    spaces_max = models.build_spaces(mc_max, pb_max)
    for gamma in cfg.gammas:
        d = spaces.with_gamma(gamma)
        tf = saddle.assemble_three_field(pb, d)
        disc = condensation_discrepancy(saddle.assemble_stabilized(pb, d), saddle.static_condense(tf))
        d_max = spaces_max.with_gamma(gamma)
        x, z, _ = saddle.solve(saddle.assemble_three_field(pb_max, d_max))
        w_ratio = pb_max.truth.norm(z) / (1.0 + pb_max.truth.norm(d_max.U.embedding @ x))
        status = "pass" if disc <= CONDENSE_TOL and w_ratio <= W_VANISH_TOL else "fail"
        if status == "fail":
            report.verdict = "fail"
        report.add_row(gamma=gamma, discrepancy=disc, w_ratio=w_ratio, status=status)
    return report


_COMMANDS = {
    "constants": cmd_constants,
    "spectral": cmd_spectral,
    "infsup": cmd_infsup,
    "solve": cmd_solve,
    "converge": cmd_converge,
    "condense-check": cmd_condense_check,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualstab",
        description="Stabilized saddle point experiments with verified spectral bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "constants": "measured stability and stabilization constants per level",
        "spectral": "verify every spectral bound of the dual product",
        "infsup": "mixed-form inf-sup constants of W and U + W",
        "solve": "solve one level through both assembly routes",
        "converge": "error sweep over dyadic coarse meshes",
        "condense-check": "static-condensation and auxiliary-field diagnostics",
    }
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="flat key = value config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), help="report format (default csv)")
        sp.add_argument("--seed", help="seed of randomized sweeps (default 0)")
        sp.add_argument("--gamma", help="stabilization parameter, or 'auto' for gamma0/2")
        sp.add_argument("--truth-elems", dest="truth_elems", help="truth mesh element count")
        sp.add_argument("--coarse-elems", dest="coarse_elems", help="coarse mesh element count")
        sp.add_argument("--pressure", choices=("p1", "p0"), help="pressure basis kind")
        sp.add_argument("--w", help="auxiliary space: refined:<k>, truth, or same")
        sp.add_argument("--s", help="stiffness choice: gramian, scaled:<s>, or lumped")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("truth_elems", "coarse_elems", "pressure", "w", "s", "gamma", "seed", "format", "out")
    }
    try:
        cfg = build_run_config(parse_config_file(args.config), overrides)
        with np.errstate(over="raise", invalid="raise"):
            report = _COMMANDS[args.command](cfg)
    except (ConfigError, GammaTooLarge) as exc:
        print(f"dualstab: config error: {exc}", file=sys.stderr)
        return 2
    except BoundViolated as exc:
        print(f"dualstab: check failed: {exc}", file=sys.stderr)
        return 1
    except (
        NotSpd,
        DegeneratePencil,
        DegenerateDenominator,
        GammaZero,
        SingularSystem,
        np.linalg.LinAlgError,
        NonFinite,
        OverflowError,
        FloatingPointError,
        ZeroDivisionError,
    ) as exc:
        print(f"dualstab: numerical failure: {exc}", file=sys.stderr)
        return 3
    write_report(report, cfg.out, cfg.format)
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
