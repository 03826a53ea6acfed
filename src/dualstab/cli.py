"""Command-line driver for measured constants, spectral checks, and sweeps.

Config files are flat ``key = value`` text ('#' starts a comment); command
line flags override file values and are checked by the same parsers.  Exit
codes: 0 all checks pass, 1 a mathematical check failed, 2 config error (an
``--out`` that cannot be written is one), 3 numerical failure (any
``algebra.NumericalFailure`` or LAPACK error, running out of memory, or an
overflow or invalid value anywhere in a command).  A config whose truth mesh
is above ``models.DENSE_TRUTH_LIMIT`` is a config error when it needs a dense
truth path: a W on the whole truth mesh (``w = truth``, or a ``refined:k`` or
``same`` that reaches it) or the command ``condense-check``.  So is ``gamma =
auto`` in ``solve`` and ``converge`` on a level whose gamma0 is 0, as with
``w = same``, where beta_hat is 0.  Any reaction runs at any truth mesh: the
truth constants are closed-form.  At ``gamma = auto`` a large reaction
shrinks gamma0 with it: at truth 256 on levels 2..16, ``converge`` fails its
verdict at reaction 1e2 to 1e4 (exit 1), and at 1e5 and 1e6 its unscaled
systems fall to the ``saddle.SINGULAR_RTOL`` screen (exit 3), which
``solve`` reports as its ``singular`` row.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace

# algebra before numpy: it imports numpy with every OpenBLAS on one thread,
# which a numpy imported first would have started at the caller's count
from .algebra import NumericalFailure

import numpy as np

from . import models, saddle
from .dualprod import (
    BoundViolated,
    EquivalenceReport,
    SweepSampler,
    spectral_checks,
    stiffness_scale,
)
from .models import ModelConfig, NestingViolated
from .report import Report, write_report
from .saddle import GammaTooLarge, SingularSystem

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
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"config: cannot read {path!r}: {reason}") from None
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


def _parse_int(field, text, minimum):
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{field}: expected an integer, got {text!r}") from None
    if value < minimum:
        floor = "positive" if minimum else "nonnegative"
        raise ConfigError(f"{field}: must be {floor}, got {value}")
    return value


def _parse_pos_int(field, text):
    return _parse_int(field, text, 1)


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


def _parse_choice(field, text, choices):
    if text not in choices:
        raise ConfigError(f"{field}: must be {' or '.join(map(repr, choices))}, got {text!r}")
    return text


def _parse_stiffness(text):
    try:
        stiffness_scale(text)
    except ValueError as exc:
        raise ConfigError(f"s: {exc}") from None
    return text


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


# one parser per config key; file values and command-line flags both go through it
_PARSERS = {
    "truth_elems": lambda s: _parse_pos_int("truth_elems", s),
    "coarse_elems": lambda s: _parse_pos_int("coarse_elems", s),
    "pressure": lambda s: _parse_choice("pressure", s, ("p1", "p0")),
    "w": lambda s: s,
    "s": _parse_stiffness,
    "gamma": _parse_gamma,
    "reaction": lambda s: _parse_nonneg_float("reaction", s),
    "levels": lambda s: _parse_list("levels", s, _parse_pos_int),
    "gammas": lambda s: _parse_float_list("gammas", s),
    "seed": lambda s: _parse_int("seed", s, 0),
    "format": lambda s: _parse_choice("format", s, ("csv", "json")),
    "out": lambda s: s,
}


def build_run_config(file_values, overrides):
    """Merge config file values and command-line overrides into a RunConfig."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**{key: _PARSERS[key](raw) for key, raw in merged.items()})
    # the model config validates mesh sizes, w and reaction of each level up front; none repeats
    levels = _levels(cfg)
    for i, level in enumerate(levels):
        if level in levels[:i]:
            raise ConfigError(f"levels: entry {level} is repeated")
        _model_config(cfg, level)
    return cfg


def _model_config(cfg, coarse):
    try:
        return ModelConfig(
            truth_elems=cfg.truth_elems,
            coarse_elems=coarse,
            pressure_kind=cfg.pressure,
            w_kind=cfg.w,
            s_choice=cfg.s,
            gamma=0.0,
            reaction=cfg.reaction,
        )
    except (ValueError, NestingViolated) as exc:
        raise ConfigError(str(exc)) from None


def _each_level(cfg, levels):
    """(level, coarse, model config, problem, spaces at gamma 0) of each mesh level in turn.

    The truth record, with its load F, is built once, from the first, and every level's
    problem is built on it: a level assembles only its own B_T form, G_Q and G's rhs.
    Neither this nor a loop over it holds a level's problem or spaces while the next is
    built, so each level's arrays are freed first: a loop body ends with ``del pb, d``.
    """
    truth = models.truth_record(_model_config(cfg, levels[0]))
    for level, coarse in enumerate(levels):
        mc = _model_config(cfg, coarse)
        pb = models.build_level(mc, truth)
        yield level, coarse, mc, pb, models.build_spaces(mc, pb)
        del pb


def _gamma(cfg, rep):
    """The configured gamma; 'auto' is gamma0 / 2 of the level's constants."""
    return rep.gamma0 / 2.0 if cfg.gamma == "auto" else float(cfg.gamma)


def _solver_gamma(cfg, rep):
    """``_gamma`` of a command that solves at it; at 'auto' a gamma0 of 0 is a config error.

    gamma0 is 0 when beta_hat is: W does not control the pressures, so no
    gamma is predicted to stabilize the pair, and gamma0 / 2 = 0 would solve
    the unstabilized, singular system.  ``constants`` only measures, and
    reports such a level's gamma as 0.
    """
    if cfg.gamma == "auto" and rep.gamma0 == 0.0:
        why = "beta_hat = 0: W does not control the pressures"
        if rep.beta_hat > 0.0:
            why = "gamma0 underflows to 0"
        raise ConfigError(
            f"gamma: auto needs gamma0 > 0, but {why}; no gamma is predicted to stabilize the pair"
        )
    return _gamma(cfg, rep)


def _levels(cfg):
    return cfg.levels if cfg.levels else (cfg.coarse_elems,)


def _config_echo(cfg):
    keys = ("truth_elems", "coarse_elems", "pressure", "w", "s", "gamma", "reaction")
    echo = {key: getattr(cfg, key) for key in keys}
    if cfg.levels:
        echo["levels"] = ",".join(str(n) for n in cfg.levels)
    return echo


# ---------------------------------------------------------------------------
# commands


def cmd_constants(cfg):
    """One row of measured constants per mesh level."""
    measured = [f.name for f in fields(EquivalenceReport)]
    columns = ["level", "coarse_elems", "alpha", "norm_A", *measured, "gamma0", "gamma_tilde0"]
    columns += ["gamma", "beta_gamma"]
    report = Report("constants", _config_echo(cfg), cfg.seed, columns)
    for level, coarse, _, pb, d in _each_level(cfg, _levels(cfg)):
        rep = saddle.constants(pb, d)
        gamma = _gamma(cfg, rep)
        report.add_row(
            level=level,
            coarse_elems=coarse,
            gamma=gamma,
            beta_gamma=rep.beta_gamma(gamma),
            **vars(rep),
        )
        del pb, d
    return report


def cmd_spectral(cfg):
    """Per-level verification rows for every spectral bound."""
    columns = ["level", "coarse_elems", "check", "value", "lower", "upper", "status"]
    report = Report("spectral", _config_echo(cfg), cfg.seed, columns)
    for level, coarse, _, pb, d in _each_level(cfg, _levels(cfg)):
        sampler = SweepSampler(cfg.seed, level)
        _, rows = spectral_checks(d.dp, pb.pressures, sampler)
        for row in rows:
            cells = {key: getattr(row, key) for key in ("check", "value", "lower", "upper", "status")}
            report.add_row(level=level, coarse_elems=coarse, **cells)
        del pb, d
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
    for level, coarse, _, pb, d in _each_level(cfg, _levels(cfg)):
        # the inf-sup constants read the pressure pencils only, not S, alpha or norm_A;
        # the check row's floor is beta_hat
        row = saddle.relaxed_infsup_check(pb, d)
        report.add_row(
            level=level,
            coarse_elems=coarse,
            u_dim=d.U.dim,
            w_dim=d.W.dim,
            p_dim=d.p_dim,
            beta=pb.pressures.beta,
            beta_hat=row.lower,
            relaxed=row.value,
            status=row.status,
        )
        del pb, d
    return report


def condensation_discrepancy(stabilized, condensed):
    """Largest entrywise difference of the two routes, relative to the direct one."""
    direct = stabilized.matrix
    scale = max(np.abs(direct).max(), np.abs(stabilized.rhs).max(), 1.0)
    dm = np.abs(condensed.matrix - direct).max()
    dr = np.abs(condensed.rhs - stabilized.rhs).max()
    return float(max(dm, dr) / scale)


def cmd_solve(cfg):
    """Solve one level through both assembly routes and compare them."""
    columns = ["route", "status", "residual", "u_err", "p_err", "w_norm", "discrepancy"]
    report = Report("solve", _config_echo(cfg), cfg.seed, columns)
    [(_, _, mc, pb, d)] = _each_level(cfg, (cfg.coarse_elems,))
    # only gamma = auto reads the level's constants
    rep = saddle.constants(pb, d) if cfg.gamma == "auto" else None
    # both routes read one set of gamma-free blocks
    d = d.with_gamma(_solver_gamma(cfg, rep))
    xe, ye = models.exact_coefficients(mc, models.default_solution())
    exact = (xe, saddle.project_pressure(pb, ye))
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
        # the discrepancy is measured first, so the stabilized system is gone
        # before the three-field one is factored; its row still comes last
        disc = condensation_discrepancy(stab, saddle.static_condense(tf))
        del stab
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
        status = "pass" if disc <= CONDENSE_TOL else "fail"
        report.add_row(route="condensed_vs_stabilized", status=status, discrepancy=disc)
    return report


def cmd_converge(cfg):
    """Error sweep over dyadic coarse meshes at a fixed truth mesh.

    No level may be the truth mesh, where the interpolated exact pair is
    discrete and has no quasi-optimality ratio: that is a config error.
    """
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
    levels = cfg.levels if cfg.levels else _default_sweep(cfg)
    if cfg.truth_elems in levels:
        field = "levels: entry" if cfg.levels else "coarse_elems:"
        raise ConfigError(
            f"{field} {cfg.truth_elems} is the truth mesh, where the exact pair is discrete; "
            "converge needs levels below it"
        )
    report = Report("converge", _config_echo(cfg), cfg.seed, columns)
    totals = []
    for level, coarse, mc, pb, d in _each_level(cfg, levels):
        rep = saddle.constants(pb, d)
        gamma = _solver_gamma(cfg, rep)
        exact = models.exact_coefficients(mc, models.default_solution())
        d = d.with_gamma(gamma)
        qo = saddle.quasi_optimality(pb, d, exact, report=rep)
        total = qo.u_err + qo.p_err
        rate = None
        if totals:  # the order in h since the previous level, whose mesh need not be half as fine
            rate = float(np.log2(totals[-1] / total) / np.log2(coarse / levels[level - 1]))
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
        del pb, d
    if len(levels) >= 2:
        slope = np.polyfit(np.log2(np.asarray(levels, dtype=float)), np.log2(totals), 1)[0]
        ratios = [r["qratio"] for r in report.rows]
        if -slope < RATE_FLOOR or max(ratios) / min(ratios) > QRATIO_SPREAD:
            report.verdict = "fail"
    return report


def _default_sweep(cfg):
    """Up to four dyadic levels from coarse_elems, below the truth mesh: it holds the exact pair."""
    levels = [cfg.coarse_elems]
    while len(levels) < 4 and 2 * levels[-1] < cfg.truth_elems:
        try:
            _model_config(cfg, 2 * levels[-1])
        except ConfigError:
            break
        levels.append(2 * levels[-1])
    return tuple(levels)


def _condensed_discrepancy(pb, d):
    """``condensation_discrepancy`` of one gamma's two routes.

    The three-field system is condensed and dropped before the stabilized one
    is assembled, and none of the three outlives the call.
    """
    condensed = saddle.static_condense(saddle.assemble_three_field(pb, d))
    return condensation_discrepancy(saddle.assemble_stabilized(pb, d), condensed)


def cmd_condense_check(cfg):
    """Condensation agreement per gamma, plus the maximal-space w ≈ 0 test.

    One level, the configured one, is built.  W ⊆ U forces w = 0 whatever the
    pressures, so the maximal systems (U = W = truth) run on the configured
    problem: on its W where that spans the truth mesh, on a truth subspace
    otherwise.  They run first, since a singular one ends the command with
    its gamma named, and their spaces are dropped before the condensation
    discrepancy is measured on the configured spaces, one gamma's systems at
    a time (``_condensed_discrepancy``).
    """
    columns = ["gamma", "discrepancy", "w_ratio", "status"]
    try:
        models.require_dense_truth(cfg.truth_elems, "condense-check")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = Report("condense-check", _config_echo(cfg), cfg.seed, columns)
    [(_, _, mc, pb, spaces)] = _each_level(cfg, (cfg.coarse_elems,))
    if mc.w_elems() == cfg.truth_elems:
        maximal = saddle.Discretization(pb, spaces.W, spaces.dp, 0.0)
    else:
        maximal = models.build_spaces(replace(mc, coarse_elems=cfg.truth_elems, w_kind="same"), pb)
    # every gamma restates the maximal discretization, U = W, and reads its blocks
    ratios = []
    for gamma in cfg.gammas:
        d = maximal.with_gamma(gamma)
        try:
            x, z, _ = saddle.solve(saddle.assemble_three_field(pb, d))
        except SingularSystem as exc:
            raise SingularSystem(
                f"maximal system (U = W = truth) at gamma {float(gamma)!r}: {exc}", exc.rcond
            ) from exc
        ratios.append(pb.truth.norm(z) / (1.0 + pb.truth.norm(d.U.embed(x))))
    # the maximal blocks go with the last discretization that shares them
    del maximal, d
    discs = [_condensed_discrepancy(pb, spaces.with_gamma(gamma)) for gamma in cfg.gammas]
    for gamma, disc, w_ratio in zip(cfg.gammas, discs, ratios):
        status = "pass" if disc <= CONDENSE_TOL and w_ratio <= W_VANISH_TOL else "fail"
        report.add_row(gamma=gamma, discrepancy=disc, w_ratio=w_ratio, status=status)
    return report


# each command's function and its line in --help
_COMMANDS = {
    "constants": (cmd_constants, "measured stability and stabilization constants per level"),
    "spectral": (cmd_spectral, "verify every spectral bound of the dual product"),
    "infsup": (cmd_infsup, "mixed-form inf-sup constants of W and U + W"),
    "solve": (cmd_solve, "solve one level through both assembly routes"),
    "converge": (cmd_converge, "error sweep over dyadic coarse meshes"),
    "condense-check": (cmd_condense_check, "static-condensation and auxiliary-field diagnostics"),
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    """One parser for every command: all commands take the same options."""
    parser = argparse.ArgumentParser(
        prog="dualstab",
        description="Stabilized saddle point experiments with verified spectral bounds.",
        epilog="commands:\n" + "".join(f"  {n:<16}{line}\n" for n, (_, line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=tuple(_COMMANDS), metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", help="report format: csv (default) or json")
    parser.add_argument("--seed", help="seed of randomized sweeps (default 0)")
    parser.add_argument("--gamma", help="stabilization parameter, or 'auto' for gamma0/2")
    parser.add_argument("--truth-elems", dest="truth_elems", help="truth mesh element count")
    parser.add_argument("--coarse-elems", dest="coarse_elems", help="coarse mesh element count")
    parser.add_argument("--pressure", help="pressure basis kind: p1 or p0")
    parser.add_argument("--w", help="auxiliary space: refined:<k>, truth, or same")
    parser.add_argument("--s", help="stiffness choice: gramian, scaled:<s>, or lumped")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in _PARSERS}
    try:
        cfg = build_run_config(parse_config_file(args.config), overrides)
        with np.errstate(over="raise", invalid="raise"):
            report = _COMMANDS[args.command][0](cfg)
    except (ConfigError, GammaTooLarge) as exc:
        print(f"dualstab: config error: {exc}", file=sys.stderr)
        return 2
    except BoundViolated as exc:
        print(f"dualstab: check failed: {exc}", file=sys.stderr)
        return 1
    # ArithmeticError is OverflowError, ZeroDivisionError and FloatingPointError
    except (NumericalFailure, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"dualstab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"dualstab: numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    try:
        write_report(report, cfg.out, cfg.format)
    except OSError as exc:
        target = "stdout" if cfg.out is None else repr(cfg.out)
        reason = exc.strerror or exc
        print(f"dualstab: config error: out: cannot write {target}: {reason}", file=sys.stderr)
        return 2
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
