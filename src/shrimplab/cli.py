"""Command-line front end.

    shrimplab <command> [--config PATH] [--out DIR] [--set key=value ...]
                        [--workers N] [--force]

Commands: sweep, continue, codim2, rescale-verify, sequence-plan,
shrimp-predict.  Every output file starts with '#' comment lines embedding
the fully resolved configuration, so identical configs give identical bytes.
Exit codes: 0 success, 1 configuration error, 2 numerical failure, 3 I/O
error.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .bifurcation import FamilyYMap, continue_codim1, curve_to_csv, solve_codim1
from .config import (
    build_model,
    build_return_config,
    build_sweep_spec,
    load_config,
    resolved_lines,
    _get_float,
    _get_int,
    _get_list,
)
from .errors import ConfigError, ConvergenceError, EscapeError, NumericalError, ShrimplabError
from .gridio import export_grid
from .rescale import (
    limit_map_deviation,
    locate_fold,
    measured_y_linear_coeff,
    predict_shrimp_location,
    rescale_frame,
)
from .sequences import (
    modulus_endpoint_gains,
    plan_modulus_sequence,
    plan_rotation_sequence,
    rotation_endpoint_coefficients,
)
from .sweep import plane_sweep

COMMANDS = ("sweep", "continue", "codim2", "rescale-verify", "sequence-plan", "shrimp-predict")


def _out_path(outdir, name, force):
    path = os.path.join(outdir, name)
    if os.path.exists(path) and not force:
        raise OSError(f"refusing to overwrite {path} (use --force)")
    return path


def _write_table(path, header_lines, columns, rows):
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _cmd_sweep(cfg, outdir, force, workers):
    spec = build_sweep_spec(cfg)
    grid = plane_sweep(spec, workers=workers)
    csv_path = _out_path(outdir, "grid.csv", force)
    pgm_path = _out_path(outdir, "grid.pgm", force)
    header = [("config." + line.split(" = ")[0], line.split(" = ")[1]) for line in resolved_lines(cfg)]
    export_grid(grid, csv_path, pgm_path, extra_meta=header)
    return [csv_path, pgm_path]


def _continuation(cfg):
    model = build_model(cfg)
    ymap = FamilyYMap(model.family)
    period = _get_int(cfg, "continue.period")
    kind = cfg["continue.kind"]
    if kind not in ("SN", "PD"):
        raise ConfigError(f"unknown bifurcation kind '{kind}'", key="continue.kind")
    free = _get_int(cfg, "continue.free_param")
    guess = (_get_float(cfg, "continue.y_guess"), _get_float(cfg, "continue.param_guess"))
    plane_names = (cfg["plane.x_name"], cfg["plane.y_name"])
    from .families import FAMILY_ARITY
    from .sweep import _PARAM_NAMES

    params = list(model.params)
    plane = []
    for name in plane_names:
        if name == "dummy":
            params.append(0.0)
            plane.append(len(params) - 1)
        else:
            index = _PARAM_NAMES.get(name, -2)
            if not 0 <= index < FAMILY_ARITY[model.family]:
                raise ConfigError(
                    f"{model.family} has no parameter {name}", key="plane.x_name"
                )
            plane.append(index)
    plane = tuple(plane)
    start = solve_codim1(ymap, period, kind, free, guess, params)
    curve = continue_codim1(
        ymap,
        start,
        plane,
        start.orbit.params,
        step=_get_float(cfg, "continue.step"),
        max_points=_get_int(cfg, "continue.max_points"),
        bounds=_get_float(cfg, "continue.bounds"),
    )
    back = continue_codim1(
        ymap,
        start,
        plane,
        start.orbit.params,
        step=_get_float(cfg, "continue.step"),
        max_points=_get_int(cfg, "continue.max_points"),
        bounds=_get_float(cfg, "continue.bounds"),
        direction=-1.0,
    )
    curve.points = back.points[::-1] + curve.points
    curve.y_values = back.y_values[::-1] + curve.y_values
    curve.multipliers = back.multipliers[::-1] + curve.multipliers
    curve.test_values = back.test_values[::-1] + curve.test_values
    curve.codim2_hits = back.codim2_hits + curve.codim2_hits
    return curve, plane_names


def _cmd_continue(cfg, outdir, force, workers):
    curve, plane_names = _continuation(cfg)
    path = _out_path(outdir, "curve.csv", force)
    curve_to_csv(curve, path, plane_names, header_lines=resolved_lines(cfg))
    return [path]


def _cmd_codim2(cfg, outdir, force, workers):
    curve, plane_names = _continuation(cfg)
    path = _out_path(outdir, "codim2.csv", force)
    rows = [
        (
            hit.kind,
            hit.orbit.period,
            _fmt(hit.orbit.params[0]),
            _fmt(hit.orbit.params[1]),
            _fmt(hit.orbit.y),
            _fmt(hit.orbit.multiplier),
            _fmt(hit.test_values.get("second_derivative", 0.0)),
            _fmt(hit.test_values.get("lyapunov_1", 0.0)),
        )
        for hit in curve.codim2_hits
    ]
    _write_table(
        path,
        resolved_lines(cfg),
        ["kind", "period", plane_names[0], plane_names[1], "Y", "multiplier",
         "second_derivative", "lyapunov_1"],
        rows,
    )
    return [path]


def _cmd_rescale_verify(cfg, outdir, force, workers):
    ks = _get_list(cfg, "rescale.ks", int)
    radius = _get_float(cfg, "rescale.radius")
    grid = _get_int(cfg, "rescale.grid")
    rows = []
    for k in ks:
        rcfg = build_return_config(cfg, k=k, m=k)
        frame = rescale_frame(rcfg)
        report = limit_map_deviation(rcfg, radius, grid)
        measured = measured_y_linear_coeff(rcfg, frame=frame)
        rows.append(
            (
                k,
                k,
                _fmt(report.err_two_param),
                _fmt(report.err_three_param),
                _fmt(frame.m3_coeff),
                _fmt(measured),
                report.skipped,
            )
        )
    path = _out_path(outdir, "rescale.csv", force)
    _write_table(
        path,
        resolved_lines(cfg),
        ["k", "m", "err_two_param", "err_three_param", "linear_coeff",
         "linear_coeff_measured", "skipped"],
        rows,
    )
    return [path]


def _cmd_sequence_plan(cfg, outdir, force, workers):
    count = _get_int(cfg, "plan.count")
    s_values = [float(j) for j in range(1, count + 1)]
    if cfg["plan.kind"] == "saddle":
        plan = plan_modulus_sequence(
            _get_float(cfg, "plan.theta0"),
            _get_float(cfg, "plan.gamma"),
            s_values,
        )
        rows = []
        for e in plan.entries:
            g1, g2 = modulus_endpoint_gains(e, _get_float(cfg, "plan.gamma"))
            rows.append((e.j, e.k, e.m, "", _fmt(e.lo), _fmt(e.hi), _fmt(e.s),
                         _fmt(g1), _fmt(g2)))
    elif cfg["plan.kind"] == "saddle_focus":
        lam = _get_float(cfg, "plan.lambda")
        gam = _get_float(cfg, "plan.gamma")
        amp = _get_float(cfg, "plan.amplitude")
        plan = plan_rotation_sequence(
            _get_float(cfg, "plan.phi0"), lam, gam, s_values, amplitude=amp
        )
        rows = []
        for e in plan.entries:
            c1, c2, _ = rotation_endpoint_coefficients(e, lam, gam, amplitude=amp)
            rows.append((e.j, e.k, e.m, e.n, _fmt(e.lo), _fmt(e.hi), _fmt(e.s),
                         _fmt(c1), _fmt(c2)))
    else:
        raise ConfigError(f"unknown plan kind '{cfg['plan.kind']}'", key="plan.kind")
    path = _out_path(outdir, "plan.csv", force)
    _write_table(
        path,
        resolved_lines(cfg),
        ["j", "k", "m", "n", "interval_lo", "interval_hi", "s",
         "endpoint_1", "endpoint_2"],
        rows,
    )
    return [path]


def _cmd_shrimp_predict(cfg, outdir, force, workers):
    ks = _get_list(cfg, "predict.ks", int)
    m_event = (_get_float(cfg, "predict.m1"), _get_float(cfg, "predict.m2"))
    rows = []
    for k in ks:
        rcfg = build_return_config(cfg, k=k, m=k)
        mu_pred = predict_shrimp_location(rcfg, m_event)
        try:
            mu_meas, _, rel = locate_fold(rcfg, m_event)
            measured = (_fmt(float(mu_meas[0])), _fmt(float(mu_meas[1])), _fmt(rel))
        except (ConvergenceError, NumericalError):
            measured = ("", "", "")
        rows.append(
            (k, k, _fmt(mu_pred[0]), _fmt(mu_pred[1])) + measured
        )
    path = _out_path(outdir, "predict.csv", force)
    _write_table(
        path,
        resolved_lines(cfg),
        ["k", "m", "mu1_predicted", "mu2_predicted", "mu1_measured",
         "mu2_measured", "relative_offset"],
        rows,
    )
    return [path]


_DISPATCH = {
    "sweep": _cmd_sweep,
    "continue": _cmd_continue,
    "codim2": _cmd_codim2,
    "rescale-verify": _cmd_rescale_verify,
    "sequence-plan": _cmd_sequence_plan,
    "shrimp-predict": _cmd_shrimp_predict,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrimplab",
        description="Stability-window toolkit: sweeps, continuation, rescaling checks",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="run configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--workers", default=None, help="sweep worker processes (>= 1)")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return parser


def _worker_count(flag) -> int:
    """Worker count from --workers, else SHRIMPLAB_WORKERS, else 1."""
    if flag is not None:
        source, raw = "--workers", flag
    else:
        source, raw = "SHRIMPLAB_WORKERS", os.environ.get("SHRIMPLAB_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"expected an integer >= 1, got {raw!r}", key=source)
    return workers


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        workers = _worker_count(args.workers)
        cfg = load_config(args.config, args.set)
        os.makedirs(args.out, exist_ok=True)
        paths = _DISPATCH[args.command](cfg, args.out, args.force, workers)
    except ConfigError as err:
        print(f"shrimplab: config error: {err}", file=sys.stderr)
        return 1
    except (ConvergenceError, EscapeError, NumericalError) as err:
        print(f"shrimplab: numerical failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"shrimplab: i/o error: {err}", file=sys.stderr)
        return 3
    except ShrimplabError as err:
        print(f"shrimplab: error: {err}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
