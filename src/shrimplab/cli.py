"""Command-line front end.

    shrimplab <command> [--config PATH] [--out DIR] [--set key=value ...]
                        [--workers N] [--force]

Commands: sweep, continue, codim2, rescale-verify, sequence-plan,
shrimp-predict.  Every output file starts with '#' comment lines embedding
the fully resolved configuration, so identical configs give identical bytes.
Exit codes: 0 success, 1 configuration error, 2 numerical failure, 3 I/O
error.  Each command runs with numpy's floating-point overflow, invalid
operations and division by zero raised, so a run that would produce inf or
NaN exits 2, as does a Python float overflow.  The sweep's cells, the
deviation lattice and the cross-form solves still mask them: a fault there
belongs to one point.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bifurcation import FamilyYMap, continue_both_ways, curve_to_csv, solve_codim1
from .config import (
    build_model,
    build_return_config,
    build_sweep_spec,
    load_config,
    plane_param_index,
    resolved_lines,
    _get_float,
    _get_int,
    _get_list,
)
from .errors import (
    ConfigError, ConvergenceError, EscapeError, FieldError, NumericalError, ShrimplabError,
)
from .gridio import export_grid, write_table
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


def _write_output(cfg, outdir, force, name, columns, rows):
    """Write one CSV output under the resolved-config header; returns [path]."""
    path = _out_path(outdir, name, force)
    write_table(path, resolved_lines(cfg), columns, rows)
    return [path]


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


def _setting(cfg, key, parse, valid, rule):
    """The setting key read by parse; a ConfigError on key unless valid(value)."""
    value = parse(cfg, key)
    if not valid(value):
        raise ConfigError(f"must be {rule}, got '{cfg[key]}'", key=key)
    return value


def _finite_positive(x):
    return math.isfinite(x) and x > 0.0


def _ks(cfg, key):
    """The pass counts of key: a list of integers >= 1."""
    return _setting(cfg, key, lambda c, k: _get_list(c, k, int), lambda ks: min(ks) >= 1,
                    "integers >= 1")


def _continuation(cfg):
    model = build_model(cfg)
    ymap = FamilyYMap(model.family)
    period = _setting(cfg, "continue.period", _get_int, lambda n: n >= 1, "an integer >= 1")
    kind = cfg["continue.kind"]
    if kind not in ("SN", "PD"):
        raise ConfigError(f"unknown bifurcation kind '{kind}'", key="continue.kind")
    arity = len(model.params)
    free = _setting(cfg, "continue.free_param", _get_int, lambda i: 0 <= i < arity,
                    f"a parameter index in 0..{arity - 1}")
    guess = tuple(_setting(cfg, key, _get_float, math.isfinite, "finite")
                  for key in ("continue.y_guess", "continue.param_guess"))
    step = _setting(cfg, "continue.step", _get_float, _finite_positive, "finite and positive")
    max_points = _setting(cfg, "continue.max_points", _get_int, lambda n: n >= 2,
                          "an integer >= 2")
    bounds = _setting(cfg, "continue.bounds", _get_float, _finite_positive,
                      "finite and positive")
    params = list(model.params)
    plane = []
    for key in ("plane.x_name", "plane.y_name"):
        index = plane_param_index(cfg, model.family, key)
        if index < 0:
            params.append(0.0)
            index = len(params) - 1
        plane.append(index)
    start = solve_codim1(ymap, period, kind, free, guess, params)
    curve = continue_both_ways(
        ymap,
        start,
        tuple(plane),
        start.orbit.params,
        step=step,
        max_points=max_points,
        bounds=bounds,
    )
    return curve, (cfg["plane.x_name"], cfg["plane.y_name"])


def _cmd_continue(cfg, outdir, force, workers):
    curve, plane_names = _continuation(cfg)
    path = _out_path(outdir, "curve.csv", force)
    curve_to_csv(curve, path, plane_names, header_lines=resolved_lines(cfg))
    return [path]


def _cmd_codim2(cfg, outdir, force, workers):
    curve, plane_names = _continuation(cfg)
    rows = [
        (
            hit.kind,
            hit.orbit.period,
            _fmt(hit.orbit.params[0]),
            _fmt(hit.orbit.params[1]),
            _fmt(hit.orbit.y),
            _fmt(hit.orbit.multiplier),
            _fmt(hit.test_values["second_derivative"]),
            _fmt(hit.test_values["lyapunov_1"]),
        )
        for hit in curve.codim2_hits
    ]
    columns = ["kind", "period", plane_names[0], plane_names[1], "Y", "multiplier",
               "second_derivative", "lyapunov_1"]
    return _write_output(cfg, outdir, force, "codim2.csv", columns, rows)


def _cmd_rescale_verify(cfg, outdir, force, workers):
    ks = _ks(cfg, "rescale.ks")
    radius = _setting(cfg, "rescale.radius", _get_float, _finite_positive, "finite and positive")
    grid = _setting(cfg, "rescale.grid", _get_int, lambda n: n >= 2, "an integer >= 2")
    rows = []
    for k in ks:
        rcfg = build_return_config(cfg, k=k, m=k)
        frame = rescale_frame(rcfg)
        report = limit_map_deviation(rcfg, radius, grid, frame=frame)
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
    columns = ["k", "m", "err_two_param", "err_three_param", "linear_coeff",
               "linear_coeff_measured", "skipped"]
    return _write_output(cfg, outdir, force, "rescale.csv", columns, rows)


def _plan(planner, *args, **kwargs):
    """Run a sequence planner; the FieldErrors it raises name bad plan settings."""
    try:
        return planner(*args, **kwargs)
    except FieldError as err:
        raise ConfigError(str(err), key=f"plan.{err.field}") from err


def _cmd_sequence_plan(cfg, outdir, force, workers):
    count = _get_int(cfg, "plan.count")
    s_values = [float(j) for j in range(1, count + 1)]
    if cfg["plan.kind"] == "saddle":
        plan = _plan(
            plan_modulus_sequence,
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
        plan = _plan(
            plan_rotation_sequence, _get_float(cfg, "plan.phi0"), lam, gam, s_values, amplitude=amp
        )
        rows = []
        for e in plan.entries:
            c1, c2, _ = rotation_endpoint_coefficients(e, lam, gam, amplitude=amp)
            rows.append((e.j, e.k, e.m, e.n, _fmt(e.lo), _fmt(e.hi), _fmt(e.s),
                         _fmt(c1), _fmt(c2)))
    else:
        raise ConfigError(f"unknown plan kind '{cfg['plan.kind']}'", key="plan.kind")
    columns = ["j", "k", "m", "n", "interval_lo", "interval_hi", "s", "endpoint_1", "endpoint_2"]
    return _write_output(cfg, outdir, force, "plan.csv", columns, rows)


def _cmd_shrimp_predict(cfg, outdir, force, workers):
    ks = _ks(cfg, "predict.ks")
    m_event = tuple(_setting(cfg, key, _get_float, math.isfinite, "finite")
                    for key in ("predict.m1", "predict.m2"))
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
    columns = ["k", "m", "mu1_predicted", "mu2_predicted", "mu1_measured",
               "mu2_measured", "relative_offset"]
    return _write_output(cfg, outdir, force, "predict.csv", columns, rows)


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
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            paths = _DISPATCH[args.command](cfg, args.out, args.force, workers)
    except ConfigError as err:
        print(f"shrimplab: config error: {err}", file=sys.stderr)
        return 1
    except (ConvergenceError, EscapeError, NumericalError, ArithmeticError, MemoryError) as err:
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
