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
import os
import sys

import numpy as np

from .bifurcation import FamilyYMap, continue_both_ways, curve_to_csv, solve_codim1
from .config import (
    build_model,
    build_return_config,
    build_sweep_spec,
    keyed,
    load_config,
    resolved_lines,
    _get_float,
    _get_int,
    _get_list,
)
from .errors import ConfigError, ConvergenceError, NumericalError, ShrimplabError
from .families import param_index
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


def _cmd_sweep(cfg, outdir, force, workers):
    spec = build_sweep_spec(cfg)
    grid = plane_sweep(spec, workers=workers)
    csv_path = _out_path(outdir, "grid.csv", force)
    pgm_path = _out_path(outdir, "grid.pgm", force)
    header = [(f"config.{key}", cfg[key]) for key in sorted(cfg)]
    export_grid(grid, csv_path, pgm_path, extra_meta=header)
    return [csv_path, pgm_path]


def _counts(cfg, key, counts, rule):
    """counts, read from key; a ConfigError on key unless each is >= 1."""
    if min(counts) < 1:
        raise ConfigError(f"must be {rule} >= 1, got '{cfg[key]}'", key=key)
    return counts


def _continuation(cfg):
    model = build_model(cfg)
    ymap = FamilyYMap(model.family)
    with keyed("plane"):
        plane = tuple(param_index(model.family, cfg[f"plane.{field}"], field)
                      for field in ("x_name", "y_name"))
    guess = (_get_float(cfg, "continue.y_guess"), _get_float(cfg, "continue.param_guess"))
    with keyed("continue"):  # every continue.* value is checked where it is used
        start = solve_codim1(ymap, _get_int(cfg, "continue.period"), cfg["continue.kind"],
                             _get_int(cfg, "continue.free_param"), guess, [*model.params, 0.0])
        curve = continue_both_ways(
            ymap, start, plane, start.orbit.params, step=_get_float(cfg, "continue.step"),
            max_points=_get_int(cfg, "continue.max_points"),
            bounds=_get_float(cfg, "continue.bounds"))
    return curve, (cfg["plane.x_name"], cfg["plane.y_name"])


def _cmd_continue(cfg, outdir, force, workers):
    curve, plane_names = _continuation(cfg)
    path = _out_path(outdir, "curve.csv", force)
    curve_to_csv(curve, path, plane_names, header_lines=resolved_lines(cfg))
    return [path]


def _cmd_codim2(cfg, outdir, force, workers):
    curve, plane_names = _continuation(cfg)
    rows = [
        [hit.kind, hit.orbit.period, *(hit.orbit.params[i] for i in curve.plane),
         hit.orbit.y, hit.orbit.multiplier,
         hit.test_values["second_derivative"], hit.test_values["lyapunov_1"]]
        for hit in curve.codim2_hits
    ]
    columns = ["kind", "period", plane_names[0], plane_names[1], "Y", "multiplier",
               "second_derivative", "lyapunov_1"]
    return _write_output(cfg, outdir, force, "codim2.csv", columns, rows)


def _cmd_rescale_verify(cfg, outdir, force, workers):
    ks = _counts(cfg, "rescale.ks", _get_list(cfg, "rescale.ks"), "integers")
    radius, grid = _get_float(cfg, "rescale.radius"), _get_int(cfg, "rescale.grid")
    rows = []
    for k in ks:
        rcfg = build_return_config(cfg, k=k, m=k)
        with keyed("return"):
            frame = rescale_frame(rcfg)
        with keyed("rescale"):
            report = limit_map_deviation(frame, radius, grid)
        measured = measured_y_linear_coeff(frame)
        rows.append((k, k, report.err_two_param, report.err_three_param, frame.m3_coeff,
                     measured, report.skipped))
    columns = ["k", "m", "err_two_param", "err_three_param", "linear_coeff",
               "linear_coeff_measured", "skipped"]
    return _write_output(cfg, outdir, force, "rescale.csv", columns, rows)


def _cmd_sequence_plan(cfg, outdir, force, workers):
    count = _counts(cfg, "plan.count", [_get_int(cfg, "plan.count")], "an integer")[0]
    s_values = [float(j) for j in range(1, count + 1)]
    gam = _get_float(cfg, "plan.gamma")
    if cfg["plan.kind"] == "saddle":
        with keyed("plan"):
            plan = plan_modulus_sequence(_get_float(cfg, "plan.theta0"), gam, s_values)
        ends = lambda e: modulus_endpoint_gains(e, gam)
    elif cfg["plan.kind"] == "saddle_focus":
        lam = _get_float(cfg, "plan.lambda")
        amp = _get_float(cfg, "plan.amplitude")
        with keyed("plan"):
            plan = plan_rotation_sequence(
                _get_float(cfg, "plan.phi0"), lam, gam, s_values, amplitude=amp)
        ends = lambda e: rotation_endpoint_coefficients(e, lam, gam, amplitude=amp)[:2]
    else:
        raise ConfigError(f"unknown plan kind '{cfg['plan.kind']}'", key="plan.kind")
    # a saddle entry's n is None, an empty field
    rows = [(e.j, e.k, e.m, e.n, e.lo, e.hi, e.s, *ends(e)) for e in plan.entries]
    columns = ["j", "k", "m", "n", "interval_lo", "interval_hi", "s", "endpoint_1", "endpoint_2"]
    return _write_output(cfg, outdir, force, "plan.csv", columns, rows)


def _cmd_shrimp_predict(cfg, outdir, force, workers):
    ks = _counts(cfg, "predict.ks", _get_list(cfg, "predict.ks"), "integers")
    m_event = (_get_float(cfg, "predict.m1"), _get_float(cfg, "predict.m2"))
    rows = []
    for k in ks:
        rcfg = build_return_config(cfg, k=k, m=k)
        with keyed("predict"):
            mu_pred = predict_shrimp_location(rcfg, m_event)
        try:
            mu_meas, _, rel = locate_fold(rcfg, m_event)
            measured = (*mu_meas, rel)
        except (ConvergenceError, NumericalError):  # no fold
            measured = (None, None, None)
        rows.append((k, k, *mu_pred, *measured))
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
    parser.add_argument("--workers", default="1", help="sweep worker processes (>= 1)")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return parser


def _worker_count(raw) -> int:
    """The --workers count; a ConfigError on --workers unless it is >= 1."""
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"expected an integer >= 1, got {raw!r}", key="--workers")
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
    except (ShrimplabError, ArithmeticError, MemoryError) as err:
        print(f"shrimplab: numerical failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"shrimplab: i/o error: {err}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
