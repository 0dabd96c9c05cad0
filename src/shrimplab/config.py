"""Plain-text run configuration: one `section.key = value` per line.

Blank lines and `#` comments are ignored.  Values are plain scalars,
comma-separated vectors (`b = 1,0.5`), or semicolon-separated matrix rows
(`a = 0,0;0,0`).  Every key of the benchmark model has a default, so a run
config only states what it overrides; `--set section.key=value` overrides
files.  The full schema is documented in the README.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, FieldError
from .families import FAMILY_ARITY, ModelMap, param_index
from .global_map import GlobalMapTaylor, focus_global, saddle_global
from .local import SADDLE, SADDLE_FOCUS, LocalNormalForm
from .returnmap import ReturnMapConfig
from .sweep import (
    FamilyPlaneTarget,
    PlaneSpec,
    RescaledPlaneTarget,
    SweepSpec,
)

BENCHMARK_DEFAULTS = {
    "local.kind": "saddle",
    "local.lambda": "0.4",
    "local.gamma": "2.0",
    "local.phi": "0.3",
    "local.sign_lambda": "1",
    "local.nonlinearity": "linear",
    "t1.x_plus": "1.0",
    "t1.y_minus": "1.0",
    "t1.a": "0.0",
    "t1.b": "1.0",
    "t1.c": "1.0",
    "t1.d": "1.0",
    "t1.mu": "0.0",
    "t2.x_plus": "1.0",
    "t2.y_minus": "1.0",
    "t2.a": "0.0",
    "t2.b": "1.0",
    "t2.c": "1.0",
    "t2.d": "1.0",
    "t2.mu": "0.0",
    "return.k": "8",
    "return.m": "8",
    "model.family": "double_parabola",
    "model.params": "0,0",
    "plane.x_name": "M1",
    "plane.x_lo": "-1.0",
    "plane.x_hi": "1.0",
    "plane.y_name": "M2",
    "plane.y_lo": "-1.0",
    "plane.y_hi": "1.0",
    "sweep.nx": "128",
    "sweep.ny": "128",
    "sweep.transient": "1024",
    "sweep.max_period": "20",
    "sweep.samples": "4096",
    "sweep.escape_radius": "1e6",
    "sweep.seed_rule": "critical",
    "sweep.seed_value": "0.0",
    "sweep.period_tol": "1e-6",
    "sweep.target": "family",
    "continue.period": "1",
    "continue.kind": "SN",
    "continue.y_guess": "-0.5",
    "continue.param_guess": "-0.25",
    "continue.free_param": "1",
    "continue.step": "0.01",
    "continue.max_points": "400",
    "continue.bounds": "10.0",
    "rescale.ks": "6,8,10,12,14",
    "rescale.radius": "2.0",
    "rescale.grid": "13",
    "plan.kind": "saddle",
    "plan.theta0": "1.25",
    "plan.phi0": "1.0",
    "plan.gamma": "128.0",
    "plan.lambda": "0.4",
    "plan.amplitude": "1.0",
    "plan.count": "45",
    "predict.ks": "8,10,12",
    "predict.m1": "0.0",
    "predict.m2": "0.0",
}

# The plane.* and sweep.* settings of a sweep spec, (key, type): the part of
# each key after the dot names its PlaneSpec or SweepSpec field.
# build_plane and build_sweep_spec read them, and gridio.grid_metadata writes
# them back, so an exported grid re-imports to the same spec.
SPEC_SETTINGS = (
    ("plane.x_name", str), ("plane.x_lo", float), ("plane.x_hi", float),
    ("plane.y_name", str), ("plane.y_lo", float), ("plane.y_hi", float),
    ("sweep.nx", int), ("sweep.ny", int), ("sweep.transient", int), ("sweep.max_period", int),
    ("sweep.samples", int), ("sweep.escape_radius", float), ("sweep.seed_rule", str),
    ("sweep.seed_value", float), ("sweep.period_tol", float),
)

_SADDLE_FOCUS_VECTOR_DEFAULTS = {
    "t1.x_plus": "1.0,0.5",
    "t1.a": "0,0;0,0",
    "t1.b": "1.0,0.5",
    "t1.c": "1.0,-0.5",
    "t2.x_plus": "1.0,0.5",
    "t2.a": "0,0;0,0",
    "t2.b": "1.0,0.5",
    "t2.c": "1.0,-0.5",
}


def parse_config_lines(text: str, source: str = "<config>"):
    """Parse `section.key = value` lines; returns (values, line numbers)."""
    out = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value' in {source}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if "." not in key:
            raise ConfigError(
                f"key must be section.key in {source}", key=key, line=lineno
            )
        if not value:
            raise ConfigError(f"empty value in {source}", key=key, line=lineno)
        out[key] = value
        lines[key] = lineno
    return out, lines


def parse_config_text(text: str, source: str = "<config>") -> dict:
    return parse_config_lines(text, source)[0]


def load_config(path=None, overrides=()) -> dict:
    """Defaults, then the config file, then key=value overrides."""
    file_cfg, file_lines = {}, {}
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg, file_lines = parse_config_lines(fh.read(), source=str(path))
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}", key=str(path)) from err
    override_cfg = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override must be key=value", key=item)
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if "." not in key or not value:
            raise ConfigError("override must be section.key=value", key=item)
        override_cfg[key] = value

    cfg = dict(BENCHMARK_DEFAULTS)
    kind = override_cfg.get(
        "local.kind", file_cfg.get("local.kind", cfg["local.kind"])
    )
    if kind == SADDLE_FOCUS:
        cfg.update(_SADDLE_FOCUS_VECTOR_DEFAULTS)
    cfg.update(file_cfg)
    cfg.update(override_cfg)
    known = set(BENCHMARK_DEFAULTS) | set(_SADDLE_FOCUS_VECTOR_DEFAULTS)
    for key in sorted(set(cfg) - known):
        raise ConfigError("unknown key", key=key, line=file_lines.get(key))
    return cfg


def _parse(cfg, key, parse, what):
    try:
        return parse(cfg[key])
    except ValueError as err:
        raise ConfigError(f"not {what}: '{cfg[key]}'", key=key) from err


def _get_float(cfg, key):
    return _parse(cfg, key, float, "a number")


def _get_int(cfg, key):
    return _parse(cfg, key, int, "an integer")


def _get_vector(cfg, key):
    return _parse(cfg, key, lambda v: np.array([float(x) for x in v.split(",")]), "a vector")


def _get_matrix(cfg, key):
    rows = lambda v: np.array([[float(x) for x in row.split(",")] for row in v.split(";")])
    return _parse(cfg, key, rows, "a matrix")


def _get_list(cfg, key, kind=int):
    return _parse(cfg, key, lambda v: [kind(x) for x in v.split(",")], "a list")


def build_local(cfg) -> LocalNormalForm:
    kind = cfg["local.kind"]
    try:
        return LocalNormalForm(
            kind=kind,
            lam=_get_float(cfg, "local.lambda"),
            gamma=_get_float(cfg, "local.gamma"),
            phi=_get_float(cfg, "local.phi"),
            sign_lambda=_get_int(cfg, "local.sign_lambda"),
            nonlinearity=cfg["local.nonlinearity"],
        )
    except ValueError as err:
        raise ConfigError(str(err), key="local.*") from err


def build_global(cfg, section: str, kind: str) -> GlobalMapTaylor:
    make, vec, mat = (saddle_global, _get_float, _get_float) if kind == SADDLE else (
        focus_global, _get_vector, _get_matrix)
    read = dict(x_plus=vec, y_minus=_get_float, a=mat, b=vec, c=vec, d=_get_float, mu=_get_float)
    try:
        return make(**{name: get(cfg, f"{section}.{name}") for name, get in read.items()})
    except FieldError as err:
        raise ConfigError(str(err), key=f"{section}.{err.field}") from err


def build_return_config(cfg, k=None, m=None) -> ReturnMapConfig:
    local = build_local(cfg)
    try:
        return ReturnMapConfig(
            local=local,
            t1=build_global(cfg, "t1", local.kind),
            t2=build_global(cfg, "t2", local.kind),
            k=k if k is not None else _get_int(cfg, "return.k"),
            m=m if m is not None else _get_int(cfg, "return.m"),
        )
    except ValueError as err:
        raise ConfigError(str(err), key="return.*") from err


def build_model(cfg) -> ModelMap:
    family = cfg["model.family"]
    if family not in FAMILY_ARITY:
        raise ConfigError(f"unknown family '{family}'", key="model.family")
    params = _get_list(cfg, "model.params", float)
    try:
        return ModelMap(family, tuple(params))
    except ValueError as err:
        raise ConfigError(str(err), key="model.params") from err


def _spec_fields(cfg, section):
    """The SPEC_SETTINGS of section (plane or sweep) read from cfg, by field
    name."""
    read = {str: lambda cfg, key: cfg[key], int: _get_int, float: _get_float}
    return {
        key.partition(".")[2]: read[kind](cfg, key)
        for key, kind in SPEC_SETTINGS
        if key.startswith(section + ".")
    }


def build_plane(cfg) -> PlaneSpec:
    try:
        return PlaneSpec(**_spec_fields(cfg, "plane"))
    except FieldError as err:
        raise ConfigError(str(err), key=f"plane.{err.field}") from err


def plane_param_index(cfg, family: str, key: str) -> int:
    """Index of the family parameter that the plane key names; -1 for 'dummy'."""
    try:
        return param_index(family, cfg[key])
    except ValueError as err:
        raise ConfigError(str(err), key=key) from err


def _sweep_target(cfg, plane):
    """The plane target that `sweep.target` names."""
    if cfg["sweep.target"] == "family":
        model = build_model(cfg)
        for key in ("plane.x_name", "plane.y_name"):  # a bad name is a ConfigError on its key
            plane_param_index(cfg, model.family, key)
        return FamilyPlaneTarget(model, plane.x_name, plane.y_name)
    if cfg["sweep.target"] == "rescaled_return":
        return RescaledPlaneTarget(build_return_config(cfg))
    raise ConfigError(f"unknown sweep target '{cfg['sweep.target']}'", key="sweep.target")


def build_sweep_spec(cfg, target=None) -> SweepSpec:
    """The sweep spec of cfg, over target if given, else over the one that
    `sweep.target` names."""
    plane = build_plane(cfg)
    if target is None:
        target = _sweep_target(cfg, plane)
    try:
        return SweepSpec(target=target, plane=plane, **_spec_fields(cfg, "sweep"))
    except FieldError as err:
        raise ConfigError(str(err), key=f"sweep.{err.field}") from err


def resolved_lines(cfg) -> list:
    """Sorted `key = value` lines for reproducibility headers."""
    return [f"{key} = {cfg[key]}" for key in sorted(cfg)]
