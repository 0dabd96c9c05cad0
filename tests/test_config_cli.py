import contextlib
import importlib.util
import io
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrimplab.bifurcation import FamilyYMap, continue_codim1, solve_codim1
from shrimplab.cli import COMMANDS, main
from shrimplab.config import (
    BENCHMARK_DEFAULTS,
    _SADDLE_FOCUS_VECTOR_DEFAULTS,
    build_local,
    build_model,
    build_return_config,
    build_sweep_spec,
    load_config,
    parse_config_lines,
)
from shrimplab.errors import ConfigError, FieldError
from shrimplab.rescale import predict_shrimp_location
from shrimplab import sweep


def test_parse_basics():
    cfg = parse_config_lines("local.lambda = 0.5\n# comment\n\nt1.b = 2  # inline\n")[0]
    assert cfg == {"local.lambda": "0.5", "t1.b": "2"}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config_lines("local.lambda = 0.5\nbroken line\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_config_lines("nodot = 3\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config_lines("local.lambda =   # nothing\n")
    assert err.value.key == "local.lambda"


def test_unknown_key_named(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("local.lambda = 0.3\nnot.akey = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "not.akey"
    assert err.value.line == 2


def test_defaults_build_benchmark():
    cfg = load_config()
    local = build_local(cfg)
    assert local.lam == 0.4 and local.gamma == 2.0
    rcfg = build_return_config(cfg)
    assert rcfg.k == 8 and rcfg.m == 8
    model = build_model(cfg)
    assert model.family == "double_parabola"
    spec = build_sweep_spec(cfg)
    assert spec.nx == 128


def test_overrides():
    cfg = load_config(overrides=["return.k=12", "local.lambda=0.3"])
    assert build_return_config(cfg).k == 12
    assert build_local(cfg).lam == 0.3
    with pytest.raises(ConfigError):
        load_config(overrides=["bad"])


def test_saddle_focus_defaults():
    cfg = load_config(overrides=["local.kind=saddle_focus"])
    rcfg = build_return_config(cfg)
    assert rcfg.local.kind == "saddle_focus"
    assert rcfg.t1.x_dim == 2


def run_cli(args):
    return main(args)


def sweep_args(outdir, extra=()):
    return [
        "sweep", "--out", str(outdir),
        "--set", "sweep.nx=24", "--set", "sweep.ny=24",
        "--set", "sweep.transient=256", "--set", "sweep.samples=256",
        "--set", "plane.x_lo=-0.4", "--set", "plane.x_hi=1.0",
        "--set", "plane.y_lo=-0.4", "--set", "plane.y_hi=1.0",
        *extra,
    ]


def test_cli_sweep_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli(sweep_args(out)) == 0
    csv_text = (out / "grid.csv").read_text()
    assert csv_text.startswith("#")
    assert "config.local.lambda = 0.4" in csv_text
    rows = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 24 * 24 + 1
    assert (out / "grid.pgm").read_text().startswith("P2")


def test_cli_sweep_header_keeps_whole_values(tmp_path):
    # a value holding " = " was cut there: "# config.plan.kind = a"
    out = tmp_path / "run"
    assert run_cli(sweep_args(out, ("--set", "plan.kind=a = b"))) == 0
    for name in ("grid.csv", "grid.pgm"):
        assert "# config.plan.kind = a = b\n" in (out / name).read_text()


def test_cli_refuses_overwrite(tmp_path):
    out = tmp_path / "run"
    assert run_cli(sweep_args(out)) == 0
    assert run_cli(sweep_args(out)) == 3
    assert run_cli(sweep_args(out, ("--force",))) == 0


def test_cli_identical_bytes_across_workers_and_runs(tmp_path, monkeypatch, pool_spy, usable_cpus):
    # blocks of 64 cells split the 24^2 grid into 9, so 2 and 4 workers
    # each start a real pool
    monkeypatch.setattr(sweep, "_BLOCK", 64)
    usable_cpus(4)
    outs = []
    for name, workers in (("a", "1"), ("b", "2"), ("c", "4")):
        out = tmp_path / name
        assert run_cli(sweep_args(out, ("--workers", workers))) == 0
        outs.append(out)
    assert pool_spy == [2, 4]
    blobs = [(o / "grid.csv").read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    pgms = [(o / "grid.pgm").read_bytes() for o in outs]
    assert pgms[0] == pgms[1] == pgms[2]


def test_cli_rejects_bad_worker_counts(tmp_path, capsys):
    for value in ("abc", "0", "-2"):
        assert run_cli(sweep_args(tmp_path / f"flag{value}", ("--workers", value))) == 1
        message = capsys.readouterr().err
        assert message.count("\n") == 1 and "--workers" in message


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sweep.nx = not_a_number\n")
    code = run_cli(["sweep", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    message = capsys.readouterr().err
    assert "sweep.nx" in message

    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("sweep.unknown_key = 3\n")
    code = run_cli(["sweep", "--config", str(bad2), "--out", str(tmp_path / "y")])
    assert code == 1
    message = capsys.readouterr().err
    assert "sweep.unknown_key" in message


def test_cli_config_file_not_utf8(tmp_path, capsys):
    # was a UnicodeDecodeError traceback
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"local.lambda = 0.4\xff\n")
    assert run_cli(["continue", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "Traceback" not in message
    assert f"key '{bad}': cannot read config" in message


DISSIPATIVE_FOCUS = ["plan.kind=saddle_focus", "plan.gamma=2.0", "plan.lambda=0.4"]


@pytest.mark.parametrize(
    "command, settings, named",
    [
        ("sweep", ["plane.x_name=M3"], "plane.x_name"),
        ("sweep", ["plane.y_name=M3"], "plane.y_name"),
        ("continue", ["plane.x_name=M3"], "plane.x_name"),
        ("continue", ["plane.y_name=M3"], "plane.y_name"),
        ("sweep", ["plane.x_lo=nan"], "x_lo"),
        ("sweep", ["plane.y_hi=inf"], "y_hi"),
        ("sweep", ["sweep.samples=0"], "samples"),
        ("sweep", ["sweep.period_tol=-1"], "period_tol"),
        ("sweep", ["sweep.period_tol=nan"], "period_tol"),
        ("sequence-plan", ["plan.theta0=0.5"], "theta0"),
        ("sequence-plan", ["plan.kind=saddle_focus", "plan.phi0=4"], "phi0"),
        ("sweep", ["sweep.escape_radius=nan"], "escape_radius"),
        ("sweep", ["sweep.escape_radius=0"], "escape_radius"),
        ("sequence-plan", ["plan.gamma=1"], "gamma"),
        ("sequence-plan", ["plan.gamma=0"], "gamma"),
        ("sequence-plan", ["plan.kind=saddle_focus", "plan.gamma=-0.5"], "gamma"),
        # lambda * gamma = 51.2 on the defaults: not dissipative
        ("sequence-plan", ["plan.kind=saddle_focus", "plan.count=3"], "lambda * |gamma|"),
        ("sequence-plan", ["plan.kind=saddle_focus"], "lambda * |gamma|"),
        # was an OverflowError traceback
        ("sequence-plan", ["plan.theta0=inf"], "theta0"),
        # theta0 * m overflows at m = 4: was an OverflowError traceback
        ("sequence-plan", ["plan.theta0=1e308"], "theta0"),
        # continuation settings: were tracebacks (non-finite guesses or step,
        # a free parameter the family lacks) or a meaningless curve with exit 0
        ("continue", ["continue.period=0"], "continue.period"),
        ("codim2", ["continue.period=-2"], "continue.period"),
        ("continue", ["continue.step=nan"], "continue.step"),
        ("codim2", ["continue.step=0"], "continue.step"),
        ("continue", ["continue.y_guess=nan"], "continue.y_guess"),
        ("codim2", ["continue.param_guess=inf"], "continue.param_guess"),
        ("continue", ["continue.free_param=5"], "continue.free_param"),
        ("codim2", ["continue.free_param=-1"], "continue.free_param"),
        ("continue", ["continue.bounds=nan"], "continue.bounds"),
        ("codim2", ["continue.bounds=-1"], "continue.bounds"),
        ("continue", ["continue.max_points=0"], "continue.max_points"),
        # was a LinAlgError traceback from the fold seed's cubic
        ("shrimp-predict", ["predict.m1=nan"], "predict.m1"),
        ("shrimp-predict", ["predict.m2=inf"], "predict.m2"),
        # pass counts, lattice size and radius: were a ValueError traceback
        # (grid, negative radius), exit 2 after RuntimeWarnings (infinite
        # radius) or an error on the key 'return.*' (ks)
        ("rescale-verify", ["rescale.grid=0"], "rescale.grid"),
        ("rescale-verify", ["rescale.radius=-1"], "rescale.radius"),
        ("rescale-verify", ["rescale.radius=inf"], "rescale.radius"),
        ("rescale-verify", ["rescale.ks=8,0"], "rescale.ks"),
        ("shrimp-predict", ["predict.ks=-1"], "predict.ks"),
        # non-finite excursion coefficients: were RuntimeWarnings and exit 2,
        # or exit 0 with non-finite rows
        ("rescale-verify", ["t1.b=inf"], "t1.b"),
        ("shrimp-predict", ["t1.c=inf"], "t1.c"),
        ("rescale-verify", ["t2.mu=nan"], "t2.mu"),
        ("rescale-verify", ["local.kind=saddle_focus", "t1.x_plus=1,inf"], "t1.x_plus"),
        # were exit 0 with a header-only plan, or with infinite endpoints
        *(("sequence-plan", [*DISSIPATIVE_FOCUS, f"plan.amplitude={a}"], "amplitude")
          for a in ("nan", "0", "-1", "inf")),
        *(("sequence-plan", [*DISSIPATIVE_FOCUS, f"plan.count={n}"], "plan.count")
          for n in ("0", "-3")),
        # the local form, the pass counts and the saddle-focus coefficient
        # shapes: were errors on the keys 'local.*' and 'return.*', or
        # ValueError tracebacks (shapes)
        ("rescale-verify", ["local.kind=node"], "local.kind"),
        ("rescale-verify", ["local.lambda=2"], "local.lambda"),
        ("shrimp-predict", ["local.gamma=1"], "local.gamma"),
        ("rescale-verify", ["local.kind=saddle_focus", "local.phi=4"], "local.phi"),
        ("sweep", ["sweep.target=rescaled_return", "local.sign_lambda=2"], "local.sign_lambda"),
        ("rescale-verify", ["local.kind=saddle_focus", "local.nonlinearity=test_cubic"],
         "local.nonlinearity"),
        ("sweep", ["sweep.target=rescaled_return", "return.k=0"], "return.k"),
        ("rescale-verify", ["local.kind=saddle_focus", "t1.a=0"], "t1.a"),
        ("sweep", ["sweep.target=rescaled_return", "local.kind=saddle_focus", "t1.b=1,0.5,2"],
         "t1.b"),
        ("shrimp-predict", ["local.kind=saddle_focus", "t2.c=1"], "t2.c"),
        ("rescale-verify", ["local.kind=saddle_focus", "t1.x_plus=1.0"], "t1.x_plus"),
        # were exit 0 with every cell escaped
        *(("sweep", ["sweep.seed_rule=fixed", f"sweep.seed_value={v}"], "sweep.seed_value")
          for v in ("nan", "inf")),
        # checked after model.params is parsed, by the family's own check
        ("sweep", ["model.family=logistic"], "model.family"),
        # settings the rescale frame cannot take: were exit 2 as numerical failures
        ("rescale-verify", ["local.gamma=-2"], "local.gamma"),
        ("sweep", ["sweep.target=rescaled_return", "local.gamma=-2"], "local.gamma"),
        ("rescale-verify", ["local.kind=saddle_focus", "t2.b=0,1"], "t2.b"),
        ("rescale-verify", ["local.kind=saddle_focus", "t1.b=0,1"], "t1.b"),
        # k < m: the frame swaps t1 and t2, and the key is still the setting's
        ("sweep", ["sweep.target=rescaled_return", "local.kind=saddle_focus", "return.k=5",
                   "return.m=10", "t1.b=0,1"], "t1.b"),
        # checked by solve_codim1 and by the plane's param_index, under keyed
        ("continue", ["continue.kind=XX"], "continue.kind"),
        ("codim2", ["continue.kind=XX"], "continue.kind"),
        ("codim2", ["plane.y_name=M3"], "plane.y_name"),
        ("sweep", ["model.family=parabola", "model.params=1", "plane.x_name=M2"],
         "plane.x_name"),
        # the default free parameter 1 is checked first, and parabola has none
        ("continue", ["model.family=parabola", "model.params=1", "continue.free_param=0",
                      "plane.x_name=M2"], "plane.x_name"),
        # a continuation plane needs two parameter slots (checked by
        # continue_codim1): were exit 0 with two M1 columns, and exit 2
        ("continue", ["plane.y_name=M1"], "plane.y_name"),
        ("codim2", ["plane.y_name=M1"], "plane.y_name"),
        ("continue", ["plane.x_name=dummy", "plane.y_name=dummy"], "plane.y_name"),
        # so does a sweep plane (checked by FamilyPlaneTarget): y overwrote x,
        # and exit 0 gave identical rows along i
        ("sweep", ["plane.y_name=M1"], "plane.y_name"),
        ("sweep", ["plane.x_name=dummy", "plane.y_name=dummy"], "plane.y_name"),
        # an empty value: was an error on the key 'local.kind=', which does
        # not exist
        ("continue", ["local.kind="], "local.kind"),
        # the frame's settings, which predict_shrimp_location checks too:
        # shrimp-predict was exit 0
        ("shrimp-predict", ["local.gamma=-2"], "local.gamma"),
        # d1*d1*d2 or d1*d2*d2 zero or not finite: were exit 2, on the d of
        # larger |log|d||, and on the setting's own key when k < m
        ("rescale-verify", ["t1.d=1e-320"], "t1.d"),
        ("shrimp-predict", ["t2.d=5e-324"], "t2.d"),
        ("rescale-verify", ["t1.d=1e200"], "t1.d"),
        ("sweep", ["sweep.target=rescaled_return", "return.k=5", "return.m=10", "t2.d=1e-320"],
         "t2.d"),
    ],
)
def test_cli_rejects_invalid_spec(tmp_path, capsys, command, settings, named):
    sets = [arg for item in settings for arg in ("--set", item)]
    code = run_cli([command, "--out", str(tmp_path / "x"), *sets])
    message = capsys.readouterr().err
    assert code == 1
    assert message.count("\n") == 1 and "Traceback" not in message
    assert "config error" in message and named in message
    # the error names the offending key: `named` when it is one, else the
    # key of the field it names, in the section of the last setting
    key = named if "." in named else f"{settings[-1].split('.')[0]}.{named.split()[0]}"
    assert key in BENCHMARK_DEFAULTS and f"key '{key}':" in message


DP_FOLD = dict(ymap=FamilyYMap("double_parabola"), period=1, kind="SN", free_index=1,
               guess=(0.9, 1.0), params=(0.9, 0.0, 0.0))


def _continue(plane=(0, 1), **options):
    start = solve_codim1(**DP_FOLD)
    return continue_codim1(DP_FOLD["ymap"], start, plane, start.orbit.params,
                           **{"max_points": 20, **options})


# each library function that takes a setting's value checks it, and the
# section the CLI keys its errors with
LIBRARY_CALLS = {
    "solve": ("continue", lambda **bad: solve_codim1(**{**DP_FOLD, **bad})),
    "continue": ("continue", _continue),
    "predict": ("predict", lambda m_event: predict_shrimp_location(
        build_return_config(load_config(None, []), k=8, m=8), m_event)),
    "target": ("plane", lambda **names: sweep.FamilyPlaneTarget(
        build_model(load_config(None, [])), **{"x_name": "M1", "y_name": "M2", **names})),
}


@pytest.mark.parametrize(
    "call, bad, key",
    [
        # returned a "fold" at the guess with multiplier 1
        ("solve", {"period": 0}, "continue.period"),
        ("solve", {"period": -2}, "continue.period"),
        # was an IndexError; 2 and -1 (the last index) name the dummy slot
        ("solve", {"free_index": 5}, "continue.free_param"),
        ("solve", {"free_index": 2}, "continue.free_param"),
        ("solve", {"free_index": -1}, "continue.free_param"),
        ("solve", {"guess": (float("nan"), 1.0)}, "continue.y_guess"),
        ("solve", {"guess": (0.9, float("inf"))}, "continue.param_guess"),
        # 20 copies of the start point, steps past max_step, bounds never hit
        ("continue", {"step": 0.0}, "continue.step"),
        ("continue", {"step": -0.01}, "continue.step"),
        ("continue", {"step": float("nan")}, "continue.step"),
        ("continue", {"bounds": float("nan")}, "continue.bounds"),
        ("continue", {"bounds": -1.0}, "continue.bounds"),
        ("continue", {"bounds": float("inf")}, "continue.bounds"),
        # one point
        ("continue", {"max_points": 0}, "continue.max_points"),
        ("continue", {"max_points": 1}, "continue.max_points"),
        # the plane's own section overrides the caller's
        ("continue", {"plane": (1, 1)}, "plane.y_name"),
        ("predict", {"m_event": (float("nan"), 0.0)}, "predict.m1"),
        ("predict", {"m_event": (0.0, float("inf"))}, "predict.m2"),
        ("target", {"y_name": "M1"}, "plane.y_name"),
        ("target", {"x_name": "dummy", "y_name": "dummy"}, "plane.y_name"),
    ],
)
def test_library_rejects_values_it_cannot_use(call, bad, key):
    section, function = LIBRARY_CALLS[call]
    with pytest.raises(FieldError) as err:
        function(**bad)
    assert f"{err.value.section or section}.{err.value.field}" == key
    assert key in BENCHMARK_DEFAULTS


def test_cli_continue_and_codim2(tmp_path):
    out = tmp_path / "cont"
    args = [
        "continue", "--out", str(out),
        "--set", "continue.kind=SN", "--set", "continue.period=1",
        "--set", "continue.y_guess=0.9", "--set", "continue.param_guess=0.86",
        "--set", "continue.free_param=1", "--set", "model.params=0.9,0",
        "--set", "continue.max_points=120", "--set", "continue.bounds=4",
    ]
    assert run_cli(args) == 0
    text = (out / "curve.csv").read_text()
    assert "kind,period,M1,M2,Y,multiplier,test_value" in text
    out2 = tmp_path / "c2"
    assert run_cli(["codim2"] + args[1:] + ["--out", str(out2)]) == 0
    body = (out2 / "codim2.csv").read_text()
    assert "cusp" in body


def _codim2_rows(tmp_path, x_name, y_name):
    out = tmp_path / f"{x_name}_{y_name}"
    assert run_cli([
        "codim2", "--out", str(out),
        "--set", "model.family=shrimp3", "--set", "model.params=0.9,0,0.2",
        "--set", "continue.y_guess=0.9", "--set", "continue.param_guess=1.0",
        "--set", f"plane.x_name={x_name}", "--set", f"plane.y_name={y_name}",
    ]) == 0
    lines = [l for l in (out / "codim2.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[2:4] == [x_name, y_name]
    return [l.split(",") for l in lines[1:]]


def test_cli_codim2_columns_are_the_plane_axes(tmp_path):
    # the shrimp3 cusps of a fixed M2 lie on M1 = 3 Y^2, M3 = 1 - 8 Y^3
    rows = _codim2_rows(tmp_path, "M1", "M3")
    assert [row[0] for row in rows].count("cusp") >= 1
    for row in rows:
        m1, m3, y = float(row[2]), float(row[3]), float(row[4])
        assert abs(m1 - 3.0 * y**2) < 1e-9 and abs(m3 - (1.0 - 8.0 * y**3)) < 1e-9
    # swapping the axes swaps the two parameter fields, nothing else
    swapped = _codim2_rows(tmp_path, "M2", "M1")
    default = _codim2_rows(tmp_path, "M1", "M2")
    assert swapped and swapped == [[*row[:2], row[3], row[2], *row[4:]] for row in default]


def test_cli_continue_from_point_at_round_off_floor(tmp_path):
    # a point of the period-3 flip where (T^3)'(y) + 1 cannot get below
    # NEWTON_TOL; the start solve stops once its step no longer moves (y, M2)
    out = tmp_path / "pd3"
    assert run_cli([
        "continue", "--out", str(out),
        "--set", "model.params=4.056987129193277,1.8497855076117726",
        "--set", "continue.kind=PD", "--set", "continue.period=3",
        "--set", "continue.y_guess=1.4461785689880144",
        "--set", "continue.param_guess=1.8497855076117726",
    ]) == 0
    rows = [l for l in (out / "curve.csv").read_text().splitlines()
            if l.startswith("PD,3,")]
    assert len(rows) > 100


def test_cli_rescale_verify(tmp_path):
    out = tmp_path / "rv"
    args = [
        "rescale-verify", "--out", str(out),
        "--set", "rescale.ks=6,8", "--set", "rescale.grid=7",
    ]
    assert run_cli(args) == 0
    text = (out / "rescale.csv").read_text()
    assert "err_two_param" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 3


def test_cli_sequence_plan(tmp_path):
    out = tmp_path / "plan"
    assert run_cli(["sequence-plan", "--out", str(out), "--set", "plan.count=10"]) == 0
    rows = [l for l in (out / "plan.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("j,k,m,n")
    out2 = tmp_path / "plan_sf"
    assert run_cli([
        "sequence-plan", "--out", str(out2),
        "--set", "plan.kind=saddle_focus", "--set", "plan.count=10",
        "--set", "plan.gamma=2.0",
    ]) == 0


def test_cli_sequence_plan_gain_overflow_is_numerical_failure(tmp_path, capsys):
    # With lambda * gamma = 0.8 the gain lam^m * gamma^k still passes a double
    # at the large m of the default 45 entries.
    code = run_cli([
        "sequence-plan", "--out", str(tmp_path / "sf"), "--set", "plan.kind=saddle_focus",
        "--set", "plan.gamma=4", "--set", "plan.lambda=0.2",
    ])
    assert code == 2
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "Traceback" not in message
    assert "overflows" in message


def test_cli_continue_overflow_is_numerical_failure(tmp_path, capsys):
    # The period-2 orbit from Y = 1e80 overflows to inf inside the first
    # orbit pass: was a ValueError traceback.
    code = run_cli([
        "continue", "--out", str(tmp_path / "c"),
        "--set", "continue.period=2", "--set", "continue.y_guess=1e80",
    ])
    assert code == 2
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "Traceback" not in message
    assert "numerical failure" in message and "not finite" in message


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_every_command_exits_0_on_defaults(tmp_path, capsys, command):
    # No config and no --set: the defaults make a working run of each command
    # (continue and codim2 start on the fold of the double parabola through
    # Y = -0.5, M1 = 0, M2 = -0.25).
    assert run_cli([command, "--out", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_continue_overflowing_step_is_halved(tmp_path, capsys):
    # The first step is capped at max_step (0.1), so an overflowing
    # continue.step needs no halving and gives the curve of step 0.1.
    rows = []
    for step in ("1e300", "0.1"):
        out = tmp_path / step
        assert run_cli(["continue", "--out", str(out), "--set", f"continue.step={step}"]) == 0
        assert capsys.readouterr().err == ""
        text = (out / "curve.csv").read_text()
        rows.append([l for l in text.splitlines() if not l.startswith("#")])
    assert len(rows[0]) > 100
    assert rows[0] == rows[1]


@pytest.mark.parametrize(
    "command, setting",
    [
        # was a LinAlgError traceback from the fold seed's cubic
        ("shrimp-predict", "predict.m1=1e308"),
        # were exit 0 with RuntimeWarnings and non-finite rows
        ("rescale-verify", "t1.mu=1e308"),
        ("rescale-verify", "t1.x_plus=1e308"),
        # (T^n)' of the chaotic parabola 2 - Y^2 is about 2^400, so the
        # Newton solve cannot converge (its cube once overflowed a Python
        # float here): exit 2, no traceback
        ("continue", "continue.period=400"),
        # arrays beyond the address space, refused at once: were a MemoryError
        # traceback and exit 1 (a 56.8 PiB sweep window, a 6.94 EiB lattice)
        ("sweep", "sweep.max_period=1000000000000000"),
        ("rescale-verify", "rescale.grid=1000000"),
    ],
)
def test_cli_floating_point_overflow_is_numerical_failure(tmp_path, capsys, command, setting):
    parabola = ["model.family=parabola", "model.params=2", "plane.y_name=dummy",
                "continue.kind=PD", "continue.free_param=0", "continue.y_guess=0.3",
                "continue.param_guess=2"]
    sets = ["rescale.ks=6", "rescale.grid=3", "predict.ks=8", "sweep.nx=2", "sweep.ny=2",
            *parabola, setting]
    code = run_cli([command, "--out", str(tmp_path / "x"), *(a for s in sets for a in ("--set", s))])
    assert code == 2
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and message.startswith("shrimplab: numerical failure: ")


# Cheap settings under every drawn one: each command ends in well under a second.
CHEAP = ["sweep.nx=6", "sweep.ny=6", "sweep.transient=32", "sweep.samples=32",
         "sweep.max_period=4", "rescale.grid=3", "rescale.ks=6", "plan.count=3",
         "predict.ks=8", "continue.max_points=20"]
DRAWN_VALUES = ["nan", "inf", "-inf", "-1", "0", "2", "1e308", "x", "1,2", "0,0;0,0",
                "saddle_focus", "test_cubic", "M3", "dummy", ""]


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    key=st.sampled_from(sorted(set(BENCHMARK_DEFAULTS) | set(_SADDLE_FOCUS_VECTOR_DEFAULTS))),
    value=st.sampled_from(DRAWN_VALUES),
)
def test_cli_exit_code_contract(command, key, value):
    # any one setting: an exit code of the contract, no warning, and stderr
    # empty on success, else one line
    sets = [arg for item in CHEAP + [f"{key}={value}"] for arg in ("--set", item)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--out", out, *sets])
    assert code in (0, 1, 2, 3)
    assert [str(w.message) for w in caught] == []
    message = err.getvalue()
    assert message == "" if code == 0 else message.count("\n") == 1
    # a key that a settings error names is one that exists
    if code == 1:
        assert set(re.findall(r"key '([^']*)'", message)) <= set(BENCHMARK_DEFAULTS)


def test_cli_shrimp_predict(tmp_path):
    out = tmp_path / "pred"
    ystar = -(0.25 ** (1.0 / 3.0))
    m2star = ystar + ystar**4
    assert run_cli([
        "shrimp-predict", "--out", str(out),
        "--set", "predict.ks=8,10", "--set", f"predict.m2={m2star}",
    ]) == 0
    rows = [l for l in (out / "predict.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 3
    assert rows[0].startswith("k,m,mu1_predicted")


def test_perfbench_tracer_finds_every_traced_name():
    """perfbench/spans.py patches the package by attribute name, so a renamed
    or deleted function breaks only the traced benchmark run; install it once
    here to catch that."""
    import shrimplab.cli  # noqa: F401  (install patches what the CLI imports)

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for module, attr, _ in spans.TRACED_FUNCTIONS:
            assert hasattr(getattr(sys.modules[module], attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    assert not hasattr(sys.modules["shrimplab.sweep"].plane_sweep, "__wrapped__")


def test_readme_python_blocks_run():
    """Every python block of README.md runs in a fresh namespace, and the
    quick start's ybar is what its comment says."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        claim = re.search(r"^xbar, ybar = .*#\s*~\s*(.+)$", block, re.M)
        if claim:
            assert abs(namespace["ybar"] - eval(claim.group(1))) <= 1e-9
