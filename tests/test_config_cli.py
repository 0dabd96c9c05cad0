import os

import pytest

from shrimplab.cli import main
from shrimplab.config import (
    build_local,
    build_model,
    build_return_config,
    build_sweep_spec,
    load_config,
    parse_config_text,
)
from shrimplab.errors import ConfigError


def test_parse_basics():
    cfg = parse_config_text("local.lambda = 0.5\n# comment\n\nt1.b = 2  # inline\n")
    assert cfg == {"local.lambda": "0.5", "t1.b": "2"}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config_text("local.lambda = 0.5\nbroken line\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_config_text("nodot = 3\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config_text("local.lambda =   # nothing\n")
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


def test_cli_refuses_overwrite(tmp_path):
    out = tmp_path / "run"
    assert run_cli(sweep_args(out)) == 0
    assert run_cli(sweep_args(out)) == 3
    assert run_cli(sweep_args(out, ("--force",))) == 0


def test_cli_identical_bytes_across_workers_and_runs(tmp_path):
    outs = []
    for name, workers in (("a", "1"), ("b", "2"), ("c", "4")):
        out = tmp_path / name
        assert run_cli(sweep_args(out, ("--workers", workers))) == 0
        outs.append(out)
    blobs = [(o / "grid.csv").read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    pgms = [(o / "grid.pgm").read_bytes() for o in outs]
    assert pgms[0] == pgms[1] == pgms[2]


def test_cli_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SHRIMPLAB_WORKERS", "2")
    out = tmp_path / "env"
    assert run_cli(sweep_args(out)) == 0


def test_cli_rejects_bad_worker_counts(tmp_path, monkeypatch, capsys):
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv("SHRIMPLAB_WORKERS", value)
        assert run_cli(sweep_args(tmp_path / f"env{value}")) == 1
        message = capsys.readouterr().err
        assert message.count("\n") == 1 and "SHRIMPLAB_WORKERS" in message
    monkeypatch.delenv("SHRIMPLAB_WORKERS")
    for value in ("abc", "0"):
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
