"""The double-round return map in original coordinates, stage by stage.

compose_stages / first_return below are an independent reference for the
package's one composition, rescale._stages: they run the stages one point at
a time through the one-point local and excursion maps, in the ordering of
the configuration, without cross form or charts.
"""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from shrimplab.errors import EscapeError
from shrimplab.global_map import GlobalMapTaylor, apply_global, focus_global, saddle_global
from shrimplab.local import SADDLE_FOCUS, LocalNormalForm, cross_form_solve, local_iterate
from shrimplab.rescale import rescale_frame, rescaled_return
from shrimplab.returnmap import ReturnMapConfig

ESCAPE_RADIUS = 1.0e6


def _stages(cfg: ReturnMapConfig):
    if cfg.k >= cfg.m:
        return (
            ("local^k", cfg.k, None),
            ("T1", None, cfg.t1),
            ("local^m", cfg.m, None),
            ("T2", None, cfg.t2),
        )
    return (
        ("local^m", cfg.m, None),
        ("T2", None, cfg.t2),
        ("local^k", cfg.k, None),
        ("T1", None, cfg.t1),
    )


def compose_stages(cfg: ReturnMapConfig, x, y, escape_radius=ESCAPE_RADIUS):
    """Run all four stages, returning the point after each one."""
    points = []
    xc, yc = x, y
    for index, (label, n, g) in enumerate(_stages(cfg)):
        try:
            if g is None:
                xc, yc = local_iterate(cfg.local, xc, yc, n, escape_radius)
            else:
                xc, yc = apply_global(g, xc, yc)
        except EscapeError as err:
            raise EscapeError(f"{err} (stage {index}:{label})") from err
        mag = float(np.max(np.abs(np.atleast_1d(xc)))) if cfg.local.kind == SADDLE_FOCUS else abs(xc)
        if not np.isfinite(yc) or max(mag, abs(yc)) > escape_radius:
            raise EscapeError(f"return-map orbit left the escape radius (stage {index}:{label})")
        points.append((xc, yc))
    return points


def first_return(cfg: ReturnMapConfig, x, y, escape_radius=ESCAPE_RADIUS):
    """One application of the double-round return map in original coordinates."""
    return compose_stages(cfg, x, y, escape_radius)[-1]


def benchmark_local(**kw):
    return LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, **kw)


def benchmark_cfg(k, m, **g):
    return ReturnMapConfig(benchmark_local(), saddle_global(**g), saddle_global(**g), k, m)


def test_global_map_validation():
    with pytest.raises(ValueError):
        saddle_global(d=0.0)
    with pytest.raises(ValueError):
        saddle_global(b=0.0)
    with pytest.raises(ValueError):
        saddle_global(c=0.0)


def test_apply_global_scalar():
    g = saddle_global(x_plus=1.0, y_minus=1.0, a=0.5, b=2.0, c=3.0, d=4.0, mu=0.1)
    xb, yb = apply_global(g, 0.2, 1.5)
    assert math.isclose(xb, 1.0 + 0.5 * 0.2 + 2.0 * 0.5)
    assert math.isclose(yb, 0.1 + 3.0 * 0.2 + 4.0 * 0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        benchmark_cfg(0, 3)
    with pytest.raises(ValueError):
        benchmark_cfg(3, 0)


def test_stage_oracle_k6_m6():
    # Independent stage-by-stage arithmetic for the benchmark coefficients,
    # mu = (2^-6, 2^-6), start (1, 2^-6).
    cfg = benchmark_cfg(6, 6, mu=2.0**-6)
    stages = compose_stages(cfg, 1.0, 2.0**-6)

    x11 = 0.4**6 * 1.0
    y11 = 2.0**6 * 2.0**-6
    assert np.allclose(stages[0], (x11, y11), rtol=0, atol=1e-15)

    x01 = 1.0 + (y11 - 1.0)
    y01 = 2.0**-6 + x11 + (y11 - 1.0) ** 2
    assert np.allclose(stages[1], (x01, y01), rtol=0, atol=1e-15)

    x12 = 0.4**6 * x01
    y12 = 2.0**6 * y01
    assert np.allclose(stages[2], (x12, y12), rtol=0, atol=1e-12)

    xb = 1.0 + (y12 - 1.0)
    yb = 2.0**-6 + x12 + (y12 - 1.0) ** 2
    assert np.allclose(stages[3], (xb, yb), rtol=0, atol=1e-12)

    # frozen values of the hand evaluation
    assert math.isclose(stages[3][0], 1.262144, rel_tol=1e-12)
    assert math.isclose(stages[3][1], 0.088440476736, rel_tol=1e-9)


def test_invariant_manifold_bookkeeping():
    # c = a = 0, mu1 tuned so the second excursion lands exactly on the fold
    # tip, mu2 = 0: points on the stable axis return to the stable axis.
    local = benchmark_local()
    mu1 = 2.0**-4 * 1.0 - 1.0  # gamma^-m * y2_minus - d1 * y1_minus^2
    t1 = GlobalMapTaylor(x_plus=1.0, y_minus=1.0, a=0.0, b=1.0, c=1e-150, d=1.0, mu=mu1)
    t2 = GlobalMapTaylor(x_plus=1.0, y_minus=1.0, a=0.0, b=1.0, c=1e-150, d=1.0, mu=0.0)
    cfg = ReturnMapConfig(local, t1, t2, 5, 4)
    for x in (0.3, -0.8, 1.0):
        xb, yb = first_return(cfg, x, 0.0)
        assert abs(yb) < 1e-290
        assert math.isclose(xb, 1.0)


def test_ordering_k_lt_m_composition():
    local = benchmark_local()
    t1 = saddle_global(mu=0.01)
    t2 = saddle_global(mu=0.02)
    cfg = ReturnMapConfig(local, t1, t2, 3, 7)
    x, y = 0.9, 2.0**-7
    # manual mirror composition: local^m, T2, local^k, T1
    xm, ym = 0.4**7 * x, 2.0**7 * y
    xm, ym = apply_global(t2, xm, ym)
    xm, ym = 0.4**3 * xm, 2.0**3 * ym
    xm, ym = apply_global(t1, xm, ym)
    xb, yb = first_return(cfg, x, y)
    assert math.isclose(xb, xm, rel_tol=1e-13)
    assert math.isclose(yb, ym, rel_tol=1e-13)


def test_escape_reports_stage():
    cfg = benchmark_cfg(8, 8)
    with pytest.raises(EscapeError) as err:
        first_return(cfg, 1.0, 500.0)
    assert re.search(r"\(stage \d:(local\^[mk]|T[12])\)$", str(err.value))


def test_focus_config_dimension_check():
    local = LocalNormalForm(kind="saddle_focus", lam=0.4, gamma=2.0, phi=0.3)
    g2 = focus_global(
        x_plus=[1.0, 0.5], y_minus=1.0, a=np.zeros((2, 2)), b=[1.0, 0.5],
        c=[1.0, -0.5], d=1.0,
    )
    with pytest.raises(ValueError):
        ReturnMapConfig(local, saddle_global(), g2, 4, 4)
    cfg = ReturnMapConfig(local, g2, g2, 4, 4)
    xb, yb = first_return(cfg, np.array([1.0, 0.5]), 2.0**-4)
    assert np.all(np.isfinite(xb)) and np.isfinite(yb)


def _focus_global(**kw):
    base = dict(x_plus=[1.0, 0.5], y_minus=1.0, a=[[0.1, 0.2], [0.0, -0.1]], b=[1.0, 0.5],
                c=[1.0, -0.5], d=1.0)
    return focus_global(**{**base, **kw})


ORACLE_CONFIGS = {
    "saddle": ReturnMapConfig(
        benchmark_local(sign_lambda=-1), saddle_global(a=0.4, d=1.3, b=1.2),
        saddle_global(a=-0.3, c=0.7, d=0.9), 9, 7,
    ),
    "saddle-focus": ReturnMapConfig(
        LocalNormalForm(kind="saddle_focus", lam=0.4, gamma=2.0, phi=0.3),
        _focus_global(), _focus_global(c=[0.8, 0.4], d=1.2), 10, 8,
    ),
    "test-cubic": ReturnMapConfig(
        benchmark_local(nonlinearity="test_cubic"), saddle_global(a=0.3),
        saddle_global(a=0.3), 10, 9,
    ),
    "mirror": ReturnMapConfig(
        benchmark_local(), saddle_global(a=0.2, b=1.5, d=1.2),
        saddle_global(b=0.9, c=1.1, d=0.8), 6, 9,
    ),
}


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_rescaled_return_matches_first_return(name):
    # The package's composition, in cross form between the frame's charts,
    # against the stage-by-stage map in original coordinates: start at x02
    # and the cross form's y at time 0, take one first return, run the next
    # k local steps, and chart back (X from the return, Y k steps later).
    cfg = ORACLE_CONFIGS[name]
    oc = cfg if cfg.k >= cfg.m else cfg.swapped()
    frame = rescale_frame(cfg)
    focus = cfg.local.kind == SADDLE_FOCUS
    rng = np.random.default_rng(8)
    for _ in range(6):
        X = rng.uniform(-1.0, 1.0, 2) if focus else rng.uniform(-1.0, 1.0)
        Y = rng.uniform(-1.2, 1.2)
        M = rng.uniform(-1.0, 1.0, 2)
        xbar, ybar = rescaled_return(frame, X, Y, M=M)

        mu1, mu2 = frame.mus_for(*M)
        first, second = (mu1, mu2) if cfg.k >= cfg.m else (mu2, mu1)
        run = replace(cfg, t1=replace(cfg.t1, mu=first), t2=replace(cfg.t2, mu=second))
        x02, y11 = frame.chart_x(X), frame.chart_y(Y)
        # The reference shoots forward from y02, which multiplies its error by
        # gamma^(k+m) before the chart divides by beta2: solve it to 1e-15.
        _, y02 = cross_form_solve(oc.local, x02, y11, oc.k, tol=1.0e-15)
        xb02, yb02 = first_return(run, x02, y02)
        _, yb11 = local_iterate(oc.local, xb02, yb02, oc.k)
        assert np.allclose(frame.chart_x_inv(xb02), xbar, rtol=0, atol=1e-8)
        assert math.isclose(frame.chart_y_inv(yb11), ybar, rel_tol=0, abs_tol=1e-8)
