import math

import numpy as np
import pytest

from shrimplab.errors import EscapeError
from shrimplab.global_map import GlobalMapTaylor, apply_global, focus_global, saddle_global
from shrimplab.local import LocalNormalForm
from shrimplab.returnmap import K_GE_M, K_LT_M, ReturnMapConfig, compose_stages, first_return


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
    with pytest.raises(ValueError):
        ReturnMapConfig(
            benchmark_local(), saddle_global(), saddle_global(), 3, 5, ordering=K_GE_M
        )
    assert benchmark_cfg(5, 3).ordering == K_GE_M
    assert ReturnMapConfig(
        benchmark_local(), saddle_global(), saddle_global(), 3, 5
    ).ordering == K_LT_M


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
    assert cfg.ordering == K_LT_M
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
    assert err.value.stage is not None


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
