import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrimplab.errors import ConvergenceError, EscapeError
from shrimplab.local import (
    _NEWTON_PASSES,
    SINGULAR,
    SOLVED,
    UNCONVERGED,
    LocalNormalForm,
    cross_form_points,
    cross_form_solve,
    expansion_gain,
    in_ratio_window,
    iterate_points,
    local_apply,
    local_iterate,
    theta_modulus,
)


def saddle(lam=0.4, gamma=2.0, **kw):
    return LocalNormalForm(kind="saddle", lam=lam, gamma=gamma, **kw)


def test_theta_examples():
    assert math.isclose(theta_modulus(saddle(0.4, 2.0)), math.log(2.5) / math.log(2.0))
    assert math.isclose(theta_modulus(saddle(0.25, 2.0)), 2.0)
    with pytest.raises(ValueError):
        saddle(0.5, 2.0)  # lam*|gamma| = 1 violates strong dissipativity


def test_construction_validation():
    with pytest.raises(ValueError):
        saddle(1.2, 2.0)
    with pytest.raises(ValueError):
        saddle(0.4, 0.9)
    with pytest.raises(ValueError):
        LocalNormalForm(kind="saddle_focus", lam=0.4, gamma=2.0, phi=0.0)
    with pytest.raises(ValueError):
        LocalNormalForm(
            kind="saddle_focus", lam=0.4, gamma=2.0, phi=1.0, nonlinearity="test_cubic"
        )
    saddle(0.4, 2.0, nonlinearity="test_cubic")  # accepted for the saddle form


def test_gain_examples():
    loc = saddle(0.4, 2.0)
    assert math.isclose(expansion_gain(loc, 3, 2), 1.28)
    gains = [expansion_gain(loc, j, j) for j in range(1, 12)]
    assert all(math.isclose(g, 0.8**j) for j, g in zip(range(1, 12), gains))
    assert all(b < a for a, b in zip(gains, gains[1:]))
    assert math.isclose(expansion_gain(loc, 20, 10), 0.4**10 * 2**20, rel_tol=1e-12)
    assert expansion_gain(loc, 20, 10) > 100.0


def test_ratio_window_examples():
    assert in_ratio_window(7, 7, 1.32, 0.1)
    assert not in_ratio_window(14, 7, 1.32, 0.1)
    assert not in_ratio_window(3, 4, 1.32, 0.01)
    with pytest.raises(ValueError):
        in_ratio_window(5, 5, 1.32, 0.0)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(5, 120), m=st.integers(5, 120))
def test_window_gain_decay_law(k, m):
    # Sampling margin consistent with the decay proof: both ratio bounds at
    # theta - delta.  Inside it the gain always beats |gamma|^(-delta*min).
    loc = saddle(0.4, 2.0)
    theta = theta_modulus(loc)
    delta = 0.1
    r = m / k
    if not (1.0 / (theta - delta) < r < theta - delta):
        return
    assert in_ratio_window(k, m, theta, delta)
    assert expansion_gain(loc, k, m) <= abs(loc.gamma) ** (-delta * min(k, m)) * (1 + 1e-12)


def test_local_iterate_examples():
    loc = saddle(0.4, 2.0)
    x, y = local_iterate(loc, 1.0, 1.0, 3)
    assert math.isclose(x, 0.064) and math.isclose(y, 8.0)
    sf = LocalNormalForm(kind="saddle_focus", lam=0.4, gamma=2.0, phi=math.pi / 2)
    xv, yv = local_iterate(sf, np.array([1.0, 0.0]), 0.0, 2)
    assert np.allclose(xv, [-0.16, 0.0], atol=1e-15)
    x, y = local_iterate(loc, 0.37, -0.9, 0)
    assert x == 0.37 and y == -0.9


def test_local_iterate_escape():
    loc = saddle(0.4, 2.0)
    with pytest.raises(EscapeError):
        local_iterate(loc, 1.0, 10.0, 40)


def test_sign_lambda():
    loc = saddle(0.4, 2.0, sign_lambda=-1)
    x, y = local_iterate(loc, 1.0, 0.0, 3)
    assert math.isclose(x, -0.064)


def test_cross_form_linear_examples():
    loc = saddle(0.4, 2.0)
    xk, y0 = cross_form_solve(loc, 1.0, 1.0, 4)
    assert math.isclose(xk, 0.0256) and math.isclose(y0, 0.0625)
    xk, y0 = cross_form_solve(loc, 0.0, 0.77, 6)
    assert xk == 0.0


def _forward_shoot_y0(loc, x0, yk, k):
    """Independent oracle: bisection on y0 matching the y value after k steps."""

    def y_after(y0):
        x, y = x0, y0
        for _ in range(k):
            x, y = local_apply(loc, x, y)
        return y

    lo, hi = 0.0, yk / loc.gamma**k * 4 + 0.1
    flo = y_after(lo) - yk
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = y_after(mid) - yk
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cross_form_test_cubic_against_shooting_oracle():
    loc = saddle(0.4, 2.0, nonlinearity="test_cubic")
    k = 10
    xk, y0 = cross_form_solve(loc, 0.5, 0.5, k, tol=1e-14)
    y0_oracle = _forward_shoot_y0(loc, 0.5, 0.5, k)
    assert abs(y0 - y0_oracle) < 1e-10
    # forward-iterate the solution and confirm the boundary data; the y
    # mismatch amplifies per-step residuals by gamma^k
    x, y = 0.5, y0
    for _ in range(k):
        x, y = local_apply(loc, x, y)
    assert abs(y - 0.5) < 1e-14 * 2.0**k * 10
    assert abs(x - xk) < 1e-12
    assert abs(xk - 0.4**k * 0.5) <= 2.0 * 0.45**k


def test_cross_form_decay_envelope():
    # Deviations from the linear solution stay under fitted C * lam_hat^k and
    # C * gamma_hat^-k envelopes, with the envelope fitted on small k only.
    # Forward-iterating each returned y0 meets the given y at time k to
    # within a few rounding errors.
    loc = saddle(0.4, 2.0, nonlinearity="test_cubic")
    rng = np.random.default_rng(5)
    lam_hat, gamma_hat = 0.45, 2.05
    dev_x, dev_y = {}, {}
    for k in range(5, 31):
        # the draws of 100 one-point solves (x0, yk, x0, yk, ...), solved at once
        x0, yk = rng.uniform(-1, 1, (100, 2)).T
        xk, y0, status = cross_form_points(loc, x0, yk, k)
        assert (status == SOLVED).all()
        _, y_k, _ = iterate_points(loc, x0, y0, k, escape_radius=math.inf)
        assert np.all(np.abs(y_k - yk) <= 1e-14 * (1.0 + np.abs(yk)))
        dev_x[k] = np.max(np.abs(xk - 0.4**k * x0))
        dev_y[k] = np.max(np.abs(y0 - yk / 2.0**k))
    cx = max(dev_x[k] / lam_hat**k for k in range(5, 11))
    cy = max(dev_y[k] / gamma_hat**-k for k in range(5, 11))
    for k in range(11, 31):
        assert dev_x[k] <= cx * lam_hat**k * 1.0001
        assert dev_y[k] <= cy * gamma_hat**-k * 1.0001


def test_cross_form_non_contraction_reported():
    # At k = 1 the y equation 2*y0 - 2*y0^2 = 2 has no real root, so the
    # Newton passes never settle.
    loc = saddle(0.4, 2.0, nonlinearity="test_cubic")
    with pytest.raises(ConvergenceError):
        cross_form_solve(loc, -2.0, 2.0, 1)
    # 2*y0 + 5*y0^2 = 40 has one, far from the linear guess y0 = 20
    _, y0 = cross_form_solve(loc, 5.0, 40.0, 1)
    assert math.isclose(y0, (math.sqrt(804.0) - 2.0) / 10.0, rel_tol=1e-14)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _newton_shoot(local, x0, yk, k, tol=1.0e-12):
    """Reference: Newton shooting on y0 for one point, written out with
    Python floats.  Returns (xk, y0) or the status of the failure."""
    lam_s = local.sign_lambda * local.lam
    gam = local.gamma
    y0, moved = yk / gam**k, math.inf
    for _ in range(_NEWTON_PASSES):
        x, y, m01, m11 = x0, y0, 0.0, 1.0
        for _ in range(k):
            xy2 = 2.0 * x * y
            m01, m11 = (lam_s + xy2) * m01 + x * x * m11, y * y * m01 + (gam + xy2) * m11
            x, y = lam_s * x + x * x * y, gam * y + x * y * y
        if m11 == 0.0 or not math.isfinite(m11):
            return SINGULAR
        if abs(moved) <= tol * (1.0 + abs(y0)):
            return x, y0
        moved = (y - yk) / m11
        y0 = y0 - moved
    return UNCONVERGED


def test_cross_form_points_match_one_point_solves():
    # Every point of the array core takes exactly the Newton passes of the
    # one-point loop: same bits when solved, same failure otherwise.  The
    # last two points at k=1 have dy_k/dy0 = 0 at the linear guess
    # (singular) and no real root (unconverged).
    loc = saddle(0.4, 2.0, nonlinearity="test_cubic")
    rng = np.random.default_rng(11)
    seen = set()
    for k in (1, 3, 6, 12):
        x0 = np.append(rng.uniform(-3.0, 3.0, 40), [-1.0, -2.0])
        yk = np.append(rng.uniform(-40.0, 40.0, 40), [2.0, 2.0])
        xk, y0, status = cross_form_points(loc, x0, yk, k)
        for i in range(x0.size):
            ref = _newton_shoot(loc, float(x0[i]), float(yk[i]), k)
            try:
                one = cross_form_solve(loc, x0[i], yk[i], k)
            except ConvergenceError as err:
                one = SINGULAR if "singular" in str(err) else UNCONVERGED
            if isinstance(ref, tuple):
                assert status[i] == SOLVED
                assert _bits((xk[i], y0[i])) == _bits(ref) == _bits(one)
            else:
                assert status[i] == ref == one
            seen.add(int(status[i]))
        if k == 1:
            assert list(status[-2:]) == [SINGULAR, UNCONVERGED]
    assert seen == {SOLVED, SINGULAR, UNCONVERGED}


def test_iterate_points_match_one_point_steps():
    loc = saddle(0.4, 2.0, nonlinearity="test_cubic")
    rng = np.random.default_rng(12)
    x = rng.uniform(-2.0, 2.0, 80)
    y = rng.uniform(-3.0, 3.0, 80)
    escapes = 0
    for n in (1, 5, 14):
        xn, yn, step = iterate_points(loc, x, y, n, escape_radius=50.0)
        for i in range(x.size):
            xc, yc, ref_step = float(x[i]), float(y[i]), 0
            for s in range(1, n + 1):
                xc, yc = 0.4 * xc + xc * xc * yc, 2.0 * yc + xc * yc * yc
                if max(abs(xc), abs(yc)) > 50.0:
                    ref_step = s
                    break
            assert step[i] == ref_step
            assert _bits((xn[i], yn[i])) == _bits((xc, yc))
            if ref_step:
                escapes += 1
                with pytest.raises(EscapeError) as err:
                    local_iterate(loc, x[i], y[i], n, escape_radius=50.0)
                assert err.value.step == ref_step
            else:
                assert _bits(local_iterate(loc, x[i], y[i], n, escape_radius=50.0)) == _bits((xc, yc))
    assert escapes > 0


def test_saddle_focus_stage_maps_act_per_point():
    # A stack of saddle-focus points gets each point's own a @ x bits.
    sf = LocalNormalForm(kind="saddle_focus", lam=0.4, gamma=2.0, phi=0.3)
    pts = np.random.default_rng(13).normal(size=(50, 2)) * 1.0e3
    for n in (3, 10):
        lead = sf.leading_power(n)
        xk, _, status = cross_form_points(sf, pts, np.ones(50), n)
        xn, _, _ = iterate_points(sf, pts, np.ones(50), n)
        ref = np.array([lead @ p for p in pts])
        assert _bits(xk) == _bits(xn) == _bits(ref)
        assert np.all(status == SOLVED)
