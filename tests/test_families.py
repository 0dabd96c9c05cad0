import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrimplab.bifurcation import FamilyYMap, orbit_pass
from shrimplab.errors import EscapeError
from shrimplab.families import FAMILIES as FAMILY_TABLE, ModelMap, trap_radius

FAMILIES = list(FAMILY_TABLE)
DP = FamilyYMap("double_parabola")
S3 = FamilyYMap("shrimp3")
PAR = FamilyYMap("parabola")


def random_params(rng, family):
    return tuple(rng.uniform(-1.5, 1.5, FAMILY_TABLE[family].arity))


def test_eval_examples():
    assert DP.value(-1.0, (0.0, 0.0)) == -1.0
    for y in (-1.3, -0.2, 0.0, 0.4, 1.7):
        assert S3.value(y, (0.0, 0.0, 1.0)) == y - y**4
    assert PAR.value(0.0, (0.0,)) == 0.0


def test_arity_and_validation():
    with pytest.raises(ValueError):
        ModelMap("parabola", (0.0, 1.0))
    with pytest.raises(ValueError):
        ModelMap("shrimp3", (0.0, 1.0))
    with pytest.raises(ValueError):
        ModelMap("nope", (0.0,))
    with pytest.raises(ValueError):
        ModelMap("parabola", (float("nan"),))
    with pytest.raises(EscapeError):
        PAR.value(float("inf"), (0.0,))


def test_jet_examples():
    assert DP.jet(-1.0, (0.0, 0.0), 1)[1] == 4.0
    assert S3.jet(0.0, (0.0, 0.0, -1.0), 3)[1:] == (-1.0, 0.0, 0.0)
    assert PAR.jet(0.0, (0.7,), 2)[1] == 0.0


def test_iterate_examples():
    assert orbit_pass(DP, 0.0, (0.0, 0.0), 5)[:2] == (0.0, 0.0)
    assert orbit_pass(PAR, -0.5, (-0.25,), 1)[:2] == (-0.5, 1.0)
    assert orbit_pass(FamilyYMap("cubic_minus"), 0.0, (0.0, 0.5), 3)[:2] == (0.0, 0.125)


def test_iterate_escape():
    # the orbit of 2.1 - Y^2 from 0 overflows to -inf, and the next step raises
    with pytest.raises(EscapeError):
        orbit_pass(PAR, 0.0, (2.1,), 60)


def test_jets_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1.0e-6
    for family in FAMILIES:
        ymap = FamilyYMap(family)
        for _ in range(100):
            p = random_params(rng, family)
            y = rng.uniform(-1.2, 1.2)
            d_fd = (ymap.value(y + h, p) - ymap.value(y - h, p)) / (2 * h)
            d1 = ymap.jet(y, p, 1)[1]
            assert abs(d1 - d_fd) <= 1.0e-6 * max(1.0, abs(d1))


@settings(max_examples=200, deadline=None)
@given(
    m1=st.floats(-2, 2, allow_nan=False),
    m2=st.floats(-2, 2, allow_nan=False),
    y=st.floats(-3, 3, allow_nan=False),
)
def test_shrimp3_degenerates_to_double_parabola(m1, m2, y):
    assert S3.value(y, (m1, m2, 0.0)) == DP.value(y, (m1, m2))


def test_shrimp3_double_parabola_dense_sampling():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m1, m2 = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2.5, 2.5)
        assert S3.value(y, (m1, m2, 0.0)) == DP.value(y, (m1, m2))


@settings(max_examples=200, deadline=None)
@given(
    m2=st.floats(-2, 2, allow_nan=False),
    y=st.floats(-3, 3, allow_nan=False),
)
def test_cubic_minus_odd_at_m1_zero(m2, y):
    cm = FamilyYMap("cubic_minus")
    assert cm.value(-y, (0.0, m2)) == -cm.value(y, (0.0, m2))


def test_multiplier_matches_composition_derivative():
    rng = np.random.default_rng(11)
    h = 1.0e-7
    for family in FAMILIES:
        ymap = FamilyYMap(family)
        checked = 0
        while checked < 40:
            p = random_params(rng, family)
            y0 = rng.uniform(-0.9, 0.9)
            n = int(rng.integers(1, 6))
            _, prod = orbit_pass(ymap, y0, p, n)[:2]
            yp = orbit_pass(ymap, y0 + h, p, n)[0]
            ym = orbit_pass(ymap, y0 - h, p, n)[0]
            if abs(prod) < 1.0e-3 or abs(prod) > 1.0e3:
                continue
            fd = (yp - ym) / (2 * h)
            assert abs(fd - prod) <= 1.0e-5 * abs(prod)
            checked += 1


def _coefficients(ymap, params):
    """Coefficients [c0, ..., c4] in Y, read off the jet at 0 as jet[i] / i!."""
    return [d / math.factorial(i) for i, d in enumerate(ymap.jet(0.0, params, 4))]


def test_poly_coefficients_exact():
    assert _coefficients(S3, (0.0, 0.0, -1.0)) == [0.0, -1.0, 0.0, 0.0, -1.0]
    params = (0.5, 0.25)
    coeffs = _coefficients(DP, params)
    rng = np.random.default_rng(1)
    for y in rng.uniform(-2, 2, 20):
        assert math.isclose(
            sum(c * y**i for i, c in enumerate(coeffs)), DP.value(y, params),
            rel_tol=1e-14, abs_tol=1e-14,
        )


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("family", FAMILIES)
def test_step_matches_value_and_slope_bitwise(family):
    """The in-place step gives value and slope bit for bit, NaN, +-inf and +-0
    included, and writes nothing but y and dy."""
    formulas = FAMILY_TABLE[family]
    rng = np.random.default_rng(3)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1.0e200])
    n = 600
    y0 = rng.uniform(-2.0, 2.0, n)
    y0[: special.size * 8] = np.repeat(special, 8)
    array_params = [rng.uniform(-1.5, 1.5, n) for _ in range(formulas.arity)]
    for p in array_params:
        p[: special.size * 8] = np.tile(special, 8)
    float_params = [-0.0, 0.7, 0.3][: formulas.arity]
    with np.errstate(over="ignore", invalid="ignore"):
        for params in (array_params, float_params):
            p_bits = [_bits(np.asarray(v)).copy() for v in params]
            want_y = formulas.value(params, y0)
            want_dy = formulas.slope(params, y0)
            y = y0.copy()
            formulas.step(params, y)
            assert np.array_equal(_bits(y), _bits(want_y))
            y = y0.copy()
            dy = np.full(n, np.nan)  # step never reads dy
            formulas.step(params, y, dy)
            assert np.array_equal(_bits(y), _bits(want_y))
            assert np.array_equal(_bits(dy), _bits(want_dy))
            # a view into a larger buffer: nothing outside it is written
            buf = np.full(n + 2, 5.0)
            buf[1:-1] = y0
            formulas.step(params, buf[1:-1])
            assert buf[0] == buf[-1] == 5.0
            assert np.array_equal(_bits(buf[1:-1]), _bits(want_y))
            # the parameters are never written
            assert all(np.array_equal(_bits(np.asarray(v)), b) for v, b in zip(params, p_bits))


@pytest.mark.parametrize("family", FAMILIES)
def test_trap_radius_is_absorbing(family):
    """From |y| >= R* (trap_radius) one step never lowers |y|, so an orbit
    outside R*, or outside any larger radius, stays there; +-inf and NaN go
    to +-inf or NaN.  Parameters up to 1e3 in size, zeros included."""
    formulas = FAMILY_TABLE[family]
    rng = np.random.default_rng(11)
    n = 3000
    params = [rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-4.0, 3.0, n)
              for _ in range(formulas.arity)]
    for p in params:
        p[rng.integers(0, n, 100)] = 0.0
    R = trap_radius(formulas, params)
    assert np.all(np.isfinite(R)) and np.all(R >= 1.0)
    eps = np.finfo(float).eps
    starts = [R * (1.0 + k * eps) for k in (0, 1, 2, 3, 64)]
    starts += [np.full(n, 1.0e150), np.full(n, np.inf)]
    with np.errstate(over="ignore", invalid="ignore"):
        for y in [sign * y for sign in (1.0, -1.0) for y in starts] + [np.full(n, np.nan)]:
            fy = formulas.value(params, y)
            assert np.all(np.isnan(fy) | (np.abs(fy) >= np.abs(y)))
            assert np.all(np.isnan(fy) | (np.abs(fy) >= R))


def test_trap_radius_of_known_polynomials():
    # M2 - (M1 - y^2)^2 = (M2 - M1^2) + 2 M1 y^2 - y^4: R* = 2 (1 + |M2 - M1^2| + 2 |M1|)
    dp = FAMILY_TABLE["double_parabola"]
    assert trap_radius(dp, (3.0, -5.0)) == 2.0 * (1.0 + 14.0 + 6.0)
    assert trap_radius(FAMILY_TABLE["parabola"], (0.0,)) == 2.0
    # scalar parameters broadcast against array ones
    assert trap_radius(dp, (np.array([0.0, 1.0]), 0.0)).tolist() == [2.0, 8.0]
