import math

import pytest

from shrimplab.sequences import (
    modulus_endpoint_gains,
    plan_modulus_sequence,
    plan_rotation_sequence,
    rotation_endpoint_coefficients,
)


def test_modulus_interval_example():
    # theta0 = ln2.5/ln2, gamma = 2, m = 50, k = round(66.096) = 66, s = 10:
    # half width ln10/(50 ln2) = 0.066439, endpoints 66/50 -+ half
    theta0 = math.log(2.5) / math.log(2.0)
    plan = plan_modulus_sequence(theta0, 2.0, [10.0], m_values=[50])
    (e,) = plan.entries
    assert e.k == 66
    half = math.log(10.0) / (50.0 * math.log(2.0))
    assert math.isclose(half, 0.066439, rel_tol=1e-4)
    assert math.isclose(min(66 / 50 - half, theta0), e.lo, rel_tol=1e-12)
    assert math.isclose(max(66 / 50 + half, theta0), e.hi, rel_tol=1e-12)


def test_modulus_endpoint_gains_are_s_pair():
    plan = plan_modulus_sequence(1.25, 2.0, [float(j) for j in range(2, 30)])
    for e in plan.entries:
        g1, g2 = modulus_endpoint_gains(e, 2.0)
        pair = sorted((g1, g2))
        assert math.isclose(pair[0], 1.0 / e.s, rel_tol=1e-10)
        assert math.isclose(pair[1], e.s, rel_tol=1e-10)


def test_modulus_diameter_shrinks():
    s = [float(j) for j in range(1, 46)]
    plan = plan_modulus_sequence(1.25, 128.0, s)
    diams = {e.j: e.diam for e in plan.entries}
    assert diams[40] < 1e-3
    for j in range(5, 45):
        if j in diams and j + 1 in diams:
            assert diams[j + 1] <= diams[j] * 1.0001
    ks = [e.k for e in plan.entries]
    ms = [e.m for e in plan.entries]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(b > a for a, b in zip(ms, ms[1:]))


def test_modulus_s_log_over_m_limit():
    # with s_j = j and m_j = j^2 the half width ln j / j^2 -> 0
    plan = plan_modulus_sequence(1.25, 2.0, [float(j) for j in range(2, 60)])
    halves = [math.log(e.s) / (e.m * math.log(2.0)) for e in plan.entries]
    assert halves[-1] < halves[0]
    assert halves[-1] < 2e-3


def test_modulus_skips_infeasible():
    plan = plan_modulus_sequence(1.25, 2.0, [0.5, 10.0], m_values=[4, 4])
    assert len(plan.entries) == 1
    assert plan.skipped and plan.skipped[0][0] == 1


def test_modulus_validation():
    with pytest.raises(ValueError):
        plan_modulus_sequence(0.9, 2.0, [2.0])
    for gamma in (1.0, -1.0, 0.5, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            plan_modulus_sequence(1.25, gamma, [2.0])


def test_rotation_argument_zero_symmetry():
    # if the arccos argument were 0 the two endpoints coincide at pi/2 offset:
    # width (pi - 2 acos(a))/m -> 0 as a -> 0
    plan = plan_rotation_sequence(1.0, 0.4, 2.0, [1.0], m_values=[20], growth=1e6)
    (e,) = plan.entries
    _, _, arg = rotation_endpoint_coefficients(e, 0.4, 2.0)
    width = (math.pi - 2.0 * math.acos(arg)) / e.m
    assert arg < 1e-5
    assert width < 1e-5 / 2


def test_rotation_example_m20_k40():
    # C=1, lam=0.4, gamma=2, m=20, k=40, s=10: argument well below 1 and the
    # back-substituted coefficient returns s exactly
    gain = 1.0 * 0.4**20 * 2.0**40
    arg = 10.0 / gain
    assert arg < 1.0
    plan = plan_rotation_sequence(
        1.0, 0.4, 2.0, [10.0], m_values=[20], growth=1.0 / arg / 10.0
    )
    (e,) = plan.entries
    assert e.m == 20
    c1, c2, a = rotation_endpoint_coefficients(e, 0.4, 2.0)
    assert a <= 1.0
    assert math.isclose(c1, e.s, rel_tol=1e-8)
    assert math.isclose(c2, -e.s, rel_tol=1e-8)


def test_rotation_plan_defaults():
    phi0 = 1.0
    plan = plan_rotation_sequence(phi0, 0.4, 2.0, [float(j) for j in range(1, 30)])
    assert len(plan.entries) >= 25
    for e in plan.entries:
        c1, c2, arg = rotation_endpoint_coefficients(e, 0.4, 2.0)
        assert 0.0 <= arg <= 1.0
        assert math.isclose(c1, e.s, rel_tol=1e-8)
        assert math.isclose(c2, -e.s, rel_tol=1e-8)
        assert e.lo <= phi0 <= e.hi
    diams = [e.diam for e in plan.entries]
    assert diams[-1] < diams[0]
    assert diams[-1] < 0.05
    ks = [e.k for e in plan.entries]
    ms = [e.m for e in plan.entries]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(b > a for a, b in zip(ms, ms[1:]))
    # winding fraction approaches phi0 / 2pi
    last = plan.entries[-1]
    assert abs(last.n / last.m - phi0 / (2 * math.pi)) < 0.02


def test_rotation_validation():
    with pytest.raises(ValueError):
        plan_rotation_sequence(3.5, 0.4, 2.0, [2.0])
    for gamma in (1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="gamma"):
            plan_rotation_sequence(1.0, 0.4, gamma, [2.0])
    # lam * |gamma| must lie in (0, 1)
    for lam, gamma in ((0.4, 128.0), (0.5, 2.0), (0.5, -2.0), (0.0, 2.0), (-0.4, 2.0)):
        with pytest.raises(ValueError, match="dissipative"):
            plan_rotation_sequence(1.0, lam, gamma, [2.0])
    plan = plan_rotation_sequence(1.0, 0.4, 2.0, [-1.0])
    assert plan.skipped
