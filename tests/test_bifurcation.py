import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shrimplab import bifurcation
from shrimplab.bifurcation import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    PD,
    SN,
    BifCurve,
    BifPoint,
    FamilyYMap,
    PeriodicOrbit,
    _extended_system,
    _solve,
    continue_both_ways,
    continue_codim1,
    curve_to_csv,
    detect_codim2,
    find_periodic_orbit,
    orbit_pass,
    solve_codim1,
)
from shrimplab.errors import ConvergenceError, ShrimplabError

DP = FamilyYMap("double_parabola")
PAR = FamilyYMap("parabola")
CM = FamilyYMap("cubic_minus")
S3 = FamilyYMap("shrimp3")


def test_find_orbit_examples():
    o = find_periodic_orbit(DP, 1, -0.9, (0.0, 0.0))
    assert math.isclose(o.y, -1.0, abs_tol=1e-10)
    assert math.isclose(o.multiplier, 4.0, abs_tol=1e-8)
    o = find_periodic_orbit(DP, 1, 0.1, (0.0, 0.0))
    assert abs(o.y) < 1e-10 and abs(o.multiplier) < 1e-8


def test_find_two_cycle_parabola():
    o = find_periodic_orbit(PAR, 2, 1.05, (1.0,))
    y1 = PAR.value(o.y, (1.0,))
    assert abs(PAR.value(y1, (1.0,)) - o.y) <= 1e-10
    assert abs(y1 - o.y) > 1e-3
    assert abs(o.multiplier - 4.0 * (1.0 - 1.0)) < 1e-8


def test_two_cycle_multiplier_law():
    # multiplier of the parabola 2-cycle is 4(1 - M1)
    for m1 in (0.8, 0.9, 1.1):
        o = find_periodic_orbit(PAR, 2, 1.0, (m1,))
        assert abs(o.multiplier - 4.0 * (1.0 - m1)) < 1e-8


def test_find_orbit_rejects_divisor_period():
    with pytest.raises(ShrimplabError):
        find_periodic_orbit(DP, 2, 0.05, (0.0, 0.0))


@pytest.mark.parametrize("j", [21, 22, 23, 30])
def test_find_orbit_stops_at_working_precision(j):
    # 2 - Y^2 maps Y = -2 cos(t) to -2 cos(2 t), so t = 2 pi j / (2^14 - 1)
    # gives a period-14 orbit with a multiplier near 2^14; round-off keeps
    # its residual above NEWTON_TOL, and Newton stops once its step no
    # longer moves y
    y = -2.0 * math.cos(2.0 * math.pi * j / (2**14 - 1))
    o = find_periodic_orbit(PAR, 14, y + 1e-10, (2.0,))
    assert abs(o.y - y) <= 1e-15
    v, d1 = orbit_pass(PAR, o.y, o.params, 14)[:2]
    assert abs(v - o.y) <= 1e-10 and d1 == o.multiplier


@pytest.mark.parametrize("j", [1024, 2047, 2048, 2050, 2560, 4035, 4094, 4096, 4097, 5120, 6143])
def test_find_orbit_stops_at_its_round_off_bound(j):
    # The period-14 orbit of 2 - Y^2 through -2 cos(2 pi j / (2^14 - 1)) as
    # above, at starts where round-off holds the residual at up to 5.4e-10
    # (the start near the critical point 0 at j = 4096 amplifies it most):
    # the Newton step stays above 1e-15 (1 + |y|), so only a stop at the
    # pass's own round-off bound ends the solve
    y = -2.0 * math.cos(2.0 * math.pi * j / (2**14 - 1))
    o = find_periodic_orbit(PAR, 14, y + 1e-10, (2.0,))
    assert o.period == 14 and abs(o.y - y) <= 1e-13


@pytest.mark.parametrize("period, y0", [(1, 0.0), (2, 0.3), (14, 0.3)])
def test_find_orbit_raises_far_from_any_cycle(period, y0):
    # 2 - Y^2 at M1 = -1 has no real cycle of period 1 or 2, and every orbit
    # escapes: the round-off stop takes no start there for a cycle
    with pytest.raises(ShrimplabError):
        find_periodic_orbit(PAR, period, y0, (-1.0,))


def test_find_orbit_keeps_orbit_passing_near_a_fixed_point():
    # the period-14 orbit of 2 - Y^2 through y = -2 cos(2 pi / (2^14 - 1))
    # passes 1.5e-7 from the repelling fixed point -2, with |T(y) - y| =
    # 4.4e-7; it is known to round-off, so it is not taken for that point
    y = -2.0 * math.cos(2.0 * math.pi / (2**14 - 1))
    assert 1.0e-7 < abs(PAR.value(y, (2.0,)) - y) < 1.0e-6
    o = find_periodic_orbit(PAR, 14, y + 1e-10, (2.0,))
    assert o.period == 14 and abs(o.y - y) <= 4e-15


def test_orbit_reverifies_its_invariants():
    o = find_periodic_orbit(DP, 1, -0.9, (0.1, 0.2))
    v, d1 = orbit_pass(DP, o.y, o.params, o.period)[:2]
    assert abs(v - o.y) <= 1e-10
    assert abs(d1 - o.multiplier) <= 1e-10


def test_codim1_closed_forms():
    sn = solve_codim1(PAR, 1, SN, 0, (-0.4, -0.3), (0.0,))
    assert abs(sn.orbit.y + 0.5) <= 1e-10
    assert abs(sn.orbit.params[0] + 0.25) <= 1e-10
    pd = solve_codim1(PAR, 1, PD, 0, (0.4, 0.8), (0.0,))
    assert abs(pd.orbit.y - 0.5) <= 1e-10
    assert abs(pd.orbit.params[0] - 0.75) <= 1e-10


def test_codim1_cubic_minus_flip():
    # the odd fixed point Y=0 of M1=0 has multiplier M2: flip at M2 = -1
    pd = solve_codim1(CM, 1, PD, 1, (0.0, -0.9), (0.0, -0.9))
    assert abs(pd.orbit.y) < 1e-10
    assert abs(pd.orbit.params[1] + 1.0) < 1e-10


def test_lyapunov_value_examples():
    pd = solve_codim1(PAR, 1, PD, 0, (0.4, 0.8), (0.0,))
    assert math.isclose(pd.test_values["lyapunov_1"], 1.0, abs_tol=1e-8)

    s3 = FamilyYMap("shrimp3")
    pd3 = solve_codim1(s3, 1, PD, 2, (0.0, -1.0), (0.0, 0.0, -1.0))
    assert abs(pd3.test_values["lyapunov_1"]) < 1e-8

    # cubic_plus at (M1, M2) = (0, -1) is -Y + Y^3: a flip at 0 whose first
    # Lyapunov value is 0.25 * 0^2 + 6 / 6
    cubic = FamilyYMap("cubic_plus")
    pdc = solve_codim1(cubic, 1, PD, 1, (0.0, -0.9), (0.0, -0.9))
    assert abs(pdc.orbit.y) < 1e-10 and abs(pdc.orbit.params[1] + 1.0) < 1e-10
    assert abs(pdc.test_values["lyapunov_1"] - 1.0) < 1e-12


def test_orbit_passes_reject_non_finite_params():
    for ymap, params in ((DP, (math.nan, 0.0)), (PAR, (math.inf, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            orbit_pass(ymap, 0.1, params, 2)
        with pytest.raises(ValueError, match="finite"):
            orbit_pass(ymap, 0.1, params, 2, (0, 1))


def test_solvers_reject_non_finite_params_once_per_call():
    # the solvers check params at entry, not in every orbit pass; a NaN that
    # a pass would read still raises, here in a slot outside the plane (0, 1)
    # of shrimp3 (M3) or in the start's plane coordinates
    nan = math.nan
    s3_start = solve_codim1(S3, 1, SN, 1, (0.9, 1.0), (0.9, 0.0, 0.0))
    bracket = BifCurve(SN, 1, (0, 1), points=[(0.7, 0.7), (0.8, 0.8)], y_values=[0.5, 0.5],
                       multipliers=[1.0, 1.0], test_values=[1.0, -1.0])
    calls = [
        lambda: find_periodic_orbit(DP, 1, 0.5, (nan, 0.0)),
        lambda: solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (nan, 0.0)),
        lambda: continue_codim1(DP, BifPoint(SN, PeriodicOrbit(1, 0.5, 1.0, (nan, 0.75))),
                                (0, 1), (0.0, 0.0)),
        lambda: continue_codim1(S3, s3_start, (0, 1), (0.9, 0.0, nan)),
        lambda: detect_codim2(bracket, S3, (0.0, 0.0, nan)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


# Planes per family; index 1 of the parabola is a dummy axis.
PLANES = {
    "parabola": [(0, 1)],
    "cubic_plus": [(0, 1), (1, 0)],
    "cubic_minus": [(0, 1), (1, 0)],
    "double_parabola": [(0, 1), (1, 0)],
    "shrimp3": [(0, 1), (0, 2), (2, 1)],
}


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(sorted(PLANES)),
    plane_pick=st.integers(0, 2),
    period=st.integers(1, 4),
    kind=st.sampled_from([SN, PD]),
    y=st.floats(-1.0, 1.0),
    params=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_bordered_jacobian_matches_central_difference(family, plane_pick, period, kind, y, params):
    ymap = FamilyYMap(family)
    plane = PLANES[family][plane_pick % len(PLANES[family])]
    params = params[: max(ymap.arity, 2)]
    orbit = [y]
    for _ in range(period):
        orbit.append(ymap.value(orbit[-1], params))
    assume(max(abs(v) for v in orbit) < 3.0)  # keep the difference quotients in range
    u = np.array([y, params[plane[0]], params[plane[1]]])
    _, jac, _, _ = _extended_system(ymap, period, kind, u, plane, params)
    jac = np.array(jac)
    diff = np.empty((2, 3))
    for j in range(3):
        h = 1.0e-6 * (1.0 + abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        rp = _extended_system(ymap, period, kind, up, plane, params)[0]
        rm = _extended_system(ymap, period, kind, um, plane, params)[0]
        diff[:, j] = (np.array(rp) - np.array(rm)) / (2.0 * h)
    scale = 1.0 + np.max(np.abs(jac))
    assert np.allclose(jac, diff, rtol=1.0e-6, atol=1.0e-6 * scale)
    if family == "parabola":
        assert jac[0, 2] == 0.0 and jac[1, 2] == 0.0


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_first_tangent_follows_gradient_cross_product(direction):
    # direction=+1 leaves the start along grad r0 x grad r1, the gradients in
    # (Y, M1, M2) of r0 = M2 - (M1 - Y^2)^2 - Y and r1 = 4 (M1 - Y^2) Y - 1
    sn = solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (0.9, 0.0))
    y, m1 = sn.orbit.y, sn.orbit.params[0]
    t = m1 - y * y
    cross = np.cross([4.0 * t * y - 1.0, -2.0 * t, 1.0], [4.0 * t - 8.0 * y * y, 4.0 * y, 0.0])
    curve = continue_codim1(DP, sn, (0, 1), sn.orbit.params, step=0.02, max_points=2,
                            bounds=4.0, direction=direction)
    first = np.array([curve.y_values[1] - curve.y_values[0],
                      *np.subtract(curve.points[1], curve.points[0])])
    assert direction * float(first @ cross) > 0.0


def test_continuation_map_steps_per_point(monkeypatch):
    # one orbit pass per Newton step, and on a period-1 curve the last one
    # also gives the test value: under 4 map steps per point on this fold,
    # where finite-difference Jacobians took 27
    calls = []
    jet = FamilyYMap.jet
    monkeypatch.setattr(FamilyYMap, "jet", lambda self, *a, **k: calls.append(1) or jet(self, *a, **k))
    sn = solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (0.9, 0.0))
    calls.clear()
    curve = continue_codim1(DP, sn, (0, 1), sn.orbit.params, step=0.02, max_points=40, bounds=4.0)
    assert len(curve.points) == 40
    assert len(calls) <= 4 * len(curve.points)


def test_continuation_checks_params_once_per_call(monkeypatch):
    # continue_codim1 checks its start's parameter vector and detect_codim2
    # its params, once each: 2 checks (as measured) for 10 points or 40,
    # where checking in every orbit pass took one per Newton step
    calls = []
    checked = FamilyYMap.checked
    monkeypatch.setattr(FamilyYMap, "checked",
                        lambda self, *a: calls.append(1) or checked(self, *a))
    sn = solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (0.9, 0.0))
    for max_points in (10, 40):
        calls.clear()
        curve = continue_codim1(DP, sn, (0, 1), sn.orbit.params, step=0.02,
                                max_points=max_points, bounds=4.0)
        assert len(curve.points) == max_points
        assert len(calls) == 2


# The seven fold and flip curves of the double parabola continued by the
# benchmark: (period, kind, guess (Y, M2), params (M1, M2)).
DP_CURVES = {
    "sn_pos": (1, SN, (0.9, 1.0), (0.9, 0.0)),
    "sn_neg": (1, SN, (-0.5, -0.25), (0.0, 0.0)),
    "pd_pos": (1, PD, (1.0, 1.06), (0.75, 0.0)),
    "pd_neg": (1, PD, (-0.31, 0.34), (0.9, 0.0)),
    "sn2": (2, SN, (-1.21, 0.377), (1.4, 0.0)),
    "pd3": (3, PD, (0.0631, 0.775), (1.400787401574803, 0.0)),
    "pd4": (4, PD, (-0.0414, 0.521), (1.1692913385826773, 0.0)),
}
DP_CONTINUE = dict(step=0.015, max_step=0.02, max_points=900, bounds=5.0)


@pytest.mark.parametrize("name", ["pd3", "pd4"])
def test_flip_continuation_reaches_bounds_at_round_off_floor(monkeypatch, name):
    # backward along these flips round-off keeps (T^n)'(y) + 1 at 1e-12 to
    # 1e-10, above NEWTON_TOL; a corrector that waited for it failed, halved
    # the step and stopped below min_step in the middle of the plane
    failed = []
    corrector = bifurcation._corrector

    def counted(*args, **kwargs):
        try:
            return corrector(*args, **kwargs)
        except ConvergenceError:
            failed.append(args[3])
            raise

    monkeypatch.setattr(bifurcation, "_corrector", counted)
    period, kind, guess, params = DP_CURVES[name]
    start = solve_codim1(DP, period, kind, 1, guess, params)
    curve = continue_codim1(DP, start, (0, 1), start.orbit.params, direction=-1.0, **DP_CONTINUE)
    assert failed == []
    assert curve.stop_reasons == ("bounds",)
    assert max(map(abs, curve.points[-1])) > 4.9
    # a residual left above NEWTON_TOL is round-off: to first order every
    # point is within 1e-12 (1 + max|u|) of the curve
    for (m1, m2), y in zip(curve.points, curve.y_values):
        u = (y, m1, m2)
        r, jac, _, _ = _extended_system(DP, period, kind, u, (0, 1), (m1, m2))
        for rk, grad in zip(r, jac):
            assert abs(rk) <= 1.0e-12 * math.hypot(*grad) * (1.0 + max(map(abs, u)))


def test_continuations_record_why_they_stopped():
    reasons = set()
    for period, kind, guess, params in DP_CURVES.values():
        start = solve_codim1(DP, period, kind, 1, guess, params)
        curve = continue_both_ways(DP, start, (0, 1), start.orbit.params, **DP_CONTINUE)
        assert len(curve.stop_reasons) == 2
        reasons.update(curve.stop_reasons)
    assert reasons == {"bounds"}
    # the point cap and a step halved below min_step are the other two
    sn = solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (0.9, 0.0))
    assert continue_codim1(DP, sn, (0, 1), sn.orbit.params, max_points=5).stop_reasons == (
        "max_points",)
    stuck = continue_codim1(DP, sn, (0, 1), sn.orbit.params, step=0.5, max_step=0.5,
                            min_step=0.4)
    assert stuck.stop_reasons == ("min_step",) and len(stuck.points) == 1


def test_continuation_parabola_dummy_plane():
    sn = solve_codim1(PAR, 1, SN, 0, (-0.4, -0.3), (0.0, 0.0))
    curve = continue_codim1(PAR, sn, (0, 1), sn.orbit.params, step=0.05, max_points=60, bounds=3.0)
    pts = np.array(curve.points)
    assert len(pts) > 20
    assert np.max(np.abs(pts[:, 0] + 0.25)) < 1e-9  # the fold line M1 = -1/4
    assert curve.codim2_hits == []


def test_continuation_retraceable():
    dp_sn = solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (0.9, 0.0))
    fwd = continue_codim1(DP, dp_sn, (0, 1), dp_sn.orbit.params, step=0.02, max_points=25, bounds=4.0)
    end = fwd.points[-1]
    end_orbit = solve_codim1(DP, 1, SN, 1, (fwd.y_values[-1], end[1]), (end[0], 0.0))
    back = continue_codim1(
        DP, end_orbit, (0, 1), end_orbit.orbit.params, step=0.02, max_points=40,
        bounds=4.0, direction=-1.0,
    )
    start = np.array([dp_sn.orbit.params[0], dp_sn.orbit.params[1]])
    dists = [np.linalg.norm(np.array(p) - start) for p in back.points]
    assert min(dists) < 1e-2


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12),
    zero_col=st.integers(0, 2),
    nan_at=st.integers(0, 8),
)
# a subnormal right-hand side whose exact solution, 2.5e-324, is not a float,
# in a block-diagonal system
@example(entries=[0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 5e-324, 0.0], zero_col=0,
         nan_at=0)
def test_solve_matches_numpy(entries, zero_col, nan_at):
    a = np.array(entries[:9]).reshape(3, 3)
    b = np.array(entries[9:])
    rows = [list(r) for r in a]
    if np.linalg.cond(a) < 1.0e3:
        x = np.array(_solve(rows, list(b), "singular"))
        ref = np.linalg.solve(a, b)
        scale = np.max(np.abs(a)) * np.max(np.abs(x)) + np.max(np.abs(b))
        # below the normal range every operation rounds to a multiple of the
        # smallest subnormal, so the residual has that granularity however
        # small the relative bound becomes; 64 steps bound the few roundings
        # of a pivoted 3x3 elimination with |a| <= 4
        floor = 64.0 * math.ulp(0.0)
        assert np.max(np.abs(a @ x - b)) <= 1.0e-12 * scale + floor
        assert np.max(np.abs(x - ref)) <= 1.0e-12 * (1.0 + np.max(np.abs(ref)))
    # an exact zero pivot and a NaN end in ConvergenceError, never in a
    # ZeroDivisionError
    zeroed = [[0.0 if j == zero_col else v for j, v in enumerate(r)] for r in rows]
    with pytest.raises(ConvergenceError, match="^singular$"):
        _solve(zeroed, list(b), "singular")
    rows[nan_at // 3][nan_at % 3] = math.nan
    with pytest.raises(ConvergenceError, match="^singular$"):
        _solve(rows, list(b), "singular")


def _reference_solve(rows, rhs, singular):
    """Gaussian elimination with partial pivoting as a loop over the pivot
    index, for any n: the reference that _solve's written-out 3x3 case must
    match bit for bit."""
    a = [[*row, b] for row, b in zip(rows, rhs)]
    n = len(a)
    for k in range(n):
        piv = k
        for i in range(k + 1, n):
            if abs(a[i][k]) > abs(a[piv][k]):
                piv = i
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        if not abs(top[k]) > 0.0:
            raise ConvergenceError(singular)
        for row in a[k + 1 :]:
            f = row[k] / top[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * top[j]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        s = a[k][n]
        for j in range(k + 1, n):
            s -= a[k][j] * x[j]
        x[k] = s / a[k][k]
    return x


def _solve_outcome(solve, rows, rhs):
    """The bytes of solve's solution (-0.0 apart from 0.0, NaN bits kept),
    or the message of its ConvergenceError."""
    try:
        return struct.pack(f"<{len(rhs)}d", *solve(rows, rhs, "singular"))
    except ConvergenceError as err:
        return str(err)


# signed zeros, NaN, infinities, subnormals, values near 1e300 and the
# overflow threshold, and small integers, whose magnitudes tie often
SPECIAL_ENTRIES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, math.nan, -math.nan, math.inf,
                   -math.inf, 5e-324, -5e-324, 2.0**-1050, 1e300, -1e300, 1.5e308]


@settings(max_examples=400, deadline=None)
@given(
    entries=st.lists(st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(-4.0, 4.0),
                               st.floats(allow_nan=True, allow_infinity=True)),
                     min_size=12, max_size=12),
    ties=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans()), max_size=3),
)
# opposite-sign ties in both pivot columns, and a -0.0 pivot in a
# block-diagonal system
@example(entries=[1.0, 2.0, 0.5, -1.0, 1.0, 3.0, 1.0, -3.0, 1.0, 1.0, 2.0, 3.0], ties=[])
@example(entries=[-0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, -0.0], ties=[])
def test_solve_matches_reference_bitwise(entries, ties):
    # each tie copies row 0's magnitude in column `col` to another row, with
    # either sign: the pivot must be the first row of strictly largest |a|
    rows = [entries[i * 3 : i * 3 + 3] for i in range(3)]
    for col, row, flip in ties:
        rows[1 + row % 2][col] = -rows[0][col] if flip else rows[0][col]
    rhs = entries[9:]
    assert _solve_outcome(_solve, rows, rhs) == _solve_outcome(_reference_solve, rows, rhs)


def test_continuation_bytes_match_reference_solve(monkeypatch, tmp_path):
    # the seven curves of the benchmark continued both ways, written as
    # shipped and with the loop elimination: the same files and hits
    runs = {}
    for name in ("shipped", "reference"):
        if name == "reference":
            monkeypatch.setattr(bifurcation, "_solve", _reference_solve)
        runs[name] = []
        for curve_name, (period, kind, guess, params) in DP_CURVES.items():
            start = solve_codim1(DP, period, kind, 1, guess, params)
            curve = continue_both_ways(DP, start, (0, 1), start.orbit.params, **DP_CONTINUE)
            path = tmp_path / f"{name}_{curve_name}.csv"
            curve_to_csv(curve, path, ("M1", "M2"))
            runs[name].append((path.read_bytes(), curve.stop_reasons, curve.dropped_brackets,
                               curve.codim2_hits))
    assert runs["shipped"] == runs["reference"]
    assert sum(len(run[3]) for run in runs["shipped"]) > 0


def _reference_solve_codim1(ymap, period, kind, free_index, guess, params):
    """solve_codim1 for valid arguments as its own Newton loop on (y, p),
    with a 2x2 loop elimination: the reference that the corrector with its
    third unknown pinned must match bit for bit."""
    y, p = float(guess[0]), float(guess[1])
    params = [float(q) for q in params]
    params[free_index] = p
    target = 1.0 if kind == SN else -1.0
    for _ in range(NEWTON_MAX_ITER):
        # orbit_pass wants two parameters; the free one twice gives its column
        v, d1, d2, _, (vp, _), (dp, _) = orbit_pass(
            ymap, y, params, period, (free_index, free_index))
        r = (v - y, d1 - target)
        if abs(r[0]) <= NEWTON_TOL and abs(r[1]) <= NEWTON_TOL:
            break
        step = _reference_solve(((d1 - 1.0, vp), (d2, dp)), r, "singular bordered system")
        if max(map(abs, step)) <= 1.0e-15 * (1.0 + max(abs(y), abs(p))):
            break
        y, p = y - step[0], p - step[1]
        params[free_index] = p
        if not (math.isfinite(y) and math.isfinite(p)):
            raise ConvergenceError("codim-1 Newton diverged")
    else:
        raise ConvergenceError(f"codim-1 Newton did not converge in {NEWTON_MAX_ITER} steps")
    point = bifurcation._bif_point(ymap, kind, period, y, params)
    bifurcation._reject_divisor_period(ymap, y, params, period, "codim-1 solution")
    return point


def _codim1_outcome(solve, *args):
    """The bits of the BifPoint solve returns (y, params, multiplier and both
    test values), or "error" for a ShrimplabError."""
    try:
        point = solve(*args)
    except ShrimplabError:
        return "error"
    orbit, tests = point.orbit, point.test_values
    values = (orbit.y, *orbit.params, orbit.multiplier, *(tests[k] for k in sorted(tests)))
    return point.kind, orbit.period, struct.pack(f"<{len(values)}d", *values)


# solve_codim1 starts: the benchmark's curves of the double parabola, the
# same starts on shrimp3 slices, and the parabola's fold in a dummy plane,
# as (ymap, period, kind, free_index, guess, params)
CODIM1_STARTS = [
    *((DP, period, kind, 1, guess, params) for period, kind, guess, params in DP_CURVES.values()),
    *((S3, period, kind, 1, guess, (*params, m3)) for period, kind, guess, params
      in DP_CURVES.values() for m3 in (-1.2, 0.5, 1.0001)),
    (PAR, 1, SN, 0, (-0.4, -0.3), (0.0, 0.0)),
]


@settings(max_examples=200, deadline=None)
@given(
    start=st.sampled_from(CODIM1_STARTS),
    jitter=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
)
@example(start=CODIM1_STARTS[0], jitter=(0.0, 0.0))
def test_solve_codim1_matches_reference_bitwise(start, jitter):
    ymap, period, kind, free_index, guess, params = start
    args = (ymap, period, kind, free_index, (guess[0] + jitter[0], guess[1] + jitter[1]), params)
    assert _codim1_outcome(solve_codim1, *args) == _codim1_outcome(_reference_solve_codim1, *args)


def test_overflowing_regula_falsi_trial_fails_its_refinement():
    # test values near the overflow threshold make the regula falsi trial
    # inf/inf: the refinement fails as any other does, and the bracket is
    # counted as dropped, never reported as a bad parameter
    curve = BifCurve(SN, 1, (0, 1), points=[(2.0, 2.0), (2.5, 2.5)], y_values=[0.5, 0.6],
                     multipliers=[1.0, 1.0], test_values=[1.7e308, -1.7e308])
    assert detect_codim2(curve, DP, (0.0, 0.0)) == []
    assert curve.dropped_brackets == 1


def _numpy_corrector(ymap, period, kind, u, plane, params, tangent, anchor, ds, tol=NEWTON_TOL):
    """The corrector on numpy 3-vectors and numpy.linalg.solve: the reference
    for the one on Python floats."""
    u, tangent, anchor = np.array(u, dtype=float), np.array(tangent), np.array(anchor)
    for _ in range(25):
        r, jac, mult, test = _extended_system(ymap, period, kind, u, plane, params)
        arc = float(tangent @ (u - anchor)) - ds
        full = np.array([r[0], r[1], arc])
        if np.max(np.abs(full)) <= tol:
            return u, jac, mult, test
        try:
            step = np.linalg.solve(np.array([*jac, tangent]), full)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("continuation corrector singular") from err
        if np.max(np.abs(step)) <= 1.0e-15 * (1.0 + np.max(np.abs(u))):
            return u, jac, mult, test  # the step no longer moves u
        u = u - step
        if not np.all(np.isfinite(u)):
            raise ConvergenceError("continuation corrector diverged")
    raise ConvergenceError("continuation corrector did not converge")


# sn_pos is the fold through the cusp at (0.75, 0.75); backward along pd3 the
# flip residual has a round-off floor above NEWTON_TOL
@pytest.mark.parametrize("curve", ["sn_pos", "pd_pos", "pd3"])
def test_corrector_matches_numpy_reference(monkeypatch, curve):
    period, kind, guess, params = DP_CURVES[curve]
    start = solve_codim1(DP, period, kind, 1, guess, params)
    curves = {}
    for name in ("floats", "numpy"):
        if name == "numpy":
            monkeypatch.setattr(bifurcation, "_corrector", _numpy_corrector)
        curves[name] = [continue_codim1(DP, start, (0, 1), start.orbit.params, direction=d,
                                        **DP_CONTINUE) for d in (1.0, -1.0)]
    for got, ref in zip(curves["floats"], curves["numpy"]):
        assert len(got.points) == len(ref.points) > 100
        for field in ("points", "y_values", "multipliers", "test_values"):
            a, b = np.array(getattr(got, field)), np.array(getattr(ref, field))
            assert np.all(np.abs(a - b) <= 1.0e-12 * (1.0 + np.abs(b))), field
        assert len(got.codim2_hits) == len(ref.codim2_hits)
    cusps = [h.orbit.params for c in curves["floats"] for h in c.codim2_hits]
    assert len(cusps) == (1 if kind == SN else 0)
    for m1, m2 in cusps:
        assert abs(m1 - 0.75) <= 1e-12 and abs(m2 - 0.75) <= 1e-12


def test_dp_cusp_detection():
    dp_sn = solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (0.9, 0.0))
    curve = continue_codim1(DP, dp_sn, (0, 1), dp_sn.orbit.params, step=0.02, max_points=200, bounds=4.0)
    cusps = [h for h in curve.codim2_hits if h.kind == "cusp"]
    assert len(cusps) == 1
    assert abs(cusps[0].orbit.params[0] - 0.75) < 1e-7
    assert abs(cusps[0].orbit.params[1] - 0.75) < 1e-7
    assert abs(cusps[0].orbit.y - 0.5) < 1e-7
    assert abs(cusps[0].test_values["second_derivative"]) < 1e-6


def _shrimp3_codim2_closed_form(kind, m3):
    """The codim-2 points (Y, M1, M2) of M2 - (M1 - Y^2)^2 + M3 Y at m3 on its
    fixed-point fold (SN) or flip (PD), in closed form."""
    if kind == SN:
        # the cusp: Y^3 = (1 - M3) / 8, M1 = 3 Y^2
        c = (1.0 - m3) / 8.0
        y = math.copysign(abs(c) ** (1.0 / 3.0), c)
        points = [(y, 3.0 * y * y)]
    else:
        # the degenerate flips: (M1 - 3 Y^2)^2 = Y, M3 = -1 - 4 Y (M1 - Y^2),
        # Y >= 0; with M1 = 3 Y^2 + sign sqrt(Y) and w = Y^(3/2) >= 0 they read
        # 8 w^2 + 4 sign w + 1 + M3 = 0 (m3 <= -1/2 here, so w is real)
        points = []
        root = math.sqrt(16.0 - 32.0 * (1.0 + m3))
        for sign in (1.0, -1.0):
            for w in ((-4.0 * sign + root) / 16.0, (-4.0 * sign - root) / 16.0):
                if w >= 0.0:
                    s = w ** (1.0 / 3.0)
                    points.append((s * s, 3.0 * s**4 + sign * s))
    return [(y, m1, y + (m1 - y * y) ** 2 - m3 * y) for y, m1 in points]


def _distance(orbit, point):
    return max(abs(a - b) for a, b in zip((orbit.y, *orbit.params[:2]), point))


# A slice of the codim-2 census of shrimp3 through its codim-3 points at
# M3 = +1 (cusp) and -1 (degenerate flip): the fold cusp for 0 <= M3 < 1
# and at 1 +- 1e-4, where it crowds the origin, and the two degenerate flips
# of each slice below -1 from both flip starts and above it from pd_pos
@pytest.mark.parametrize("start, m3", [
    ("sn_pos", 0.0), ("sn_pos", 0.5), ("sn_pos", 0.95),
    ("sn_neg", 1.0 - 1e-4), ("sn_neg", 1.0 + 1e-4),
    ("pd_pos", -1.2), ("pd_pos", -1.05), ("pd_pos", -0.95),
    # one continuation step jumps the sharp corner at the near-origin flip
    # of these slices, and only the re-continuation in fine steps finds it
    ("pd_pos", -1.0001), ("pd_pos", -0.9999),
    ("pd_neg", -1.2), ("pd_neg", -1.05),
])
def test_shrimp3_codim2_points_match_closed_form(start, m3):
    # each closed-form point is found once, within 1e-10, from a double
    # parabola start with M3 appended
    period, kind, guess, params = DP_CURVES[start]
    bif = solve_codim1(S3, period, kind, 1, guess, (*params, m3))
    curve = continue_both_ways(S3, bif, (0, 1), bif.orbit.params)
    points = _shrimp3_codim2_closed_form(kind, m3)
    hits = [h.orbit for h in curve.codim2_hits]
    assert len(hits) == len(points)
    for point in points:
        assert min(_distance(hit, point) for hit in hits) <= 1e-10
    assert all(hit.params[2] == m3 for hit in hits)


def test_unrefined_bracket_is_counted(monkeypatch):
    # the near-origin flip of pd_pos at M3 = -1.0001 needs about 36 fine
    # steps; with 8 its bracket stays unrefined, and the curve says so
    bif = solve_codim1(S3, 1, PD, 1, (1.0, 1.06), (0.75, 0.0, -1.0001))
    curve = continue_both_ways(S3, bif, (0, 1), bif.orbit.params)
    assert (len(curve.codim2_hits), curve.dropped_brackets) == (2, 0)
    monkeypatch.setattr(bifurcation, "_FINE_STEPS", 8)
    curve = continue_both_ways(S3, bif, (0, 1), bif.orbit.params)
    assert (len(curve.codim2_hits), curve.dropped_brackets) == (1, 1)


def test_codim2_point_at_the_start_is_reported_once():
    # a zero of the test value at a curve point is a hit, and the start of a
    # two-way continuation is a point of both halves.  The double parabola's
    # cusp (Y, M1, M2) = (0.5, 0.75, 0.75) solves in exact arithmetic, with a
    # second derivative of exactly 0
    sn = solve_codim1(DP, 1, SN, 1, (0.5, 0.75), (0.75, 0.0))
    assert sn.test_values["second_derivative"] == 0.0
    curve = continue_both_ways(DP, sn, (0, 1), sn.orbit.params)
    assert [h.orbit for h in curve.codim2_hits] == [sn.orbit]
    # shrimp3's flip at M3 = -1.0001 solved at its closed-form degenerate
    # flip near Y = 0.63 has a first Lyapunov value of exactly 0
    point = _shrimp3_codim2_closed_form(PD, -1.0001)[1]
    pd = solve_codim1(S3, 1, PD, 1, (point[0], point[2]), (point[1], 0.0, -1.0001))
    # continuation also passes the near-origin flip of the slice, the
    # other hit
    curve = continue_both_ways(S3, pd, (0, 1), pd.orbit.params)
    assert len(curve.codim2_hits) == 2
    assert _distance(curve.codim2_hits[0].orbit, point) <= 1e-10
    near = _shrimp3_codim2_closed_form(PD, -1.0001)[0]
    assert _distance(curve.codim2_hits[1].orbit, near) <= 1e-10


def test_cubic_minus_pitchfork_cusp():
    sn = solve_codim1(CM, 1, SN, 1, (0.3, 1.2), (0.05, 1.0))
    curve = continue_codim1(
        CM, sn, (0, 1), sn.orbit.params, step=0.02, max_points=150, bounds=4.0,
        direction=1.0,
    )
    cusps = [h for h in curve.codim2_hits if h.kind == "cusp"]
    assert any(abs(h.orbit.params[0]) < 1e-7 and abs(h.orbit.params[1] - 1.0) < 1e-7 for h in cusps)


def test_cubic_minus_degenerate_flips():
    # On the flip curve M2 - 3 Y^2 = -1 of M1 + M2 Y - Y^3 the first Lyapunov
    # value is 9 Y^2 - 1: zero at Y = +-1/3, M2 = -2/3, M1 = +-16/27.
    pd = solve_codim1(CM, 1, PD, 1, (0.0, -0.9), (0.0, -0.9))
    curve = continue_both_ways(CM, pd, (0, 1), pd.orbit.params, step=0.02, max_points=200,
                               bounds=3.0)
    hits = sorted(curve.codim2_hits, key=lambda h: h.orbit.y)
    assert [h.kind for h in hits] == ["degenerate_flip"] * 2
    for hit, sign in zip(hits, (-1.0, 1.0)):
        m1, m2 = hit.orbit.params
        assert abs(m1 - sign * 16.0 / 27.0) <= 1e-13
        assert abs(m2 + 2.0 / 3.0) <= 1e-13
        assert abs(hit.orbit.y - sign / 3.0) <= 1e-13
        assert abs(hit.test_values["lyapunov_1"]) <= 1e-12


def test_orbit_pass_plane_leaves_y_derivatives_unchanged():
    for ymap, params, plane in ((DP, (0.3, 0.2), (0, 1)), (CM, (0.1, -0.8), (1, 0))):
        for order in (2, 3):
            with_plane = orbit_pass(ymap, 0.4, params, 3, plane, order)
            assert with_plane[:4] == orbit_pass(ymap, 0.4, params, 3, order=order)[:4]
        second = orbit_pass(ymap, 0.4, params, 3, plane)
        third = orbit_pass(ymap, 0.4, params, 3, plane, 3)
        assert second[3] is None and third[3] is not None
        assert second[:3] + second[4:] == third[:3] + third[4:]


def test_overflowing_orbit_derivatives_raise_convergence_error():
    # (T^n)' of the chaotic parabola 2 - Y^2 grows like 2^n: at n = 400
    # Newton cannot converge, and the cube in the third derivative passes the
    # float range
    with pytest.raises(ConvergenceError):
        find_periodic_orbit(PAR, 400, 0.3, (2.0,))
    with pytest.raises(ConvergenceError):
        solve_codim1(PAR, 400, PD, 0, (0.3, 2.0), (2.0,))
    with pytest.raises(ConvergenceError, match="overflowed"):
        orbit_pass(PAR, 0.3, (2.0,), 400, order=3)


def test_shrimp3_codim3_flip_endpoint():
    # (0, 0, -1): fixed point 0, multiplier exactly -1, and the second iterate
    # has exactly zero second and third derivatives there
    p = (0.0, 0.0, -1.0)
    assert S3.jet(0.0, p, 1)[:2] == (0.0, -1.0)
    assert orbit_pass(S3, 0.0, p, 2, order=3)[:4] == (0.0, 1.0, 0.0, 0.0)


def test_shrimp3_codim3_fold_endpoint():
    # (0, 0, 1): the map Y - Y^4, multiplier exactly +1 and no quadratic or
    # cubic term
    p = (0.0, 0.0, 1.0)
    assert S3.jet(0.0, p, 1)[:2] == (0.0, 1.0)
    assert orbit_pass(S3, 0.0, p, 1, order=3)[:4] == (0.0, 1.0, 0.0, 0.0)


def test_curve_csv_columns(tmp_path):
    sn = solve_codim1(DP, 1, SN, 1, (0.9, 1.0), (0.9, 0.0))
    curve = continue_codim1(DP, sn, (0, 1), sn.orbit.params, step=0.05, max_points=20, bounds=4.0)
    path = tmp_path / "curve.csv"
    curve_to_csv(curve, path, ("M1", "M2"), header_lines=["demo = 1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo = 1"
    assert lines[1] == "kind,period,M1,M2,Y,multiplier,test_value"
    assert len(lines) == 2 + len(curve.points)
