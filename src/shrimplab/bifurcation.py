"""Periodic orbits, fold/flip points, and codimension-2 detection for 1D maps.

Everything here works on a scalar map exposing value-plus-jet evaluation at a
parameter vector; the polynomial families provide exact jets and composed
return maps provide finite-difference jets through an adapter.  Orbit jets
(derivatives of the n-fold composition) are propagated with the chain rule up
to third order, which is what the first Lyapunov value needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericalError
from .families import FAMILY_ARITY, ModelMap, eval_jet, eval_map
from .gridio import write_table

SN = "SN"
PD = "PD"
CUSP = "cusp"
DEGENERATE_FLIP = "degenerate_flip"

NEWTON_TOL = 1.0e-12
NEWTON_MAX_ITER = 50


class FamilyYMap:
    """Scalar-map view of a polynomial family: params are the family params.

    Extra trailing parameters are ignored, so a one-parameter family can be
    continued in a plane with a dummy second axis.
    """

    def __init__(self, family: str):
        self.family = family
        self.arity = FAMILY_ARITY[family]

    def _model(self, params):
        return ModelMap(self.family, tuple(params)[: self.arity])

    def value(self, y, params):
        return eval_map(self._model(params), y)

    def jet(self, y, params, order=3):
        j = eval_jet(self._model(params), y, order)
        return (j.value,) + j.derivs


class CallableYMap:
    """Scalar-map view of an arbitrary y -> f(y; params) callable.

    Jets come from central finite differences, good enough for the smooth
    composed return maps this is used with.
    """

    def __init__(self, fn, h=1.0e-5):
        self.fn = fn
        self.h = h

    def value(self, y, params):
        return float(self.fn(y, params))

    def jet(self, y, params, order=3):
        f = lambda t: float(self.fn(t, params))
        h = self.h
        v = f(y)
        d1 = (f(y + h) - f(y - h)) / (2 * h)
        out = [v, d1]
        if order >= 2:
            out.append((f(y + h) - 2 * v + f(y - h)) / (h * h))
        if order >= 3:
            out.append((f(y + 2 * h) - 2 * f(y + h) + 2 * f(y - h) - f(y - 2 * h)) / (2 * h**3))
        return tuple(out)


def orbit_jet(ymap, y, params, period, order=3):
    """Value and derivatives (to ``order``) of the period-fold composition."""
    v = y
    d1, d2, d3 = 1.0, 0.0, 0.0
    for _ in range(period):
        jet = ymap.jet(v, params, order)
        fv = jet[0]
        f1 = jet[1]
        f2 = jet[2] if order >= 2 else 0.0
        f3 = jet[3] if order >= 3 else 0.0
        nd1 = f1 * d1
        nd2 = f2 * d1 * d1 + f1 * d2
        nd3 = f3 * d1**3 + 3.0 * f2 * d1 * d2 + f1 * d3
        v, d1, d2, d3 = fv, nd1, nd2, nd3
    return (v, d1, d2, d3)[: order + 1]


def _first_lyapunov(d2, d3):
    """First Lyapunov value at a flip of g from its 2nd and 3rd derivatives."""
    return 0.25 * d2 * d2 + d3 / 6.0


def _reject_divisor_period(ymap, y, params, period, tol, what):
    """Raise NumericalError when y recurs at a proper divisor of period."""
    for div in range(1, period):
        if period % div == 0:
            vd, _ = orbit_jet(ymap, y, params, div, order=1)
            if abs(vd - y) <= tol:
                raise NumericalError(f"{what} has period {div}, not minimal period {period}")


@dataclass(frozen=True)
class PeriodicOrbit:
    period: int
    y: float
    multiplier: float
    params: tuple


@dataclass(frozen=True)
class BifPoint:
    kind: str
    orbit: PeriodicOrbit
    test_values: dict = field(default_factory=dict)


def _bif_point(ymap, kind, period, y, params) -> BifPoint:
    """The point y of a period-cycle at params, with its fixed-point residual
    and both codim-2 test values (second orbit derivative, first Lyapunov)."""
    v, d1, d2, d3 = orbit_jet(ymap, y, params, period, order=3)
    orbit = PeriodicOrbit(period, float(y), float(d1), tuple(params))
    tests = {"fixed_point": abs(v - y), "second_derivative": d2,
             "lyapunov_1": _first_lyapunov(d2, d3)}
    return BifPoint(kind=kind, orbit=orbit, test_values=tests)


@dataclass
class BifCurve:
    kind: str
    period: int
    plane: tuple
    points: list = field(default_factory=list)
    y_values: list = field(default_factory=list)
    multipliers: list = field(default_factory=list)
    test_values: list = field(default_factory=list)
    codim2_hits: list = field(default_factory=list)


def find_periodic_orbit(
    ymap,
    period: int,
    y_guess: float,
    params,
    tol: float = 1.0e-12,
    max_iter: int = NEWTON_MAX_ITER,
    distinct_tol: float = 1.0e-6,
) -> PeriodicOrbit:
    """Newton solve of T^n(y) = y; rejects orbits of a proper divisor period."""
    if period < 1:
        raise ValueError("period must be >= 1")
    params = tuple(float(p) for p in params)
    y = float(y_guess)
    for _ in range(max_iter):
        v, d1 = orbit_jet(ymap, y, params, period, order=1)
        f = v - y
        if abs(f) <= tol:
            break
        fp = d1 - 1.0
        if fp == 0.0:
            raise NumericalError("singular Newton step: multiplier exactly 1 off-root")
        y = y - f / fp
        if not math.isfinite(y):
            raise ConvergenceError("orbit Newton diverged")
    else:
        raise ConvergenceError(f"orbit Newton did not converge in {max_iter} steps")
    _reject_divisor_period(ymap, y, params, period, distinct_tol, "solution")
    v, mult = orbit_jet(ymap, y, params, period, order=1)
    if abs(v - y) > 1.0e-10:
        raise ConvergenceError("orbit residual above verification tolerance")
    return PeriodicOrbit(period=period, y=float(y), multiplier=float(mult), params=params)


def _codim1_system(ymap, period, kind, y, params):
    v, d1 = orbit_jet(ymap, y, params, period, order=1)[:2]
    target = 1.0 if kind == SN else -1.0
    return np.array([v - y, d1 - target])


def solve_codim1(
    ymap,
    period: int,
    kind: str,
    free_index: int,
    guess,
    params,
    tol: float = 1.0e-12,
    max_iter: int = NEWTON_MAX_ITER,
) -> BifPoint:
    """Solve {T^n(y) - y = 0, (T^n)'(y) -+ 1 = 0} in (y, params[free_index])."""
    if kind not in (SN, PD):
        raise ValueError("kind must be SN or PD")
    y, p = float(guess[0]), float(guess[1])
    params = list(float(q) for q in params)
    for _ in range(max_iter):
        params[free_index] = p
        r = _codim1_system(ymap, period, kind, y, params)
        if np.max(np.abs(r)) <= tol:
            break
        jac = np.empty((2, 2))
        v, d1, d2 = orbit_jet(ymap, y, params, period, order=2)
        jac[0, 0] = d1 - 1.0
        jac[1, 0] = d2
        hp = 1.0e-7 * (1.0 + abs(p))
        pp, pm = list(params), list(params)
        pp[free_index] += hp
        pm[free_index] -= hp
        rp = _codim1_system(ymap, period, kind, y, pp)
        rm = _codim1_system(ymap, period, kind, y, pm)
        jac[:, 1] = (rp - rm) / (2.0 * hp)
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("singular bordered system") from err
        y, p = y - step[0], p - step[1]
        if not (math.isfinite(y) and math.isfinite(p)):
            raise ConvergenceError("codim-1 Newton diverged")
    else:
        raise ConvergenceError(f"codim-1 Newton did not converge in {max_iter} steps")
    params[free_index] = p
    _reject_divisor_period(ymap, y, params, period, 1.0e-6, "codim-1 solution")
    point = _bif_point(ymap, kind, period, y, params)
    offset = point.orbit.multiplier - (1.0 if kind == SN else -1.0)
    point.test_values["multiplier_offset"] = abs(offset)
    return point


def lyapunov_value_1(ymap, pd_point: BifPoint) -> float:
    """First Lyapunov value at a flip: (1/4) g''^2 + (1/6) g''' for g = T^n.

    Positive means the flip is supercritical (a stable double-period orbit
    branches off).
    """
    orbit = pd_point.orbit
    if abs(orbit.multiplier + 1.0) > 1.0e-6:
        raise NumericalError("first Lyapunov value needs a multiplier at -1")
    _, _, d2, d3 = orbit_jet(ymap, orbit.y, orbit.params, orbit.period, order=3)
    return float(_first_lyapunov(d2, d3))


def _extended_residual(ymap, period, kind, u, plane, params):
    p = list(params)
    p[plane[0]], p[plane[1]] = u[1], u[2]
    return _codim1_system(ymap, period, kind, u[0], p), p


def _extended_jacobian(ymap, period, kind, u, plane, params):
    jac = np.empty((2, 3))
    for j in range(3):
        h = 1.0e-7 * (1.0 + abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        rp, _ = _extended_residual(ymap, period, kind, up, plane, params)
        rm, _ = _extended_residual(ymap, period, kind, um, plane, params)
        jac[:, j] = (rp - rm) / (2.0 * h)
    return jac


def _corrector(ymap, period, kind, u, plane, params, tangent, anchor, ds, tol=NEWTON_TOL):
    u = u.copy()
    for _ in range(25):
        r, _ = _extended_residual(ymap, period, kind, u, plane, params)
        arc = float(tangent @ (u - anchor)) - ds
        full = np.array([r[0], r[1], arc])
        if np.max(np.abs(full)) <= tol:
            return u
        jac = np.vstack([_extended_jacobian(ymap, period, kind, u, plane, params), tangent])
        try:
            u = u - np.linalg.solve(jac, full)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("continuation corrector singular") from err
        if not np.all(np.isfinite(u)):
            raise ConvergenceError("continuation corrector diverged")
    raise ConvergenceError("continuation corrector did not converge")


def _tangent(ymap, period, kind, u, plane, params, prev=None):
    jac = _extended_jacobian(ymap, period, kind, u, plane, params)
    _, _, vt = np.linalg.svd(jac)
    t = vt[-1]
    if prev is not None and float(prev @ t) < 0.0:
        t = -t
    return t / np.linalg.norm(t)


def _canonical_rep(ymap, y, params, period):
    """Smallest point of the cycle: a representative that varies continuously
    along a continuation arc (two points of one cycle cannot cross without
    colliding), so test functions evaluated here cannot flip sign just
    because Newton converged to the other cycle point."""
    best = y
    v = y
    for _ in range(period - 1):
        v = ymap.value(v, params)
        if v < best:
            best = v
    return best


def _test_value(ymap, period, kind, y, params):
    rep = _canonical_rep(ymap, y, params, period)
    _, _, d2, d3 = orbit_jet(ymap, rep, params, period, order=3)
    if kind == SN:
        return d2
    return _first_lyapunov(d2, d3)


def _record_point(curve, ymap, u, plane, params):
    """Append the curve point u = (y, p_i, p_j) with its multiplier and test value."""
    period, kind = curve.period, curve.kind
    _, pfull = _extended_residual(ymap, period, kind, u, plane, params)
    curve.points.append((u[1], u[2]))
    curve.y_values.append(u[0])
    curve.multipliers.append(orbit_jet(ymap, u[0], pfull, period, order=1)[1])
    curve.test_values.append(_test_value(ymap, period, kind, u[0], pfull))


def continue_codim1(
    ymap,
    start: BifPoint,
    plane,
    params,
    step: float = 1.0e-2,
    max_points: int = 400,
    min_step: float = 1.0e-6,
    max_step: float = 1.0e-1,
    bounds: float = 10.0,
    direction: float = 1.0,
) -> BifCurve:
    """Pseudo-arclength continuation of a fold/flip curve in two parameters.

    The defining system stays two equations in (y, p_i, p_j); the third
    equation is the arclength anchor.  Codimension-2 test values (fold:
    second orbit derivative; flip: first Lyapunov value) are recorded per
    point and their sign changes refined by detect_codim2.
    """
    kind, period = start.kind, start.orbit.period
    params = list(float(q) for q in params)
    u = np.array(
        [start.orbit.y, start.orbit.params[plane[0]], start.orbit.params[plane[1]]]
    )
    curve = BifCurve(kind=kind, period=period, plane=tuple(plane))
    t = _tangent(ymap, period, kind, u, plane, params) * direction
    ds = step
    _record_point(curve, ymap, u, plane, params)

    while len(curve.points) < max_points:
        predictor = u + ds * t
        try:
            u_new = _corrector(ymap, period, kind, predictor, plane, params, t, u, ds)
        except ConvergenceError:
            ds *= 0.5
            if ds < min_step:
                break
            continue
        if max(abs(u_new[1]), abs(u_new[2])) > bounds:
            break
        t = _tangent(ymap, period, kind, u_new, plane, params, prev=t)
        u = u_new
        ds = min(ds * 1.3, max_step)
        _record_point(curve, ymap, u, plane, params)
    curve.codim2_hits = detect_codim2(curve, ymap, params)
    return curve


def continue_both_ways(ymap, start: BifPoint, plane, params, **options) -> BifCurve:
    """continue_codim1 forward and backward from start, joined into one curve:
    the backward points reversed, then the forward ones (start is in both),
    and the backward codim-2 hits first.  options go to both continuations."""
    fwd = continue_codim1(ymap, start, plane, params, **options)
    back = continue_codim1(ymap, start, plane, params, direction=-1.0, **options)
    joined = BifCurve(fwd.kind, fwd.period, fwd.plane)
    joined.codim2_hits = back.codim2_hits + fwd.codim2_hits
    for name in ("points", "y_values", "multipliers", "test_values"):
        setattr(joined, name, getattr(back, name)[::-1] + getattr(fwd, name))
    return joined


def _codim2_residual(ymap, period, kind, u, plane, params):
    r, pfull = _extended_residual(ymap, period, kind, u, plane, params)
    return np.array([r[0], r[1], _test_value(ymap, period, kind, u[0], pfull)])


def _solve_codim2(ymap, period, kind, seed, plane, params, tol=1.0e-10):
    u = seed.copy()
    for _ in range(40):
        r = _codim2_residual(ymap, period, kind, u, plane, params)
        if np.max(np.abs(r)) <= tol:
            return u
        jac = np.empty((3, 3))
        for j in range(3):
            h = 1.0e-6 * (1.0 + abs(u[j]))
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            jac[:, j] = (
                _codim2_residual(ymap, period, kind, up, plane, params)
                - _codim2_residual(ymap, period, kind, um, plane, params)
            ) / (2.0 * h)
        try:
            u = u - np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("codim-2 system singular") from err
        if not np.all(np.isfinite(u)):
            raise ConvergenceError("codim-2 Newton diverged")
    raise ConvergenceError("codim-2 Newton did not converge")


def detect_codim2(curve: BifCurve, ymap=None, params=None, tol: float = 1.0e-8):
    """Locate sign changes of the recorded test function along a curve.

    Fold curves yield cusp points (second orbit derivative crossing zero);
    flip curves yield degenerate flips (first Lyapunov value crossing zero).
    Each sign-change bracket seeds a Newton solve of the three-equation
    defining system, refined well below the 1e-8 parameter tolerance; a
    bisection of the bracket is the fallback when that solve fails.
    """
    if len(curve.points) < 3 or ymap is None:
        return []
    hits = []
    kind, period, plane = curve.kind, curve.period, curve.plane
    full = list(params) if params is not None else [0.0, 0.0]
    for i in range(len(curve.points) - 1):
        a, b = curve.test_values[i], curve.test_values[i + 1]
        if a == 0.0 or not (a < 0.0) != (b < 0.0):
            continue
        ua = np.array([curve.y_values[i], *curve.points[i]])
        ub = np.array([curve.y_values[i + 1], *curve.points[i + 1]])
        w = abs(a) / (abs(a) + abs(b))
        seed = (1.0 - w) * ua + w * ub
        try:
            u = _solve_codim2(ymap, period, kind, seed, plane, full, tol=1.0e-10)
        except ConvergenceError:
            u = _bisect_codim2(ymap, period, kind, ua, ub, a, plane, full, tol)
            if u is None:
                continue
        _, pfull = _extended_residual(ymap, period, kind, u, plane, full)
        hits.append(_bif_point(ymap, CUSP if kind == SN else DEGENERATE_FLIP, period, u[0], pfull))
    return hits


def _bisect_codim2(ymap, period, kind, ua, ub, fa, plane, params, tol):
    try:
        while np.max(np.abs(ub - ua)) > tol:
            anchor = 0.5 * (ua + ub)
            t = _tangent(ymap, period, kind, anchor, plane, params)
            um = _corrector(ymap, period, kind, anchor, plane, params, t, anchor, 0.0)
            _, pfull = _extended_residual(ymap, period, kind, um, plane, params)
            fm = _test_value(ymap, period, kind, um[0], pfull)
            if (fm < 0.0) == (fa < 0.0):
                ua, fa = um, fm
            else:
                ub = um
        return ua
    except ConvergenceError:
        return None


def curve_to_csv(curve: BifCurve, path, param_names=("p_i", "p_j"), header_lines=()):
    """Write a continuation curve as CSV with '#' metadata lines."""
    columns = ["kind", "period", param_names[0], param_names[1], "Y", "multiplier", "test_value"]
    rows = (
        [curve.kind, curve.period, *(f"{x:.17g}" for x in (pi, pj, y, mult, tv))]
        for (pi, pj), y, mult, tv in zip(
            curve.points, curve.y_values, curve.multipliers, curve.test_values
        )
    )
    write_table(path, header_lines, columns, rows)
