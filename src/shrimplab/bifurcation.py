"""Periodic orbits, fold/flip points, and codimension-2 detection for 1D maps.

Everything here works on FamilyYMap, the scalar view of a polynomial
family at a parameter vector; the families provide exact jets in Y and exact
first derivatives of value and slope in each parameter.  orbit_pass is the
one chain-rule loop, reading the family formulas directly: it propagates
the Y-derivatives of the n-fold composition to second order, or to third
where the first Lyapunov value needs it, and, given a parameter plane, the
parameter derivatives of T^n and (T^n)' along the same orbit, so one pass
per Newton step gives the residual and the exact bordered Jacobian of the
fold/flip defining system (on a period-1 curve also the codim-2 test
value).  The Newton loops run on Python floats and check their parameters
once per call, not once per pass.  The fold/flip system has one, the
continuation corrector, which solves each step's 3x3 system with _solve, a
pivoted elimination written out; solve_codim1 pins its third unknown to a
dummy parameter slot.  find_periodic_orbit and the
corrector stop when the residual is within NEWTON_TOL or, where round-off
keeps it above, when the Newton step no longer moves the point.
A BifPoint's test_values hold both codim-2 test values of its cycle.

Codimension-2 points (cusps on fold curves, degenerate flips on flip curves)
are zeros of a test value along a continued curve: each sign change between
two curve points is refined by regula falsi on the test value, every trial
point put back on the curve by the continuation corrector.  No derivative of
the test value is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, EscapeError, FieldError, NumericalError
from .families import FAMILIES, family_params
from .gridio import write_table

SN = "SN"
PD = "PD"
CUSP = "cusp"
DEGENERATE_FLIP = "degenerate_flip"

NEWTON_TOL = 1.0e-12
NEWTON_MAX_ITER = 50
# how far _refine_in_fine_steps follows a curve: 2 chords of the bracket
_FINE_STEPS = 64


class FamilyYMap:
    """Scalar-map view of a polynomial family: params are the family params.

    Extra trailing parameters are ignored, so a family can be continued in a
    plane with a dummy axis: families.param_index gives it the slot just past
    the family's parameters, where jet's partials are (0, 0) and checked drops
    it.  value and jet are one map step each and take params as given:
    orbit_pass validates them first, through checked, and the solvers here
    once per call, before their many passes.  A state that is not finite,
    as when an orbit overflows, raises EscapeError.  jet is the one-step
    view for callers; orbit_pass does not call it but reads the family's
    formulas directly, with the same operations and checks per step.
    """

    def __init__(self, family: str):
        self.family = family
        self._formulas = FAMILIES[family]
        self.arity = self._formulas.arity

    def checked(self, params) -> tuple:
        """The family's parameters out of params as floats; ValueError unless
        all are there and finite."""
        return family_params(self.family, tuple(params)[: self.arity])

    def value(self, y, params):
        if not math.isfinite(y):
            raise EscapeError("orbit state is not finite")
        return self._formulas.value(params, y)

    def jet(self, y, params, order=3, plane=()):
        """Value and Y-derivatives of orders 1..order (at most 4) at y, then
        for each parameter index in plane the pair (df/dp, df_y/dp); an index
        at or beyond the arity, a dummy axis, gives (0.0, 0.0)."""
        if not math.isfinite(y):
            raise EscapeError("orbit state is not finite")
        formulas = self._formulas
        out = (formulas.value(params, y), formulas.slope(params, y))
        if order > 1:
            out += formulas.higher(params, y)[: order - 1]
        if plane:
            partials = formulas.partials(params, y)
            out += tuple([partials[i] if i < self.arity else (0.0, 0.0) for i in plane])
        return out


def orbit_pass(ymap, y, params, period, plane=None, order=2):
    """T^n(y), its Y-derivatives of orders 1 to 3 and, given plane, the
    derivatives of T^n and of (T^n)' in the parameters plane[0] and plane[1]
    as two pairs (zeros without a plane): forward-mode propagation along one
    orbit of period map steps.  The third derivative is formed only for
    order=3 and is None for the default order=2; its overflow raises
    ConvergenceError.  ValueError unless the family's params are finite."""
    return _orbit_pass(ymap, y, ymap.checked(params), period, plane, order)


def _orbit_pass(ymap, y, params, period, plane=None, order=2):
    """orbit_pass on params its caller has checked: each map step is the one
    FamilyYMap.jet gives, its formulas called directly."""
    formulas = ymap._formulas
    value, slope, higher, partials = (
        formulas.value, formulas.slope, formulas.higher, formulas.partials)
    if plane:  # a slot at or beyond the arity is a dummy axis: partials (0, 0)
        i, j = plane
        i_dummy, j_dummy = i >= ymap.arity, j >= ymap.arity
    v, d1, d2, d3 = y, 1.0, 0.0, (0.0 if order > 2 else None)
    va = vb = da = db = 0.0
    for _ in range(period):
        if not math.isfinite(v):
            raise EscapeError("orbit state is not finite")
        fv, f1, high = value(params, v), slope(params, v), higher(params, v)
        f2 = high[0]
        if plane:
            dp = partials(params, v)
            fa, fya = (0.0, 0.0) if i_dummy else dp[i]
            fb, fyb = (0.0, 0.0) if j_dummy else dp[j]
            da = (f2 * va + fya) * d1 + f1 * da
            db = (f2 * vb + fyb) * d1 + f1 * db
            va = f1 * va + fa
            vb = f1 * vb + fb
        if order > 2:
            try:  # a float power overflows with an error, not to inf
                d3 = high[1] * d1**3 + 3.0 * f2 * d1 * d2 + f1 * d3
            except OverflowError as err:
                raise ConvergenceError("third orbit derivative overflowed") from err
        d2 = f2 * d1 * d1 + f1 * d2
        d1 = f1 * d1
        v = fv
    return v, d1, d2, d3, (va, vb), (da, db)


def _first_lyapunov(d2, d3):
    """First Lyapunov value (1/4) g''^2 + (1/6) g''' at a flip of g = T^n;
    positive means supercritical (a stable double-period orbit branches off)."""
    return 0.25 * d2 * d2 + d3 / 6.0


def _root_distance(ymap, y, params, period):
    """Estimated distance from y to the nearest period-n point: the Newton
    step |T^n(y) - y| / |(T^n)'(y) - 1|, or sqrt(2 |T^n(y) - y| / |(T^n)''|)
    if smaller (near a fold); at least 1e-15 (1 + |y|), y's round-off."""
    v, d1, d2 = _orbit_pass(ymap, y, params, period)[:3]
    g, slope = abs(v - y), abs(d1 - 1.0)
    near = min(g / slope if slope else math.inf, math.sqrt(2.0 * g / abs(d2)) if d2 else math.inf)
    return max(near, 1.0e-15 * (1.0 + abs(y)))


def _reject_divisor_period(ymap, y, params, period, what):
    """Raise NumericalError when a period-d point, d a proper divisor of
    period, lies within the solution's own accuracy: 10 times its distance
    to a period-`period` point (_root_distance; the two agree at a d-cycle)."""
    accuracy = 10.0 * _root_distance(ymap, y, params, period)
    for div in range(1, period):
        if period % div == 0 and _root_distance(ymap, y, params, div) <= accuracy:
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
    """The point y of a period-cycle at params, with both codim-2 test values
    (second orbit derivative, first Lyapunov)."""
    _, d1, d2, d3, _, _ = _orbit_pass(ymap, y, params, period, order=3)
    orbit = PeriodicOrbit(period, float(y), float(d1), tuple(params))
    tests = {"second_derivative": d2, "lyapunov_1": _first_lyapunov(d2, d3)}
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
    # why each continuation that built the curve stopped: "bounds" (the next
    # point left them), "min_step" (failed corrections halved the step below
    # it) or "max_points"; (reason,) from continue_codim1, (backward,
    # forward) from continue_both_ways; kept out of the CSV
    stop_reasons: tuple = ()
    # sign changes of the test value that detect_codim2 could not refine to
    # a hit, even in fine steps; kept out of the CSV
    dropped_brackets: int = 0


def find_periodic_orbit(
    ymap,
    period: int,
    y_guess: float,
    params,
) -> PeriodicOrbit:
    """Newton solve of T^n(y) = y, stopping as solve_codim1 does, with the
    multiplier of its last pass; rejects orbits of a proper divisor period.
    Newton also stops once its residual no longer halves but lies within
    the pass's round-off bound, 32 n eps (1 + |d1|) (1 + |y|) up to 1e-8
    (1 + |y|), which the final 1e-10 check also accepts (see README)."""
    if period < 1:
        raise ValueError("period must be >= 1")
    params = tuple(float(p) for p in params)
    ymap.checked(params)
    y, f_before = float(y_guess), math.inf
    for _ in range(NEWTON_MAX_ITER):
        v, d1 = _orbit_pass(ymap, y, params, period)[:2]
        f = v - y
        roundoff = min(32.0 * period * math.ulp(1.0) * (1.0 + abs(d1)), 1.0e-8) * (1.0 + abs(y))
        if abs(f) <= NEWTON_TOL or 0.5 * f_before < abs(f) <= roundoff:
            break
        f_before = abs(f)
        fp = d1 - 1.0
        if fp == 0.0:
            raise NumericalError("singular Newton step: multiplier exactly 1 off-root")
        step = f / fp
        if _stopped_moving((step,), (y,)):
            break
        y = y - step
        if not math.isfinite(y):
            raise ConvergenceError("orbit Newton diverged")
    else:
        raise ConvergenceError(f"orbit Newton did not converge in {NEWTON_MAX_ITER} steps")
    if abs(f) > max(1.0e-10, roundoff):
        raise ConvergenceError("orbit residual above verification tolerance")
    _reject_divisor_period(ymap, y, params, period, "solution")
    return PeriodicOrbit(period=period, y=float(y), multiplier=float(d1), params=params)


def _multiplier_target(kind):
    return 1.0 if kind == SN else -1.0


def _stopped_moving(step, x):
    """True when the Newton step is round-off for x: every component within
    1e-15 (1 + max|x|), so taking it would not move x."""
    return max(map(abs, step)) <= 1.0e-15 * (1.0 + max(map(abs, x)))


def solve_codim1(
    ymap,
    period: int,
    kind: str,
    free_index: int,
    guess,
    params,
) -> BifPoint:
    """Solve {T^n(y) - y = 0, (T^n)'(y) -+ 1 = 0} in (y, params[free_index]).

    Newton is the continuation corrector with its third unknown pinned, so it
    stops as the corrector does.  FieldError on the continue.* field of a bad
    kind, period, free_index or guess."""
    if kind not in (SN, PD):
        raise FieldError("kind", f"unknown bifurcation kind '{kind}'")
    if period < 1:
        raise FieldError("period", f"must be an integer >= 1, got '{period}'")
    if not 0 <= free_index < ymap.arity:
        raise FieldError("free_param", f"must be a parameter index in 0..{ymap.arity - 1}, "
                         f"got '{free_index}'")
    y, p = float(guess[0]), float(guess[1])
    for name, value in (("y_guess", y), ("param_guess", p)):
        if not math.isfinite(value):
            raise FieldError(name, f"must be finite, got '{value:g}'")
    params = list(float(q) for q in params)
    params[free_index] = p
    ymap.checked(params)
    # u is its own anchor at ds = 0 along (0, 0, 1): the arclength row pins the
    # dummy slot, whose partials are zero, so each step is Newton's in (y, p)
    u = (y, p, 0.0)
    (y, p, _), _, _, _ = _corrector(ymap, period, kind, u, (free_index, ymap.arity),
                                    [*params, 0.0], (0.0, 0.0, 1.0), u, 0.0)
    params[free_index] = p
    point = _bif_point(ymap, kind, period, y, params)  # raises first if its jets overflow
    _reject_divisor_period(ymap, y, params, period, "codim-1 solution")
    return point


def _plane_params(u, plane, params):
    """params with the plane coordinates of u = (y, p_i, p_j) put in."""
    p = list(params)
    p[plane[0]], p[plane[1]] = u[1], u[2]
    return p


def _extended_system(ymap, period, kind, u, plane, params):
    """At u = (y, p_i, p_j): the residual (T^n(y) - y, (T^n)'(y) -+ 1), its
    exact 2x3 Jacobian in u, the multiplier (T^n)'(y) and, on a period-1
    curve, the codim-2 test value at u (None for longer periods), from one
    orbit pass.  For period 1, y is the whole cycle and so its canonical
    representative, and the pass's d2 (and d3, formed for flips only) give
    the test value that _test_value would."""
    order = 3 if period == 1 and kind == PD else 2
    v, d1, d2, d3, dv, dd = _orbit_pass(
        ymap, u[0], _plane_params(u, plane, params), period, plane, order)
    r = (v - u[0], d1 - _multiplier_target(kind))
    test = _codim2_test(kind, d2, d3) if period == 1 else None
    return r, ((d1 - 1.0, dv[0], dv[1]), (d2, dd[0], dd[1])), d1, test


def _solve(rows, rhs, singular):
    """The solution x of the 3x3 system rows . x = rhs, by Gaussian
    elimination with partial pivoting written out: the pivot is the first
    row of largest |a|, each row update includes the right-hand side, and
    back-substitution subtracts a[k][j] x[j] for j ascending.  A pivot that
    is not > 0 in absolute value (zero or NaN) raises
    ConvergenceError(singular)."""
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = rows
    pb, qb, rb = rhs
    q_leads = abs(q0) > abs(p0)
    if abs(r0) > abs(q0 if q_leads else p0):
        p0, p1, p2, pb, r0, r1, r2, rb = r0, r1, r2, rb, p0, p1, p2, pb
    elif q_leads:
        p0, p1, p2, pb, q0, q1, q2, qb = q0, q1, q2, qb, p0, p1, p2, pb
    if not abs(p0) > 0.0:
        raise ConvergenceError(singular)
    f = q0 / p0
    q1, q2, qb = q1 - f * p1, q2 - f * p2, qb - f * pb
    f = r0 / p0
    r1, r2, rb = r1 - f * p1, r2 - f * p2, rb - f * pb
    if abs(r1) > abs(q1):
        q1, q2, qb, r1, r2, rb = r1, r2, rb, q1, q2, qb
    if not abs(q1) > 0.0:
        raise ConvergenceError(singular)
    f = r1 / q1
    r2, rb = r2 - f * q2, rb - f * qb
    if not abs(r2) > 0.0:
        raise ConvergenceError(singular)
    x2 = rb / r2
    x1 = (qb - q2 * x2) / q1
    return (pb - p1 * x1 - p2 * x2) / p0, x1, x2


def _corrector(ymap, period, kind, u, plane, params, tangent, anchor, ds):
    """Newton on the extended system plus the arclength equation; returns the
    converged u with the Jacobian, multiplier and test value of its last
    orbit pass.  Converged means all three residuals within NEWTON_TOL or,
    where round-off keeps one above it, a Newton step that no longer moves u,
    within NEWTON_MAX_ITER passes.  The one Newton loop of the fold/flip
    system: continuation steps, codim-2 trial points and solve_codim1."""
    t0, t1, t2 = tangent
    y, pi, pj = u
    for _ in range(NEWTON_MAX_ITER):
        (r0, r1), jac, mult, test = _extended_system(ymap, period, kind, u, plane, params)
        arc = t0 * (y - anchor[0]) + t1 * (pi - anchor[1]) + t2 * (pj - anchor[2]) - ds
        if abs(r0) <= NEWTON_TOL and abs(r1) <= NEWTON_TOL and abs(arc) <= NEWTON_TOL:
            return u, jac, mult, test
        s0, s1, s2 = _solve((*jac, tangent), (r0, r1, arc), "fold/flip Newton step singular")
        # _stopped_moving(step, u), on the three floats
        if max(abs(s0), abs(s1), abs(s2)) <= 1.0e-15 * (1.0 + max(abs(y), abs(pi), abs(pj))):
            return u, jac, mult, test
        y, pi, pj = y - s0, pi - s1, pj - s2
        if not (math.isfinite(y) and math.isfinite(pi) and math.isfinite(pj)):
            raise ConvergenceError("fold/flip Newton diverged")
        u = (y, pi, pj)
    raise ConvergenceError(f"fold/flip Newton did not converge in {NEWTON_MAX_ITER} steps")


def _tangent(jac, prev=None):
    """Unit tangent of the curve: the cross product grad r0 x grad r1 of the
    Jacobian's rows, which spans its null space; turned to agree with prev
    when given, else oriented as that cross product."""
    (a0, a1, a2), (b0, b1, b2) = jac
    t0, t1, t2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    norm = math.hypot(t0, t1, t2)
    if not (norm > 0.0 and math.isfinite(norm)):
        raise ConvergenceError("singular bordered system: no curve tangent")
    if prev is not None and prev[0] * t0 + prev[1] * t1 + prev[2] * t2 < 0.0:
        norm = -norm
    return t0 / norm, t1 / norm, t2 / norm


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


def _codim2_test(kind, d2, d3):
    """The codim-2 test value from the orbit derivatives: d2 on a fold, the
    first Lyapunov value on a flip."""
    return d2 if kind == SN else _first_lyapunov(d2, d3)


def _test_value(ymap, period, kind, u, plane, params, test):
    """The codim-2 test value at the curve point u = (y, p_i, p_j): test, the
    one the orbit pass at u gave, when it is not None (period 1); else from
    one pass at the cycle's canonical representative."""
    if test is not None:
        return test
    pfull = _plane_params(u, plane, params)
    rep = _canonical_rep(ymap, u[0], pfull, period)
    _, _, d2, d3, _, _ = _orbit_pass(ymap, rep, pfull, period, order=2 if kind == SN else 3)
    return _codim2_test(kind, d2, d3)


def _record_point(curve, ymap, u, multiplier, test, params):
    """Append the curve point u = (y, p_i, p_j) with its multiplier and test
    value (test as _extended_system gave it)."""
    curve.points.append((u[1], u[2]))
    curve.y_values.append(u[0])
    curve.multipliers.append(multiplier)
    curve.test_values.append(
        _test_value(ymap, curve.period, curve.kind, u, curve.plane, params, test))


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
    point and their sign changes refined by detect_codim2.  Steps start at
    min(step, max_step), halve on a failed correction and grow by 1.3 up to
    max_step on a success.  The curve's stop_reasons says what ended it.

    direction=+1 starts along grad r0 x grad r1, the cross product of the
    gradients of the two defining equations at the start, -1 against it.
    FieldError on plane.y_name if both axes are one parameter slot, and on
    a step or bounds not finite and positive or max_points below 2.
    """
    if plane[0] == plane[1]:
        raise FieldError("y_name", "a plane needs two distinct parameters", section="plane")
    for name, value in (("step", step), ("bounds", bounds)):
        if not (math.isfinite(value) and value > 0.0):
            raise FieldError(name, f"must be finite and positive, got '{value:g}'")
    if max_points < 2:
        raise FieldError("max_points", f"must be an integer >= 2, got '{max_points}'")
    kind, period = start.kind, start.orbit.period
    orbit = start.orbit
    u = (float(orbit.y), float(orbit.params[plane[0]]), float(orbit.params[plane[1]]))
    # every pass puts its own plane coordinates in; the start's are checked
    params = _plane_params(u, plane, map(float, params))
    ymap.checked(params)
    curve = BifCurve(kind=kind, period=period, plane=tuple(plane))
    _, jac, mult, test = _extended_system(ymap, period, kind, u, plane, params)
    t = tuple(x * direction for x in _tangent(jac))
    ds = min(step, max_step)
    _record_point(curve, ymap, u, mult, test, params)

    stop = "max_points"
    while len(curve.points) < max_points:
        predictor = (u[0] + ds * t[0], u[1] + ds * t[1], u[2] + ds * t[2])
        try:
            u_new, jac, mult, test = _corrector(
                ymap, period, kind, predictor, plane, params, t, u, ds)
        except ConvergenceError:
            ds *= 0.5
            if ds < min_step:
                stop = "min_step"
                break
            continue
        if max(abs(u_new[1]), abs(u_new[2])) > bounds:
            stop = "bounds"
            break
        t = _tangent(jac, prev=t)
        u = u_new
        ds = min(ds * 1.3, max_step)
        _record_point(curve, ymap, u, mult, test, params)
    curve.stop_reasons = (stop,)
    curve.codim2_hits = detect_codim2(curve, ymap, params)
    return curve


def continue_both_ways(ymap, start: BifPoint, plane, params, **options) -> BifCurve:
    """continue_codim1 forward and backward from start, joined into one curve:
    the backward points reversed, then the forward ones (start is in both),
    and the backward codim-2 hits and stop reason first.  A hit at start,
    whose test value is zero, is the first of both lists and is kept once.
    options go to both continuations."""
    fwd = continue_codim1(ymap, start, plane, params, **options)
    back = continue_codim1(ymap, start, plane, params, direction=-1.0, **options)
    joined = BifCurve(fwd.kind, fwd.period, fwd.plane)
    joined.codim2_hits = back.codim2_hits[back.test_values[0] == 0.0 :] + fwd.codim2_hits
    joined.stop_reasons = back.stop_reasons + fwd.stop_reasons
    joined.dropped_brackets = back.dropped_brackets + fwd.dropped_brackets
    for name in ("points", "y_values", "multipliers", "test_values"):
        setattr(joined, name, getattr(back, name)[::-1] + getattr(fwd, name))
    return joined


def _refine_codim2(ymap, curve, i, params):
    """The zero of the test value between curve points i and i + 1, whose
    test values have opposite signs: regula falsi with the Illinois rule (the
    value kept at an end that survives twice running is halved).  Each trial
    point goes back on the curve through the corrector across the curve
    tangent there.  Ends when the test value is zero or the point stops
    moving."""
    kind, period, plane = curve.kind, curve.period, curve.plane
    ua = (curve.y_values[i], *curve.points[i])
    ub = (curve.y_values[i + 1], *curve.points[i + 1])
    fa, fb = curve.test_values[i], curve.test_values[i + 1]
    u, kept = ua, None
    for _ in range(NEWTON_MAX_ITER):
        trial = tuple((fb * a - fa * b) / (fb - fa) for a, b in zip(ua, ub))
        if not all(map(math.isfinite, trial)):  # huge test values overflowed it
            raise ConvergenceError("codim-2 regula falsi trial overflowed")
        t = _tangent(_extended_system(ymap, period, kind, trial, plane, params)[1])
        prev, (u, _, _, test) = u, _corrector(
            ymap, period, kind, trial, plane, params, t, trial, 0.0)
        f = _test_value(ymap, period, kind, u, plane, params, test)
        if f == 0.0 or _stopped_moving([x - x0 for x, x0 in zip(u, prev)], u):
            return u
        if (f < 0.0) == (fa < 0.0):
            ua, fa = u, f
            fb, kept = (0.5 * fb if kept == "b" else fb), "b"
        else:
            ub, fb = u, f
            fa, kept = (0.5 * fa if kept == "a" else fa), "a"
    raise ConvergenceError("codim-2 refinement did not converge")


def _refine_in_fine_steps(ymap, curve, i, params):
    """The first zero of the test value on the curve continued from point i
    toward point i + 1 in steps of 1/32 of their chord, for a bracket whose
    refinement failed: one step across a sharp corner of the curve lands the
    regula falsi trials far from it.  ConvergenceError if the sub-curve
    shows no sign change within _FINE_STEPS steps."""
    kind, period, plane = curve.kind, curve.period, curve.plane
    u = (curve.y_values[i], *curve.points[i])
    chord = [b - a for a, b in zip(u, (curve.y_values[i + 1], *curve.points[i + 1]))]
    ds = math.hypot(*chord) / 32.0
    _, jac, mult, test = _extended_system(ymap, period, kind, u, plane, params)
    t = _tangent(jac, prev=chord)
    sub = BifCurve(kind, period, plane)
    _record_point(sub, ymap, u, mult, test, params)
    for _ in range(_FINE_STEPS):
        predictor = (u[0] + ds * t[0], u[1] + ds * t[1], u[2] + ds * t[2])
        u, jac, mult, test = _corrector(ymap, period, kind, predictor, plane, params, t, u, ds)
        t = _tangent(jac, prev=t)
        _record_point(sub, ymap, u, mult, test, params)
        a, b = sub.test_values[-2:]
        if b == 0.0:
            return u
        if (a < 0.0) != (b < 0.0):
            return _refine_codim2(ymap, sub, len(sub.points) - 2, params)
    raise ConvergenceError("no codim-2 zero found in fine steps")


def detect_codim2(curve: BifCurve, ymap, params):
    """Locate the zeros of the recorded test value along a curve, in curve
    order.

    Fold curves yield cusp points (second orbit derivative crossing zero);
    flip curves yield degenerate flips (first Lyapunov value crossing zero).
    A curve point whose test value is exactly zero is a hit as it stands.
    Each bracket of consecutive points with nonzero test values of opposite
    signs is refined by regula falsi to a zero of the test value on the
    curve (_refine_codim2); a bracket whose refinement fails is searched
    again in fine steps (_refine_in_fine_steps), and one that fails there
    too gives no hit; their number is set as curve.dropped_brackets.
    ValueError unless params are finite, checked once before any pass.
    """
    ymap.checked(params)
    hits, dropped = [], 0
    kind = CUSP if curve.kind == SN else DEGENERATE_FLIP
    tests = curve.test_values
    for i, a in enumerate(tests):
        if a == 0.0:
            u = (curve.y_values[i], *curve.points[i])
        elif i + 1 < len(tests) and tests[i + 1] != 0.0 and (a < 0.0) != (tests[i + 1] < 0.0):
            try:
                u = _refine_codim2(ymap, curve, i, params)
            except ConvergenceError:
                try:
                    u = _refine_in_fine_steps(ymap, curve, i, params)
                except ConvergenceError:
                    dropped += 1
                    continue
        else:
            continue
        hits.append(_bif_point(ymap, kind, curve.period, u[0], _plane_params(u, curve.plane, params)))
    curve.dropped_brackets = dropped
    return hits


def curve_to_csv(curve: BifCurve, path, param_names=("p_i", "p_j"), header_lines=()):
    """Write a continuation curve as CSV with '#' metadata lines."""
    columns = ["kind", "period", param_names[0], param_names[1], "Y", "multiplier", "test_value"]
    rows = ([curve.kind, curve.period, pi, pj, y, mult, tv] for (pi, pj), y, mult, tv
            in zip(curve.points, curve.y_values, curve.multipliers, curve.test_values))
    write_table(path, header_lines, columns, rows)
