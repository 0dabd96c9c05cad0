"""Local dynamics near the saddle: linear normal form plus a test nonlinearity.

The local map acts on (x, y) with x the leading stable coordinate(s) and y the
one-dimensional unstable coordinate.  For a saddle x is a scalar and the
linear part is diag(sign*lam, gamma); for a saddle-focus x is a 2-vector and
the stable block is lam times a rotation by phi.  The optional test
nonlinearity adds g = x^2*y to the stable row and h = x*y^2 to the unstable
row (saddle only); these terms vanish identically on both invariant axes
together with the required partial derivatives, so the axes x=0 and y=0 stay
invariant and the map restricted to them stays linear.

The stage maps work on arrays of points: iterate_points and
cross_form_points return per-point escape and convergence outcomes, and
local_iterate / cross_form_solve are their one-point forms, which raise
instead.  A saddle-focus x keeps its two components on the last axis.  The
cross form (x given at time 0, y at time k) is closed form for a linear
map; with the test nonlinearity it is solved by Newton shooting on y at
time 0.

Both array forms also push a tangent forward (forward mode) when given one:
a list [dx, dy] of scalars or arrays that broadcast with the points, whose
items they replace with the tangent's image under the stage's Jacobian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EscapeError

SADDLE = "saddle"
SADDLE_FOCUS = "saddle_focus"
LINEAR = "linear"
TEST_CUBIC = "test_cubic"

DEFAULT_ESCAPE_RADIUS = 1.0e6


@dataclass(frozen=True)
class LocalNormalForm:
    """Saddle or saddle-focus local map in straightened coordinates."""

    kind: str
    lam: float
    gamma: float
    phi: float = 0.0
    sign_lambda: int = 1
    nonlinearity: str = LINEAR

    def __post_init__(self):
        if self.kind not in (SADDLE, SADDLE_FOCUS):
            raise ValueError(f"unknown local kind '{self.kind}'")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if not abs(self.gamma) > 1.0:
            raise ValueError("|gamma| must exceed 1")
        if not self.lam * abs(self.gamma) < 1.0:
            raise ValueError("strong dissipativity requires lam*|gamma| < 1")
        if self.kind == SADDLE_FOCUS and not 0.0 < self.phi < math.pi:
            raise ValueError("phi must lie in (0, pi) for a saddle-focus")
        if self.sign_lambda not in (-1, 1):
            raise ValueError("sign_lambda must be +1 or -1")
        if self.nonlinearity not in (LINEAR, TEST_CUBIC):
            raise ValueError(f"unknown nonlinearity '{self.nonlinearity}'")
        if self.nonlinearity == TEST_CUBIC and self.kind != SADDLE:
            raise ValueError("test_cubic nonlinearity is defined for the saddle form")

    @property
    def x_dim(self) -> int:
        return 1 if self.kind == SADDLE else 2

    def leading_power(self, n: int):
        """n-th power of the leading stable block."""
        if self.kind == SADDLE:
            return (self.sign_lambda * self.lam) ** n
        c, s = math.cos(n * self.phi), math.sin(n * self.phi)
        return self.lam**n * np.array([[c, -s], [s, c]])


def theta_modulus(local: LocalNormalForm) -> float:
    """Saddle value -ln(lam)/ln|gamma|; exceeds 1 under strong dissipativity."""
    return -math.log(local.lam) / math.log(abs(local.gamma))


def expansion_gain(local: LocalNormalForm, k: int, m: int) -> float:
    """Composite gain lam^m * |gamma|^k of a double round with (k, m) local passes."""
    return local.lam**m * abs(local.gamma) ** k


def in_ratio_window(k: int, m: int, theta: float, delta: float) -> bool:
    """True when (theta+delta)^-1 < m/k < theta - delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    r = m / k
    return 1.0 / (theta + delta) < r < theta - delta


# Per-point outcome of the cross-form solve (see cross_form_points).
SOLVED, SINGULAR, UNCONVERGED = 0, 1, 2

# Newton shooting from the linear guess accepts its 3rd or 4th pass on the
# rescale lattices, but far from the linear regime (|yk| of tens at k <= 6)
# a solvable point can take dozens.  A point with no accepted pass after
# this many is UNCONVERGED.
_NEWTON_PASSES = 100


def apply_matrix(a, x):
    """a @ x for one vector x or for a stack of vectors along x's leading axes.

    Every point gets its own matrix-vector product, so its bits equal those
    of ``a @ x`` on that point alone; a single matrix product over the whole
    stack rounds differently.
    """
    return np.matmul(a, np.asarray(x, dtype=float)[..., None])[..., 0]


def _flat_points(shape, *arrays):
    """Writable flat float copies of arrays broadcast to shape."""
    return [np.array(np.broadcast_to(a, shape), dtype=float).ravel() for a in arrays]


def _leading_apply(local: LocalNormalForm, a, x):
    if x is None:  # a row nobody reads (global_map.apply_global's x_row)
        return None
    return apply_matrix(a, x) if local.kind == SADDLE_FOCUS else a * x


def local_apply(local: LocalNormalForm, x, y):
    """One application of the local map, to one point or to arrays of points."""
    a = local.leading_power(1)
    if local.kind == SADDLE_FOCUS:
        return apply_matrix(a, x), local.gamma * y
    if local.nonlinearity == LINEAR:
        return a * x, local.gamma * y
    return a * x + x * x * y, local.gamma * y + x * y * y


def _cubic_tangent(lam_s, gam, x, y, dx, dy):
    """The test-cubic step's Jacobian at (x, y) applied to (dx, dy)."""
    xy2 = 2.0 * x * y
    return (lam_s + xy2) * dx + x * x * dy, y * y * dx + (gam + xy2) * dy


def iterate_points(
    local: LocalNormalForm,
    x,
    y,
    n: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
    tangent=None,
):
    """n-fold forward application to arrays of points: (xn, yn, escape_step).

    escape_step is 0 where the orbit stayed inside escape_radius, otherwise
    the first step that left it; such a point keeps that step's values and
    is not iterated further.  The linear case uses exact powers and checks
    |y| after the last step only; the nonlinear case checks max(|x|, |y|)
    after every step.  No state exceeds an infinite escape_radius, so that
    one skips the checks (escape_step 0 in the linear case).  A tangent
    (module docstring) becomes (L^n dx, gamma^n dy) in the linear case and
    is pushed through each step's Jacobian along the orbit otherwise,
    stopping where the point stops.  A linear x or dx of None stays None.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    checked = escape_radius < math.inf
    if local.nonlinearity == LINEAR:
        lead, grow = local.leading_power(n), local.gamma**n
        yn = grow * y
        step = np.where(np.abs(yn) > escape_radius, n, 0) if checked else 0
        if tangent is not None:
            tangent[:] = _leading_apply(local, lead, tangent[0]), grow * tangent[1]
        return _leading_apply(local, lead, x), yn, step
    lam_s = local.sign_lambda * local.lam
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), *map(np.shape, tangent or ()))
    out_arrays = _flat_points(shape, x, y, *(tangent or ()))
    escape_step = np.zeros(out_arrays[0].size, dtype=int)
    live = np.arange(escape_step.size)
    cur = list(out_arrays)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n + 1):
            if tangent is not None:
                cur[2:] = _cubic_tangent(lam_s, local.gamma, *cur)
            cur[:2] = local_apply(local, cur[0], cur[1])
            if not checked:
                continue
            ax, ay = np.abs(cur[0]), np.abs(cur[1])
            # Python's max(ax, ay), NaN ordering included.
            out = np.where(ay > ax, ay, ax) > escape_radius
            if out.any():
                gone = live[out]
                for full, c in zip(out_arrays, cur):
                    full[gone] = c[out]
                escape_step[gone] = step
                keep = ~out
                live, cur = live[keep], [c[keep] for c in cur]
    for full, c in zip(out_arrays, cur):
        full[live] = c
    x_out, y_out, *pushed = (a.reshape(shape) for a in out_arrays)
    if tangent is not None:
        tangent[:] = pushed
    return x_out, y_out, escape_step.reshape(shape)


def local_iterate(
    local: LocalNormalForm,
    x,
    y,
    n: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
):
    """n-fold forward application; exact powers in the linear case."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return x, y
    xn, yn, step = iterate_points(local, x, y, n, escape_radius)
    linear = local.nonlinearity == LINEAR
    if step:
        value = yn if linear else (float(xn), float(yn))
        raise EscapeError("local orbit left the escape radius", step=int(step), value=value)
    return (xn, yn) if linear else (float(xn), float(yn))


def cross_form_points(
    local: LocalNormalForm,
    x0,
    yk,
    k: int,
    tol: float = 1.0e-12,
    tangent=None,
):
    """Two-point problem for arrays of points: (x at time k, y at time 0, status).

    The linear case is closed form, with status SOLVED and y at time 0 None
    (cross_form_solve computes it; the composition does not read it).
    The test-cubic case shoots forward from y0 and runs Newton's method on
    y0 against the y given at time k: each pass runs the k steps once,
    carrying M, the product of the step Jacobians, and updates
    y0 -= (y_k(y0) - yk) / M11 from the linear guess yk / gamma^k.  A pass
    is accepted once the update that led to it moved y0 by at most
    tol*(1 + |y0|): its y0 is then a Newton step past that accuracy, so
    y_k meets yk to within rounding.  status is SOLVED, SINGULAR
    (M11 is zero or not finite) or UNCONVERGED (no accepted pass within
    _NEWTON_PASSES) per point.  Every point runs the passes of the one-point
    solve on its own bits.  Unsolved points return NaN.

    A tangent (dx0, dyk) of the given data (module docstring) becomes
    (dxk, dyk), that of the point (xk, yk) the composition goes on from.
    It is the implicit-function rule on the accepted pass's M, not a
    derivative of the iteration: dxk = (det M dx0 + M01 dyk) / M11 (NaN
    where unsolved).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if local.nonlinearity == LINEAR:
        lead = local.leading_power(k)
        if tangent is not None:
            tangent[0] = _leading_apply(local, lead, tangent[0])
        return _leading_apply(local, lead, x0), None, SOLVED

    lam_s = local.sign_lambda * local.lam
    gam = local.gamma
    shape = np.broadcast_shapes(np.shape(x0), np.shape(yk))
    x0, yk = _flat_points(shape, x0, yk)
    status = np.full(x0.size, UNCONVERGED, dtype=np.int8)
    # xk, y0 and, for a tangent, the accepted pass's M by columns
    out = np.full((6 if tangent is not None else 2, x0.size), np.nan)
    live = np.arange(x0.size)
    y0 = yk / gam**k
    moved = np.full(x0.size, np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_PASSES):
            if live.size == 0:
                break
            x, y = x0, y0
            cols = [(1.0, 0.0), (0.0, 1.0)] if tangent is not None else [(0.0, 1.0)]
            for _ in range(k):
                cols = [_cubic_tangent(lam_s, gam, x, y, *c) for c in cols]
                x, y = local_apply(local, x, y)
            m11 = cols[-1][1]
            singular = ~np.isfinite(m11) | (m11 == 0.0)
            solved = ~singular & (np.abs(moved) <= tol * (1.0 + np.abs(y0)))
            done = singular | solved
            moved = (y - yk) / m11
            if done.any():
                status[live[singular]] = SINGULAR
                status[live[solved]] = SOLVED
                for row, v in zip(out, (x, y0, *(v for c in cols for v in c))):
                    row[live[solved]] = v[solved]
                keep = ~done
                live, x0, yk, y0, moved = live[keep], x0[keep], yk[keep], y0[keep], moved[keep]
            y0 = y0 - moved
    xk_out, y0_out = (row.reshape(shape) for row in out[:2])
    if tangent is not None:
        m00, m10, m01, m11 = (row.reshape(shape) for row in out[2:])
        tangent[0] = ((m00 * m11 - m01 * m10) * tangent[0] + m01 * tangent[1]) / m11
    return xk_out, y0_out, status.reshape(shape)


def cross_form_solve(
    local: LocalNormalForm,
    x0,
    yk: float,
    k: int,
    tol: float = 1.0e-12,
):
    """Solve the two-point problem: given x at time 0 and y at time k, return
    (x at time k, y at time 0) for the k-fold local map.

    The linear case is closed form.  The test-cubic case is cross_form_points'
    Newton shooting on one point; it raises ConvergenceError where that
    point is not SOLVED.
    """
    xk, y0, status = cross_form_points(local, x0, yk, k, tol)
    if local.nonlinearity == LINEAR:
        return xk, yk / local.gamma**k
    raise_unsolved(status, k, tol)
    return float(xk), float(y0)


def raise_unsolved(status, k: int, tol: float = 1.0e-12):
    """Raise cross_form_solve's ConvergenceError if any point is unsolved."""
    if np.any(status == SINGULAR):
        raise ConvergenceError("cross-form Newton shooting hit a singular slope dy_k/dy_0")
    if np.any(status == UNCONVERGED):
        raise ConvergenceError(
            f"cross-form Newton shooting did not reach {tol:g} in {_NEWTON_PASSES} "
            f"passes (k={k}; y at time k may have no preimage)"
        )
