"""Affine frames that bring the double-round return map to its limit family.

For pass counts (k, m) with k >= m the composite map, written in cross
coordinates (x at the start, y after the first k local steps), is conjugate
to a small perturbation of

    Xbar = M1 - Y^2
    Ybar = M2 - Xbar^2 + C2 * lam^m * gamma^k * Y

by an affine change of state and parameters.  The frame built here consists
of the two contraction scales beta1, beta2, chart origins that cancel every
constant term of the truncated model, and the affine relation between the
splitting parameters (mu1, mu2) and the rescaled parameters (M1, M2).  For
k < m the mirror composition is used and the parameter roles swap.

The chart origins are solved numerically from the concrete stage maps (a
small linear system for a linear local map, a Newton iteration otherwise),
so the frame stays exact for nonzero feedback coefficients a.

The return map is composed once, in _stages, for every local model; it
carries an optional forward-mode tangent with each stage's exact rule, so
the sweep slope, the fold Jacobian, the linear coefficient and the vertex
condition of the chart origins are exact derivatives, not differences.
_pipeline wraps it in the frame's charts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, EscapeError, NumericalError
from .families import DOUBLE_PARABOLA, FAMILIES, SHRIMP3
from .local import (
    DEFAULT_ESCAPE_RADIUS,
    LINEAR,
    SADDLE,
    SADDLE_FOCUS,
    SOLVED,
    TEST_CUBIC,
    LocalNormalForm,
    _leading_apply,
    cross_form_points,
    iterate_points,
    raise_unsolved,
)
from .global_map import apply_global
from .returnmap import ReturnMapConfig


@dataclass(frozen=True)
class RescaleFrame:
    """Scales, chart origins, and parameter map for one (k, m) composition:
    the handle of the rescaled return map.

    oc is the oriented configuration (k >= m: first excursion taken k local
    steps in, second m steps in), and the other fields refer to it.  When
    the underlying configuration has k < m, oc is its mirror and
    ``roles_swapped`` is True: the first/second parameter roles in the limit
    family are then (M2, M1).
    """

    oc: ReturnMapConfig
    roles_swapped: bool
    beta1: float
    beta2: float
    delta_km: float
    center_x2: object
    center_y1: float
    mu1_center: float
    mu2_center: float
    m1_scale: float
    m2_scale: float
    m1: float
    m2: float
    m3_coeff: float

    def mus_for(self, m_first: float, m_second: float):
        """Splitting parameters realizing rescaled parameters (exact inverse)."""
        mu1 = self.mu1_center + m_first / self.m1_scale
        mu2 = self.mu2_center + m_second / self.m2_scale
        return mu1, mu2

    def chart_x(self, frame_x, b2):
        """Rescaled X (leading, secondary) to original starting x.

        For the saddle-focus the pair sits on the last axis of frame_x, so
        arrays of points map point by point.
        """
        return self.center_x2 + self.chart_dx(frame_x, b2)

    def chart_dx(self, frame_dx, b2):
        """The linear part of chart_x: a rescaled displacement in x."""
        if np.ndim(self.center_x2) == 0:
            return float(b2) * self.beta2 * frame_dx
        frame_dx = np.asarray(frame_dx, dtype=float)
        x1, x22 = frame_dx[..., 0:1], frame_dx[..., 1:2]
        b = np.asarray(b2, dtype=float)
        return self.beta2 * x1 * b + self.delta_km * self.beta2 * x22 * np.array([0.0, 1.0])

    def chart_x_inv(self, x, b2):
        """Original x back to rescaled X coordinates (inverse of chart_x)."""
        return self.chart_dx_inv(np.asarray(x, dtype=float) - self.center_x2, b2)

    def chart_dx_inv(self, dx, b2):
        """The linear part of chart_x_inv: a displacement in x, rescaled."""
        if np.ndim(self.center_x2) == 0:
            return dx / (float(b2) * self.beta2)
        b = np.asarray(b2, dtype=float)
        x1 = dx[..., 0] / (b[0] * self.beta2)
        x22 = (dx[..., 1] - (b[1] / b[0]) * dx[..., 0]) / (self.delta_km * self.beta2)
        return np.stack([x1, x22], axis=-1)

    def chart_y(self, frame_y):
        return self.center_y1 + self.beta1 * frame_y

    def chart_y_inv(self, y):
        return (y - self.center_y1) / self.beta1


def _oriented(cfg: ReturnMapConfig):
    if cfg.k >= cfg.m:
        return cfg, False
    return cfg.swapped(), True


def _y_linear_coefficient(local: LocalNormalForm, t1, t2, m: int, k: int):
    """Coefficient of Y in the rescaled second row."""
    lam, gamma = local.lam, local.gamma
    if local.kind == SADDLE:
        c2 = float(t2.c) * float(t1.b)
        return c2 * (local.sign_lambda * lam) ** m * gamma**k
    b = np.asarray(t1.b, dtype=float)
    c = np.asarray(t2.c, dtype=float)
    rho = math.sqrt((b[0] ** 2 + b[1] ** 2) * (c[0] ** 2 + c[1] ** 2))
    nu = math.atan2(b[0] * c[1] - b[1] * c[0], b[0] * c[0] + b[1] * c[1])
    c2 = rho * math.cos(m * local.phi - nu)
    return c2 * lam**m * gamma**k


def _linear_centers(cfg: ReturnMapConfig):
    """Closed-form chart origins for a linear local map."""
    local, t1, t2, k, m = cfg.local, cfg.t1, cfg.t2, cfg.k, cfg.m
    gamma = local.gamma
    ak = local.leading_power(k)
    am = local.leading_power(m)
    eta = float(t1.y_minus)
    if local.kind == SADDLE:
        denom = 1.0 - t2.a * am * t1.a * ak
        xi = (t2.x_plus + t2.a * am * t1.x_plus) / denom
        x1c = t1.x_plus + t1.a * ak * xi
    else:
        a2am = np.asarray(t2.a, dtype=float) @ am
        coupling = a2am @ (np.asarray(t1.a, dtype=float) @ ak)
        rhs = np.asarray(t2.x_plus, dtype=float) + a2am @ np.asarray(t1.x_plus, dtype=float)
        xi = np.linalg.solve(np.eye(2) - coupling, rhs)
        x1c = np.asarray(t1.x_plus, dtype=float) + np.asarray(t1.a, dtype=float) @ (ak @ xi)
    mu1c = t2.y_minus / gamma**m - _leading_apply(local, t1.c, _leading_apply(local, ak, xi))
    mu2c = t1.y_minus / gamma**k - _leading_apply(local, t2.c, _leading_apply(local, am, x1c))
    return eta, xi, mu1c, mu2c


def _stages(oc: ReturnMapConfig, x02, y11, mu1, mu2, escape_radius, tangent=None, y_row=False):
    """The double-round return map (oriented config) in cross coordinates,
    for one point or for arrays of points: the one composition of the stages.

    The point is (x02, y11): x where the k-step local pass starts and y where
    it ends.  The stages are that pass in cross form, T1, local^m, T2 and the
    next k-step pass.  Returns (y12, xb02, yb11, status, step_m, step_k,
    tangents): y12 is y after local^m, (xb02, yb11) the image in cross
    coordinates, status the cross-form outcome (local.SOLVED where it
    converged) and step_m, step_k the escape steps of the local stages.  A
    tangent (dx, dy) at (x02, y11), scalars or arrays that broadcast with
    the points, is pushed through every stage by its exact rule (forward
    mode); tangents is then (dy12, dxb02, dyb11), else None.

    With y_row (the sweep's step) it returns (yb11, dyb11) alone and, where
    the last pass is linear, skips T2's X-row and tangent and that pass's X:
    16 array operations instead of 21 on the linear saddle, 24 instead of 32
    with a tangent."""
    local, t1, t2, k, m = oc.local, oc.t1, oc.t2, oc.k, oc.m
    t = None if tangent is None else list(tangent)
    x11, _, status = cross_form_points(local, x02, y11, k, tangent=t)
    x01, y01 = apply_global(t1, x11, y11, mu1, tangent=t)
    x12, y12, step_m = iterate_points(local, x01, y01, m, escape_radius, t)
    dy12 = None if t is None else t[1]
    x_row = not y_row or local.nonlinearity != LINEAR
    xb02, yb02 = apply_global(t2, x12, y12, mu2, t, x_row)
    dxb02 = None if t is None else t[0]
    _, yb11, step_k = iterate_points(local, xb02, yb02, k, escape_radius, t)
    dyb11 = None if t is None else t[1]
    if y_row:
        return yb11, dyb11
    return y12, xb02, yb11, status, step_m, step_k, None if t is None else (dy12, dxb02, dyb11)


def _center_residual(cfg: ReturnMapConfig, u):
    """Residuals of the four centering conditions of a test-cubic saddle,
    through the composition.

    Each row of u is one set of unknowns (eta, xi, mu1, mu2), and the rows
    run as one batch of points.  The vertex condition, y12 stationary in Y,
    reads the exact dy12/dY of the stages' tangent.  Returns one row of
    residuals per row of u.
    """
    eta, xi, mu1, mu2 = u.T
    y12, xb, yb11, status, step_m, step_k, (dy12, _, _) = _stages(
        cfg, xi, eta, mu1, mu2, DEFAULT_ESCAPE_RADIUS, (0.0, 1.0)
    )
    raise_unsolved(status, cfg.k)
    # First escape in the order the rows and their stages run.
    steps = np.stack([step_m, step_k], axis=-1).ravel()
    if steps.any():
        raise EscapeError("local orbit left the escape radius", step=int(steps[steps > 0][0]))
    return np.column_stack([dy12, y12 - cfg.t2.y_minus, xb - xi, yb11 - eta])


def _newton(residual, u, what):
    """Newton's method for residual(rows) = 0 from u, where residual maps a
    batch of unknown rows to one row of residuals each.

    The Jacobian is a central difference, whose 2n probes run as one batch.
    The loop stops when max|r| <= 1e-12, or at the round-off floor: when a
    step below 1e-11 (1 + max|u|) does not lower max|r|, the better of the
    two points is returned.
    """
    n = u.size
    r = residual(u[None, :])[0]
    for _ in range(60):
        if np.max(np.abs(r)) <= 1.0e-12:
            return u
        step = 1.0e-7 * (1.0 + np.abs(u))
        probes = residual(np.concatenate([u + np.diag(step), u - np.diag(step)]))
        jac = ((probes[:n] - probes[n:]) / (2.0 * step)[:, None]).T
        try:
            delta = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(f"{what} hit a singular system") from err
        u_next = u - delta
        r_next = residual(u_next[None, :])[0]
        floor = np.max(np.abs(delta)) < 1.0e-11 * (1.0 + np.max(np.abs(u_next)))
        if floor and not np.max(np.abs(r_next)) < np.max(np.abs(r)):
            return u
        u, r = u_next, r_next
    raise ConvergenceError(f"{what} did not converge")


def _parameter_scales(oc: ReturnMapConfig):
    """Gains (m1_scale, m2_scale) from the splitting parameters to (M1, M2)."""
    gamma, k, m = oc.local.gamma, oc.k, oc.m
    d1, d2 = float(oc.t1.d), float(oc.t2.d)
    m1_scale = -np.cbrt(d1 * d2 * d2) * gamma ** ((4.0 * m + 2.0 * k) / 3.0)
    m2_scale = -np.cbrt(d2 * d1 * d1) * gamma ** ((4.0 * k + 2.0 * m) / 3.0)
    return m1_scale, m2_scale


def rescale_frame(cfg: ReturnMapConfig) -> RescaleFrame:
    """Build the affine frame for cfg (orientation handled internally)."""
    oc, swapped = _oriented(cfg)
    local, t1, t2, k, m = oc.local, oc.t1, oc.t2, oc.k, oc.m
    gamma = local.gamma
    if gamma <= 1.0:
        raise NumericalError("rescale frames require gamma > 1")
    d1, d2 = float(t1.d), float(t2.d)

    beta1 = -1.0 / np.cbrt(d2 * d1 * d1) * gamma ** (-(k + 2.0 * m) / 3.0)
    beta2 = -1.0 / np.cbrt(d1 * d2 * d2) * gamma ** (-(m + 2.0 * k) / 3.0)
    m1_scale, m2_scale = _parameter_scales(oc)
    delta_km = gamma ** (-(2.0 * k + m) / 9.0)

    eta, xi, mu1c, mu2c = _linear_centers(oc)
    if local.nonlinearity == TEST_CUBIC:
        eta, xi, mu1c, mu2c = _newton(
            lambda u: _center_residual(oc, u), np.array([eta, xi, mu1c, mu2c]), "center polish"
        )

    m3_coeff = _y_linear_coefficient(local, t1, t2, m, k)

    if local.kind == SADDLE_FOCUS and (np.asarray(t2.b)[0] == 0.0 or np.asarray(t1.b)[0] == 0.0):
        raise NumericalError("frame charts need a nonzero first component of b")

    return RescaleFrame(
        oc=oc,
        roles_swapped=swapped,
        beta1=float(beta1),
        beta2=float(beta2),
        delta_km=float(delta_km),
        center_x2=xi,
        center_y1=float(eta),
        mu1_center=float(mu1c),
        mu2_center=float(mu2c),
        m1_scale=float(m1_scale),
        m2_scale=float(m2_scale),
        m1=float(m1_scale * (t1.mu - mu1c)),
        m2=float(m2_scale * (t2.mu - mu2c)),
        m3_coeff=float(m3_coeff),
    )


def _pipeline(frame: RescaleFrame, X, Y, mu1, mu2, tangent=None):
    """Rescaled-in, rescaled-out composition of frame.oc, the oriented
    config, for one point or for arrays of points, with splitting parameters
    mu1, mu2 per point: the frame's charts around _stages.

    A scalar saddle-focus X stands for the pair (X, 0).  Returns (Xbar, Ybar,
    status, inside, tangent): status is the per-point outcome of the
    cross-form solve (local.SOLVED where it converged); inside is False where
    a local stage left the escape radius or the image is not finite or lies
    beyond it.  Every model runs the same stages, each with the operation
    order of its one-point form, so a lattice point gets the bits it would
    get alone.  Given a direction tangent = (dX, dY) (scalars, or arrays
    broadcasting with the points), the last item is the exact derivative
    (dXbar, dYbar) of the map along it; otherwise it is None.
    """
    local, t2 = frame.oc.local, frame.oc.t2
    focus = local.kind == SADDLE_FOCUS

    def pair(v):  # a scalar saddle-focus X stands for (X, 0)
        return np.array([float(v), 0.0]) if focus and np.ndim(v) == 0 else v

    x02, y11 = frame.chart_x(pair(X), t2.b), frame.chart_y(Y)
    if tangent is not None:
        tangent = frame.chart_dx(pair(tangent[0]), t2.b), frame.beta1 * tangent[1]
    _, xb02, yb11, status, step_m, step_k, tangents = _stages(
        frame.oc, x02, y11, mu1, mu2, DEFAULT_ESCAPE_RADIUS, tangent
    )
    xbar, ybar = frame.chart_x_inv(xb02, t2.b), frame.chart_y_inv(yb11)
    x_inside = np.abs(xbar) <= DEFAULT_ESCAPE_RADIUS
    if focus:
        x_inside = x_inside.all(axis=-1)
    inside = (step_m == 0) & (step_k == 0) & x_inside & (np.abs(ybar) <= DEFAULT_ESCAPE_RADIUS)
    if tangents is not None:
        _, dxb02, dyb11 = tangents
        tangents = (frame.chart_dx_inv(dxb02, t2.b), dyb11 / frame.beta1)
    return xbar, ybar, status, inside, tangents


def _usable(out, k: int):
    """The _pipeline output out of one point, after raising what
    rescaled_return raises when the point's composition is unusable."""
    xbar, ybar, status, inside, _ = out
    raise_unsolved(status, k)
    if not inside:
        raise EscapeError("rescaled return escaped", value=(xbar, ybar))
    return out


def rescaled_return(frame: RescaleFrame, X, Y, M=None):
    """Apply the return map of the frame in its rescaled coordinates.

    X is the rescaled leading state (a scalar for the saddle model, a pair
    for the saddle-focus), Y the rescaled cross coordinate.  When M =
    (M_first, M_second) is given, the splitting parameters are set from it
    through the frame; otherwise the configured values are used.
    """
    oc = frame.oc
    mu1, mu2 = (oc.t1.mu, oc.t2.mu) if M is None else frame.mus_for(M[0], M[1])
    xbar, ybar, _, _, _ = _usable(_pipeline(frame, X, Y, mu1, mu2), oc.k)
    return xbar, ybar


@dataclass(frozen=True)
class DeviationReport:
    """Sup-distance of the rescaled map from the two limit families."""

    err_two_param: float
    err_three_param: float
    skipped: int


def limit_map_deviation(frame: RescaleFrame, radius: float, grid: int) -> DeviationReport:
    """Worst deviation of the frame's Ybar from the limit families over a
    lattice.

    The lattice runs over (Y, M_first, M_second) in [-radius, radius]^3 with
    ``grid`` points per axis; the leading rescaled state is held at 0, the
    center of the covered ball.  err_two_param compares against the
    double_parabola family M2 - (M1 - Y^2)^2, err_three_param against
    shrimp3 with M3 the linear coefficient carried by the frame.  The whole
    lattice goes through one composition, for every model.  One rule skips
    lattice points, and counts them: a point is skipped when a local stage
    leaves the escape radius, when its cross-form solve does not converge,
    or when its image is not finite or lies beyond the escape radius.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    axis = np.linspace(-radius, radius, grid)
    yv, m1v, m2v = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    mu1, mu2 = frame.mus_for(m1v, m2v)
    with np.errstate(over="ignore", invalid="ignore"):
        _, ybar, status, inside, _ = _pipeline(frame, 0.0, yv, mu1, mu2)
    ok = (status == SOLVED) & inside

    lim2 = FAMILIES[DOUBLE_PARABOLA].value((m1v, m2v), yv)
    lim3 = FAMILIES[SHRIMP3].value((m1v, m2v, frame.m3_coeff), yv)
    skipped = int(yv.size - ok.sum())
    if not ok.any():
        raise NumericalError("every lattice point escaped")
    err2 = float(np.max(np.abs(ybar[ok] - lim2[ok])))
    err3 = float(np.max(np.abs(ybar[ok] - lim3[ok])))
    return DeviationReport(err_two_param=err2, err_three_param=err3, skipped=skipped)


def measured_y_linear_coeff(frame: RescaleFrame) -> float:
    """Linear-in-Y coefficient of the frame's composed map: its exact slope
    dYbar/dY at X = Y = 0 with M = (0, 0), from the composition's tangent."""
    mu1, mu2 = frame.mus_for(0.0, 0.0)
    out = _pipeline(frame, 0.0, 0.0, mu1, mu2, tangent=(0.0, 1.0))
    _, slope = _usable(out, frame.oc.k)[4]
    return float(slope)


def predict_shrimp_location(cfg: ReturnMapConfig, m_event) -> tuple:
    """Splitting parameters at which the rescaled parameters hit m_event.

    Uses the analytic leading terms: the closed-form chart origins of the
    linear local map with the feedback through the a coefficients dropped,
    and the frame's parameter scales.  Returns (mu1, mu2) in the original
    labeling.
    """
    oc, swapped = _oriented(cfg)
    m_first, m_second = (m_event[1], m_event[0]) if swapped else (m_event[0], m_event[1])
    t1, t2 = (replace(t, a=np.zeros_like(t.a, dtype=float)) for t in (oc.t1, oc.t2))
    _, _, mu1c, mu2c = _linear_centers(replace(oc, t1=t1, t2=t2))
    s1, s2 = _parameter_scales(oc)
    mu1 = mu1c + m_first / s1
    mu2 = mu2c + m_second / s2
    if swapped:
        return float(mu2), float(mu1)
    return float(mu1), float(mu2)


def locate_fold(cfg: ReturnMapConfig, m_event):
    """Find the fold (multiplier +1) of the actual return map nearest the
    predicted location of m_event, probing along the radial direction in the
    splitting-parameter plane.

    The defining system is the fixed point of the two-dimensional rescaled
    map plus det(J - I) = 0, with J the exact Jacobian carried by the
    composition's tangent: the residual has no truncation error, so the
    Newton tolerance sits near round-off.  Only the Newton Jacobian of that
    system is a central difference, which sets the convergence rate and not
    the answer.

    Returns (mu_measured, mu_predicted, relative_offset).
    """
    if cfg.local.kind != SADDLE or cfg.local.nonlinearity == TEST_CUBIC:
        raise NumericalError("fold location implemented for the linear saddle model")
    frame = rescale_frame(cfg)
    mu_pred = np.array(predict_shrimp_location(cfg, m_event))
    direction = mu_pred / np.linalg.norm(mu_pred)

    m1e, m2e = m_event
    ystar = _fold_seed(m1e, m2e)

    def residual(rows):
        # each row twice, with the tangents along X and along Y: both columns of J
        x, y, tt = np.repeat(rows, 2, axis=0).T
        mu = mu_pred + tt[:, None] * direction
        columns = np.tile(np.eye(2), len(rows))
        xb, yb, _, _, (dxb, dyb) = _pipeline(frame, x, y, mu[:, 0], mu[:, 1], tangent=columns)
        jac = np.stack([dxb.reshape(-1, 2), dyb.reshape(-1, 2)], axis=1)
        return np.column_stack([(xb - x)[::2], (yb - y)[::2], np.linalg.det(jac - np.eye(2))])

    u = _newton(residual, np.array([m1e - ystar**2, ystar, 0.0]), "fold solve")
    mu = mu_pred + u[2] * direction
    return mu, mu_pred, float(abs(u[2]) / np.linalg.norm(mu_pred))


def _fold_seed(m1: float, m2: float) -> float:
    """Fold point of the limit family near (m1, m2): the real root of
    g'(Y) = 4 Y (m1 - Y^2) = 1 whose fixed-point residual against m2 is
    smallest (seed for the 2D solve)."""
    roots = [r.real for r in np.roots([-4.0, 0.0, 4.0 * m1, -1.0]) if abs(r.imag) < 1.0e-9]
    return min(roots, key=lambda y: abs(m2 - (m1 - y * y) ** 2 - y))
