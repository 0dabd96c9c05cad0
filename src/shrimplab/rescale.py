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
small linear system for a linear local map, a damped Newton iteration
otherwise), so the frame stays exact for nonzero feedback coefficients a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EscapeError, NumericalError
from .local import (
    SADDLE,
    SADDLE_FOCUS,
    SOLVED,
    TEST_CUBIC,
    LocalNormalForm,
    _leading_apply,
    cross_form_points,
    cross_form_solve,
    iterate_points,
    raise_unsolved,
)
from .global_map import apply_global
from .returnmap import K_GE_M, ReturnMapConfig

DEFAULT_ESCAPE_RADIUS = 1.0e6


@dataclass(frozen=True)
class RescaleFrame:
    """Scales, chart origins, and parameter map for one (k, m) composition.

    Fields refer to the oriented composition (first excursion taken k local
    steps in, second m steps in).  When the underlying configuration has
    k < m the orientation is the mirror one and ``roles_swapped`` is True:
    the first/second parameter roles in the limit family are then (M2, M1).
    """

    k: int
    m: int
    roles_swapped: bool
    beta1: float
    beta2: float
    delta_km: float
    center_x2: object
    center_y1: float
    center_x1: object
    center_y2: float
    mu1_center: float
    mu2_center: float
    m1_scale: float
    m2_scale: float
    m1: float
    m2: float
    m3_coeff: float
    nu: float
    x_scale: float

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
        if np.ndim(self.center_x2) == 0:
            return self.center_x2 + self.x_scale * frame_x
        frame_x = np.asarray(frame_x, dtype=float)
        x1, x22 = frame_x[..., 0:1], frame_x[..., 1:2]
        b = np.asarray(b2, dtype=float)
        return (
            np.asarray(self.center_x2, dtype=float)
            + self.beta2 * x1 * b
            + self.delta_km * self.beta2 * x22 * np.array([0.0, 1.0])
        )

    def chart_x_inv(self, x, b2):
        """Original x back to rescaled X coordinates (inverse of chart_x)."""
        if np.ndim(self.center_x2) == 0:
            return (x - self.center_x2) / self.x_scale
        v = np.asarray(x, dtype=float) - np.asarray(self.center_x2, dtype=float)
        b = np.asarray(b2, dtype=float)
        x1 = v[..., 0] / (b[0] * self.beta2)
        x22 = (v[..., 1] - (b[1] / b[0]) * v[..., 0]) / (self.delta_km * self.beta2)
        return np.stack([x1, x22], axis=-1)

    def chart_y(self, frame_y):
        return self.center_y1 + self.beta1 * frame_y

    def chart_y_inv(self, y):
        return (y - self.center_y1) / self.beta1


def _oriented(cfg: ReturnMapConfig):
    if cfg.ordering == K_GE_M:
        return cfg, False
    return cfg.swapped(), True


def _y_linear_coefficient(local: LocalNormalForm, t1, t2, m: int, k: int):
    """Coefficient of Y in the rescaled second row, and the phase nu."""
    lam, gamma = local.lam, local.gamma
    if local.kind == SADDLE:
        c2 = float(t2.c) * float(t1.b)
        signed = c2 * (local.sign_lambda * lam) ** m * gamma**k
        return signed, 0.0
    b = np.asarray(t1.b, dtype=float)
    c = np.asarray(t2.c, dtype=float)
    rho = math.sqrt((b[0] ** 2 + b[1] ** 2) * (c[0] ** 2 + c[1] ** 2))
    nu = math.atan2(b[0] * c[1] - b[1] * c[0], b[0] * c[0] + b[1] * c[1])
    c2 = rho * math.cos(m * local.phi - nu)
    return c2 * lam**m * gamma**k, nu


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
    y2c = float(t2.y_minus)
    return eta, xi, x1c, y2c, mu1c, mu2c


def _center_residual(cfg: ReturnMapConfig, u, h=1.0e-6):
    """Residuals of the four centering conditions through the actual stages.

    Each row of u is one set of unknowns (eta, xi, mu1, mu2); the rows and
    their three legs (Y at eta + h, eta - h and eta) run as one batch of
    points.  Returns one row of residuals per row of u.
    """
    local, k, m = cfg.local, cfg.k, cfg.m
    xdim = local.x_dim
    eta, mu1, mu2 = u[:, 0], u[:, -2], u[:, -1]
    xi = u[:, 1] if xdim == 1 else u[:, 1:3]
    y11 = np.stack([eta + h, eta - h, eta])
    x11, _, status = cross_form_points(local, xi, y11, k)
    raise_unsolved(status, k)
    x01, y01 = apply_global(cfg.t1, x11, y11, mu1)
    x12, y12, step_m = iterate_points(local, x01, y01, m)
    xb, yb = apply_global(cfg.t2, x12, y12, mu2)
    _, yb11, step_k = iterate_points(local, xb, yb, k)
    # First escape in the order the rows, their legs and stages run.
    steps = np.stack([step_m, step_k], axis=-1).swapaxes(0, 1).ravel()
    if steps.any():
        raise EscapeError("local orbit left the escape radius", step=int(steps[steps > 0][0]))
    vertex = (y12[0] - y12[1]) / (2.0 * h)
    x_res = (xb[2] - xi).reshape(len(u), xdim)
    return np.column_stack([vertex, y12[2] - cfg.t2.y_minus, x_res, yb11[2] - eta])


def _polish_centers(cfg: ReturnMapConfig, eta, xi, mu1, mu2, tol=1.0e-12):
    """Newton-polish the chart origins through the concrete composition.

    The Jacobian is a central difference; its 2n probes run as one batch.
    """
    xdim = cfg.local.x_dim
    u = np.concatenate(
        [[eta], np.atleast_1d(np.asarray(xi, dtype=float)), [mu1, mu2]]
    )

    def unpack(v):
        if xdim == 1:
            return v[0], float(v[1]), v[2], v[3]
        return v[0], v[1:3].copy(), v[3], v[4]

    n = u.size
    diag = np.arange(n)
    for _ in range(30):
        r = _center_residual(cfg, u[None, :])[0]
        if np.max(np.abs(r)) <= tol:
            break
        step = 1.0e-7 * (1.0 + np.abs(u))
        up, um = np.tile(u, (n, 1)), np.tile(u, (n, 1))
        up[diag, diag] += step
        um[diag, diag] -= step
        probes = _center_residual(cfg, np.concatenate([up, um]))
        jac = ((probes[:n] - probes[n:]) / (2.0 * step)[:, None]).T
        try:
            u = u - np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("center polish hit a singular system") from err
    else:
        raise ConvergenceError("center polish did not converge")
    return unpack(u)


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

    eta, xi, x1c, y2c, mu1c, mu2c = _linear_centers(oc)
    if local.nonlinearity == TEST_CUBIC:
        eta, xi, mu1c, mu2c = _polish_centers(oc, eta, xi, mu1c, mu2c)
        x11, _ = cross_form_solve(local, xi, eta, k)
        x1c, _ = apply_global(t1, x11, eta, mu1c)

    m3_coeff, nu = _y_linear_coefficient(local, t1, t2, m, k)

    if local.kind == SADDLE:
        x_scale = float(t2.b) * beta2
    else:
        if np.asarray(t2.b)[0] == 0.0 or np.asarray(t1.b)[0] == 0.0:
            raise NumericalError(
                "frame charts need a nonzero first component of b"
            )
        x_scale = float(np.asarray(t2.b)[0]) * beta2

    return RescaleFrame(
        k=k,
        m=m,
        roles_swapped=swapped,
        beta1=float(beta1),
        beta2=float(beta2),
        delta_km=float(delta_km),
        center_x2=xi,
        center_y1=float(eta),
        center_x1=x1c,
        center_y2=float(y2c),
        mu1_center=float(mu1c),
        mu2_center=float(mu2c),
        m1_scale=float(m1_scale),
        m2_scale=float(m2_scale),
        m1=float(m1_scale * (t1.mu - mu1c)),
        m2=float(m2_scale * (t2.mu - mu2c)),
        m3_coeff=float(m3_coeff),
        nu=float(nu),
        x_scale=float(x_scale),
    )


def _pipeline(
    oc: ReturnMapConfig,
    frame: RescaleFrame,
    X,
    Y,
    mu1,
    mu2,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
):
    """Rescaled-in, rescaled-out composition (oriented config) for one point
    or for arrays of points, with splitting parameters mu1, mu2 per point.

    A scalar saddle-focus X stands for the pair (X, 0).  Returns (Xbar, Ybar,
    status, inside): status is the per-point outcome of the cross-form solve
    (local.SOLVED where it converged); inside is False where a local stage
    left escape_radius or the image is not finite or lies beyond it.  Every
    model runs the same stages, each with the operation order of its
    one-point form, so a lattice point gets the bits it would get alone.
    """
    local, t1, t2, k, m = oc.local, oc.t1, oc.t2, oc.k, oc.m
    if local.kind == SADDLE_FOCUS and np.ndim(X) == 0:
        X = np.array([float(X), 0.0])
    x02 = frame.chart_x(X, t2.b)
    y11 = frame.chart_y(Y)
    x11, _, status = cross_form_points(local, x02, y11, k)
    x01, y01 = apply_global(t1, x11, y11, mu1)
    x12, y12, step_m = iterate_points(local, x01, y01, m, escape_radius)
    xb02, yb02 = apply_global(t2, x12, y12, mu2)
    _, yb11, step_k = iterate_points(local, xb02, yb02, k, escape_radius)
    xbar, ybar = frame.chart_x_inv(xb02, t2.b), frame.chart_y_inv(yb11)
    x_inside = np.abs(xbar) <= escape_radius
    if local.kind == SADDLE_FOCUS:
        x_inside = x_inside.all(axis=-1)
    inside = (step_m == 0) & (step_k == 0) & x_inside & (np.abs(ybar) <= escape_radius)
    return xbar, ybar, status, inside


def rescaled_return(
    cfg: ReturnMapConfig,
    X,
    Y,
    M=None,
    frame: RescaleFrame | None = None,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
):
    """Apply the return map in rescaled coordinates.

    X is the rescaled leading state (a scalar for the saddle model, a pair
    for the saddle-focus), Y the rescaled cross coordinate.  When M =
    (M_first, M_second) is given, the splitting parameters are set from it
    through the frame; otherwise the configured values are used.
    """
    oc, _ = _oriented(cfg)
    if frame is None:
        frame = rescale_frame(cfg)
    mu1, mu2 = (oc.t1.mu, oc.t2.mu) if M is None else frame.mus_for(M[0], M[1])
    xbar, ybar, status, inside = _pipeline(oc, frame, X, Y, mu1, mu2, escape_radius)
    raise_unsolved(status, oc.k)
    if not inside:
        raise EscapeError("rescaled return escaped", value=(xbar, ybar))
    return xbar, ybar


@dataclass(frozen=True)
class DeviationReport:
    """Sup-distance of the rescaled map from the two limit families."""

    err_two_param: float
    err_three_param: float
    skipped: int


def limit_map_deviation(
    cfg: ReturnMapConfig,
    radius: float,
    grid: int,
    x_value: float = 0.0,
    frame: RescaleFrame | None = None,
) -> DeviationReport:
    """Worst deviation of Ybar from the limit families over a lattice.

    The lattice runs over (Y, M_first, M_second) in [-radius, radius]^3 with
    ``grid`` points per axis; the leading rescaled state is held at x_value
    (default 0, the center of the covered ball).  err_two_param compares
    against M2 - (M1 - Y^2)^2, err_three_param additionally keeps the linear
    term coeff*Y carried by the frame.  The whole lattice goes through one
    composition, for every model.  One rule skips lattice points, and counts
    them: a point is skipped when a local stage leaves the escape radius,
    when its cross-form solve does not converge, or when its image is not
    finite or lies beyond the escape radius.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    oc, _ = _oriented(cfg)
    if frame is None:
        frame = rescale_frame(cfg)
    axis = np.linspace(-radius, radius, grid)
    yv, m1v, m2v = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    mu1, mu2 = frame.mus_for(m1v, m2v)
    with np.errstate(over="ignore", invalid="ignore"):
        _, ybar, status, inside = _pipeline(oc, frame, x_value, yv, mu1, mu2)
    ok = (status == SOLVED) & inside

    lim2 = m2v - (m1v - yv**2) ** 2
    lim3 = lim2 + frame.m3_coeff * yv
    skipped = int(yv.size - ok.sum())
    if not ok.any():
        raise NumericalError("every lattice point escaped")
    err2 = float(np.max(np.abs(ybar[ok] - lim2[ok])))
    err3 = float(np.max(np.abs(ybar[ok] - lim3[ok])))
    return DeviationReport(err_two_param=err2, err_three_param=err3, skipped=skipped)


def measured_y_linear_coeff(
    cfg: ReturnMapConfig,
    frame: RescaleFrame | None = None,
    h: float = 1.0e-3,
) -> float:
    """Finite-difference linear-in-Y coefficient at Y=0 with M = (0, 0)."""
    if frame is None:
        frame = rescale_frame(cfg)
    _, yp = rescaled_return(cfg, 0.0, h, M=(0.0, 0.0), frame=frame)
    _, ym = rescaled_return(cfg, 0.0, -h, M=(0.0, 0.0), frame=frame)
    return float((yp - ym) / (2.0 * h))


def predict_shrimp_location(cfg: ReturnMapConfig, m_event) -> tuple:
    """Splitting parameters at which the rescaled parameters hit m_event.

    Uses the analytic leading terms (geometric y-minus terms plus the two
    lam-power corrections from the landing offsets); feedback through the a
    coefficients is dropped.  Returns (mu1, mu2) in the original labeling.
    """
    oc, swapped = _oriented(cfg)
    local, t1, t2, k, m = oc.local, oc.t1, oc.t2, oc.k, oc.m
    gamma = local.gamma
    m_first, m_second = (m_event[1], m_event[0]) if swapped else (m_event[0], m_event[1])

    alpha1 = _leading_apply(local, t1.c, _leading_apply(local, local.leading_power(k), t2.x_plus))
    alpha2 = _leading_apply(local, t2.c, _leading_apply(local, local.leading_power(m), t1.x_plus))
    s1, s2 = _parameter_scales(oc)
    mu1 = t2.y_minus / gamma**m - alpha1 + m_first / s1
    mu2 = t1.y_minus / gamma**k - alpha2 + m_second / s2
    if swapped:
        return float(mu2), float(mu1)
    return float(mu1), float(mu2)


def _rescaled_state_map(cfg, frame, mu1, mu2):
    oc, _ = _oriented(cfg)

    def f(state):
        x, y = state
        xb, yb, _, _ = _pipeline(oc, frame, x, y, mu1, mu2)
        return np.array([float(np.atleast_1d(xb)[0]), float(yb)])

    return f


def locate_fold(cfg: ReturnMapConfig, m_event, tol: float = 1.0e-7):
    """Find the fold (multiplier +1) of the actual return map nearest the
    predicted location of m_event, probing along the radial direction in the
    splitting-parameter plane.

    The defining system is the fixed point of the two-dimensional rescaled
    map plus det(J - I) = 0 with J taken by central differences; tol is set
    by the finite-difference noise floor of that determinant, which leaves
    the parameter offset t far more accurate than tol itself (the t-column
    of the bordered system carries the parameter rescaling gain).

    Returns (mu_measured, mu_predicted, relative_offset).
    """
    if cfg.local.kind != SADDLE or cfg.local.nonlinearity == TEST_CUBIC:
        raise NumericalError("fold location implemented for the linear saddle model")
    frame = rescale_frame(cfg)
    mu_pred = np.array(predict_shrimp_location(cfg, m_event))
    direction = mu_pred / np.linalg.norm(mu_pred)

    m1e, m2e = m_event
    ystar = _fold_seed(m1e, m2e)

    def residual(u):
        x, y, tt = u
        mu = mu_pred + tt * direction
        f = _rescaled_state_map(cfg, frame, mu[0], mu[1])
        fx = f((x, y))
        h = 1.0e-5
        jac = np.empty((2, 2))
        for j, e in enumerate(np.eye(2)):
            jac[:, j] = (
                f((x + h * e[0], y + h * e[1])) - f((x - h * e[0], y - h * e[1]))
            ) / (2.0 * h)
        return np.array([fx[0] - x, fx[1] - y, np.linalg.det(jac - np.eye(2))])

    u = np.array([m1e - ystar**2, ystar, 0.0])
    for _ in range(60):
        r = residual(u)
        if np.max(np.abs(r)) <= tol:
            mu = mu_pred + u[2] * direction
            rel = abs(u[2]) / np.linalg.norm(mu_pred)
            return mu, mu_pred, float(rel)
        jac = np.empty((3, 3))
        for j in range(3):
            step = 1.0e-7 * (1.0 + abs(u[j]))
            up, um = u.copy(), u.copy()
            up[j] += step
            um[j] -= step
            jac[:, j] = (residual(up) - residual(um)) / (2.0 * step)
        try:
            delta = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("fold solve hit a singular system") from err
        u = u - delta
        if np.max(np.abs(delta)) < 1.0e-14 * (1.0 + np.max(np.abs(u))):
            break
    r = residual(u)
    if np.max(np.abs(r)) <= 10.0 * tol:
        mu = mu_pred + u[2] * direction
        rel = abs(u[2]) / np.linalg.norm(mu_pred)
        return mu, mu_pred, float(rel)
    raise ConvergenceError("fold solve did not converge")


def _fold_seed(m1: float, m2: float) -> float:
    """Fold point of the limit family near (m1, m2): root of g'(Y) = 1 whose
    fixed-point residual against m2 is smallest (seed for the 2D solve)."""
    roots = []
    for y0 in np.linspace(-2.5, 2.5, 41):
        y = y0
        for _ in range(80):
            q = 4.0 * y * (m1 - y * y) - 1.0
            dq = 4.0 * m1 - 12.0 * y * y
            if dq == 0.0 or not math.isfinite(y):
                break
            y_new = y - q / dq
            if abs(y_new - y) < 1.0e-13:
                y = y_new
                break
            y = y_new
        if math.isfinite(y) and abs(4.0 * y * (m1 - y * y) - 1.0) < 1.0e-9:
            roots.append(y)
    if not roots:
        return 0.5
    return min(roots, key=lambda y: abs(m2 - (m1 - y * y) ** 2 - y))
