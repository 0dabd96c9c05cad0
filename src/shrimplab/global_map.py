"""Excursion (global) maps along the two homoclinic loops.

Each map carries the Taylor data of one excursion from the unstable-axis
neighborhood back to the stable-side neighborhood:

    xbar = x_plus + a x + b (y - y_minus)
    ybar = mu + c x + d (y - y_minus)^2

with d != 0 (quadratic fold in y) and nonzero b, c.  The maps are exactly
these polynomials: no hidden higher-order terms.  Every coefficient is
finite; a bad one raises FieldError naming it.  For a saddle all
coefficients are scalars; for a saddle-focus x is a 2-vector, a is 2x2, and
b, c are 2-vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldError
from .local import apply_matrix


def _norm(v) -> float:
    return float(np.linalg.norm(np.atleast_1d(np.asarray(v, dtype=float))))


@dataclass(frozen=True)
class GlobalMapTaylor:
    """Taylor data of one excursion map; mu is its splitting parameter."""

    x_plus: object
    y_minus: float
    a: object
    b: object
    c: object
    d: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("x_plus", "y_minus", "a", "b", "c", "d", "mu"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise FieldError(name, f"{name} must be finite")
        if self.d == 0.0:
            raise FieldError("d", "d must be nonzero (quadratic fold)")
        if _norm(self.b) == 0.0:
            raise FieldError("b", "b must be nonzero")
        if _norm(self.c) == 0.0:
            raise FieldError("c", "c must be nonzero")

    @cached_property
    def x_dim(self) -> int:
        return np.atleast_1d(np.asarray(self.x_plus, dtype=float)).size


def apply_global(g: GlobalMapTaylor, x, y, mu=None, tangent=None):
    """Apply the excursion map to a point (x, y) near the unstable axis, or
    to arrays of such points.

    A vector x (saddle-focus) keeps its components on the last axis.  mu, a
    scalar or one value per point, replaces g.mu when given.  A tangent, a
    list [dx, dy] of scalars or arrays that broadcast with the points, gets
    the items (a dx + b dy, c.dx + 2 d (y - y_minus) dy) in their place.
    """
    if mu is None:
        mu = g.mu
    dy = y - g.y_minus
    if tangent is not None:
        tx, ty = tangent
        fold = 2.0 * g.d * dy * ty
        if g.x_dim == 1:
            tangent[:] = g.a * tx + g.b * ty, g.c * tx + fold
        else:
            a, b, c = (np.asarray(v, dtype=float) for v in (g.a, g.b, g.c))
            new_x = apply_matrix(a, tx) + b * np.expand_dims(ty, -1)
            tangent[:] = new_x, apply_matrix(c, tx) + fold
    if g.x_dim == 1:
        xbar = g.x_plus + g.a * x + g.b * dy
        ybar = mu + g.c * x + g.d * dy * dy
        return xbar, ybar
    xbar = np.asarray(g.x_plus, dtype=float) + apply_matrix(np.asarray(g.a, dtype=float), x)
    xbar = xbar + np.asarray(g.b, dtype=float) * np.expand_dims(dy, -1)
    ybar = mu + apply_matrix(np.asarray(g.c, dtype=float), x) + g.d * dy * dy
    return xbar, ybar


def saddle_global(
    x_plus=1.0, y_minus=1.0, a=0.0, b=1.0, c=1.0, d=1.0, mu=0.0
) -> GlobalMapTaylor:
    """Scalar-coefficient excursion map for the 2D saddle model."""
    return GlobalMapTaylor(
        x_plus=float(x_plus), y_minus=float(y_minus), a=float(a),
        b=float(b), c=float(c), d=float(d), mu=float(mu),
    )


def focus_global(x_plus, y_minus, a, b, c, d, mu=0.0) -> GlobalMapTaylor:
    """Vector-coefficient excursion map for the 3D saddle-focus model."""
    return GlobalMapTaylor(
        x_plus=np.asarray(x_plus, dtype=float),
        y_minus=float(y_minus),
        a=np.asarray(a, dtype=float),
        b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
        d=float(d),
        mu=float(mu),
    )
