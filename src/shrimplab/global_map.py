"""Excursion (global) maps along the two homoclinic loops.

Each map carries the Taylor data of one excursion from the unstable-axis
neighborhood back to the stable-side neighborhood:

    xbar = x_plus + a x + b (y - y_minus)
    ybar = mu + c x + d (y - y_minus)^2

with d != 0 (quadratic fold in y) and nonzero b, c.  The maps are exactly
these polynomials: no hidden higher-order terms.  Every coefficient is
finite; a bad one raises FieldError naming it.  For a saddle all
coefficients are scalars; for a saddle-focus x is a 2-vector, a is 2x2, and
b, c are 2-vectors (focus_global checks these shapes).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, partial

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


def apply_global(g: GlobalMapTaylor, x, y, mu=None, tangent=None, x_row=True):
    """Apply the excursion map to a point (x, y) near the unstable axis, or
    to arrays of such points.

    A vector x (saddle-focus) keeps its components on the last axis.  mu, a
    scalar or one value per point, replaces g.mu when given.  A tangent, a
    list [dx, dy] of scalars or arrays that broadcast with the points, gets
    the items (a dx + b dy, c.dx + 2 d (y - y_minus) dy) in their place.
    With x_row False the xbar row and the tangent's first item are not
    computed, and None stands in their place.
    """
    if mu is None:
        mu = g.mu
    dy = y - g.y_minus
    if g.x_dim == 1:
        x_plus, a, b, c = g.x_plus, g.a, g.b, g.c
        lin, col = operator.mul, (lambda v: v)
    else:
        x_plus, a, b, c = (np.asarray(v, dtype=float) for v in (g.x_plus, g.a, g.b, g.c))
        lin, col = apply_matrix, partial(np.expand_dims, axis=-1)
    if tangent is not None:
        tx, ty = tangent
        new_x = lin(a, tx) + b * col(ty) if x_row else None
        tangent[:] = new_x, lin(c, tx) + 2.0 * g.d * dy * ty
    ybar = mu + lin(c, x) + g.d * dy * dy
    return (x_plus + lin(a, x) + b * col(dy) if x_row else None), ybar


def saddle_global(
    x_plus=1.0, y_minus=1.0, a=0.0, b=1.0, c=1.0, d=1.0, mu=0.0
) -> GlobalMapTaylor:
    """Scalar-coefficient excursion map for the 2D saddle model."""
    return GlobalMapTaylor(
        x_plus=float(x_plus), y_minus=float(y_minus), a=float(a),
        b=float(b), c=float(c), d=float(d), mu=float(mu),
    )


def focus_global(x_plus, y_minus, a, b, c, d, mu=0.0) -> GlobalMapTaylor:
    """Vector-coefficient excursion map for the 3D saddle-focus model;
    FieldError unless x_plus, b and c are 2-vectors and a is 2x2."""
    arrays = dict(x_plus=x_plus, a=a, b=b, c=c)
    for name, value in arrays.items():
        arrays[name] = np.asarray(value, dtype=float)
        if arrays[name].shape != ((2, 2) if name == "a" else (2,)):
            raise FieldError(name, f"{name} must be " + ("2x2" if name == "a" else "a 2-vector"))
    return GlobalMapTaylor(y_minus=float(y_minus), d=float(d), mu=float(mu), **arrays)
