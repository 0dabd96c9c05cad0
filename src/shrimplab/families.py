"""Scalar polynomial families whose fixed points organize stability windows.

Five families are supported:

    parabola         Ybar = M1 - Y^2
    cubic_plus       Ybar = M1 + M2*Y + Y^3
    cubic_minus      Ybar = M1 + M2*Y - Y^3
    double_parabola  Ybar = M2 - (M1 - Y^2)^2
    shrimp3          Ybar = M2 - (M1 - Y^2)^2 + M3*Y

Each family's formulas are written once, in the FAMILIES table, as nested
(inner parabola first) functions of (params, y) that work on floats and on
ndarrays alike.  bifurcation.FamilyYMap, the one scalar view of a family,
calls them with a parameter tuple; the parameter-plane sweep
(sweep.FamilyPlaneTarget) calls the same value and slope with one array or
float per parameter, so both get the same bits.

Each family also has `partials(params, y)`: for each of its parameters p, in
order, the pair (df/dp, df_y/dp) of the first parameter derivatives of the
value and of the slope.  Continuation carries them along an orbit to build
its bordered Jacobians exactly (bifurcation.orbit_pass).

Each family also has an in-place `step(params, y, dy=None)` for the sweep's
ndarray loops: it overwrites y with value(params, y) and, given dy, writes
slope(params, y) of the old y into dy.  It runs the exact operations of value
and slope, in the same order, so its bits are theirs; it writes nothing but y
and dy, and never reads dy.  Only double_parabola, the family of the
acceptance window, has a hand-fused step; the others call value and slope.

trap_radius gives, per parameter point, the radius outside which one step at
least doubles |y|, read off the family's own value, slope and higher at 0;
the sweep uses it to learn where leaving the escape radius is absorbing.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import FieldError

PARABOLA = "parabola"
CUBIC_PLUS = "cubic_plus"
CUBIC_MINUS = "cubic_minus"
DOUBLE_PARABOLA = "double_parabola"
SHRIMP3 = "shrimp3"

# The formulas of one family: value, slope (dYbar/dY), higher (the
# derivatives of orders 2..4) and partials (per parameter, the derivatives of
# value and slope in it) take (params, y); step is the in-place value and
# slope of ndarrays (module docstring).
Family = namedtuple("Family", "arity value slope step higher partials")


def _double_parabola(p, y):
    t = p[0] - y * y
    return p[1] - t * t


def _double_parabola_slope(p, y):
    return 4.0 * (p[0] - y * y) * y


def _quartic_higher(p, y):
    return (4.0 * (p[0] - y * y) - 8.0 * y * y, -24.0 * y, -24.0)


def _double_parabola_partials(p, y):
    return ((-2.0 * (p[0] - y * y), 4.0 * y), (1.0, 0.0))


def _unfused(value, slope):
    """The step of a family whose value and slope share no subexpression:
    y becomes value(y) and, given dy, dy the slope at the old y."""
    def step(p, y, dy=None):
        if dy is not None:
            dy[...] = slope(p, y)
        y[...] = value(p, y)

    return step


def _double_parabola_step(p, y, dy=None):
    # t = M1 - y*y once: the slope is (4.0*t)*y and the value M2 - t*t; without
    # a slope, t is formed in y itself and the step allocates nothing
    if dy is None:
        np.multiply(y, y, out=y)
        np.subtract(p[0], y, out=y)
        np.multiply(y, y, out=y)
        np.subtract(p[1], y, out=y)
        return
    t = y * y
    np.subtract(p[0], t, out=t)
    np.multiply(4.0, t, out=dy)
    dy *= y
    t *= t
    np.subtract(p[1], t, out=y)


_parabola = (lambda p, y: p[0] - y * y, lambda p, y: -2.0 * y)
_cubic_plus = (lambda p, y: p[0] + p[1] * y + y * y * y, lambda p, y: p[1] + 3.0 * y * y)
_cubic_minus = (lambda p, y: p[0] + p[1] * y - y * y * y, lambda p, y: p[1] - 3.0 * y * y)
_shrimp3 = (
    lambda p, y: _double_parabola(p, y) + p[2] * y,
    lambda p, y: _double_parabola_slope(p, y) + p[2],
)

FAMILIES = {
    PARABOLA: Family(
        1, *_parabola, _unfused(*_parabola),
        lambda p, y: (-2.0, 0.0, 0.0), lambda p, y: ((1.0, 0.0),)),
    CUBIC_PLUS: Family(
        2, *_cubic_plus, _unfused(*_cubic_plus),
        lambda p, y: (6.0 * y, 6.0, 0.0), lambda p, y: ((1.0, 0.0), (y, 1.0))),
    CUBIC_MINUS: Family(
        2, *_cubic_minus, _unfused(*_cubic_minus),
        lambda p, y: (-6.0 * y, -6.0, 0.0), lambda p, y: ((1.0, 0.0), (y, 1.0))),
    # the slope has no "+ 0.0" for the absent M3, which would turn a -0.0 slope into +0.0
    DOUBLE_PARABOLA: Family(
        2, _double_parabola, _double_parabola_slope, _double_parabola_step,
        _quartic_higher, _double_parabola_partials),
    SHRIMP3: Family(
        3, *_shrimp3, _unfused(*_shrimp3),
        _quartic_higher, lambda p, y: _double_parabola_partials(p, y) + ((y, 1.0),)),
}

def trap_radius(family: Family, params):
    """Per parameter point, the family's trap radius R*: outside it one step
    at least doubles |y|, so an orbit that has left R* never comes back.

    With f = sum c_i y^i of degree n >= 2 (every family has n <= 4; c_i =
    f^(i)(0) / i! from the family's value, slope and higher at 0) and
    S = sum_{i<n} |c_i|, R* = max(1, 2 (1 + S) / |c_n|): for |y| >= R*,
    |f(y)| >= |y|^(n-1) (|c_n| |y| - S) >= |y|^(n-1) (2 + S) >= 2 |y|.  The
    factor 2 leaves room for round-off, and f maps +-inf to +-inf or NaN.
    R* is inf at a point where f has degree below 2, and inf or NaN where
    a coefficient overflows.
    """
    jet = (family.value(params, 0.0), family.slope(params, 0.0), *family.higher(params, 0.0))
    below = lead = 0.0
    degree = 0
    for i, value in enumerate(jet):
        c = np.abs(value) / math.factorial(i)
        nonzero = c != 0.0
        below = np.where(nonzero, below + lead, below)  # S of the degree so far
        lead = np.where(nonzero, c, lead)
        degree = np.where(nonzero, i, degree)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        radius = np.maximum(1.0, 2.0 * (1.0 + below) / lead)
    return np.where(degree >= 2, radius, np.inf)


@dataclass(frozen=True)
class ModelMap:
    """A family name plus its parameter vector."""

    family: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", family_params(self.family, self.params))


def family_params(family: str, params) -> tuple:
    """params as a tuple of floats; FieldError on family unless it is known,
    on params unless they are as many finite numbers as it has parameters."""
    if family not in FAMILIES:
        raise FieldError("family", f"unknown family '{family}'")
    params, arity = tuple(map(float, params)), FAMILIES[family].arity
    if len(params) != arity:
        raise FieldError("params", f"{family} takes {arity} parameters, got {len(params)}")
    if not all(map(math.isfinite, params)):
        raise FieldError("params", "parameters must be finite")
    return params


def param_index(family: str, name: str, field: str) -> int:
    """Slot of parameter `name` (M1, M2, M3) in the family's vector; for
    'dummy', an axis no parameter reads, the slot just past them, which the
    family's formulas never read.  FieldError on field if there is none."""
    names = ("M1", "M2", "M3")[: FAMILIES[family].arity] + ("dummy",)
    if name not in names:
        raise FieldError(field, f"{family} has no parameter {name}")
    return names.index(name)
