"""Scalar polynomial families whose fixed points organize stability windows.

Five families are supported:

    parabola         Ybar = M1 - Y^2
    cubic_plus       Ybar = M1 + M2*Y + Y^3
    cubic_minus      Ybar = M1 + M2*Y - Y^3
    double_parabola  Ybar = M2 - (M1 - Y^2)^2
    shrimp3          Ybar = M2 - (M1 - Y^2)^2 + M3*Y

Each family's formulas are written once, in the FAMILIES table, as nested
(inner parabola first) functions of (params, y) that work on floats and on
ndarrays alike.  eval_map, eval_jet and iterate_n call them with a parameter
tuple; the parameter-plane sweep (sweep.FamilyPlaneTarget) calls the same
value and slope with one array per parameter, so both get the same bits.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .errors import EscapeError

PARABOLA = "parabola"
CUBIC_PLUS = "cubic_plus"
CUBIC_MINUS = "cubic_minus"
DOUBLE_PARABOLA = "double_parabola"
SHRIMP3 = "shrimp3"

# The formulas of one family: value, slope (dYbar/dY) and higher (the
# derivatives of orders 2..4) take (params, y); coefficients gives the
# polynomial's coefficients [c0, c1, ...] in Y from params.
Family = namedtuple("Family", "arity value slope higher coefficients")


def _double_parabola(p, y):
    t = p[0] - y * y
    t *= t  # in place on arrays: the sweep steps allocate one temporary less
    return p[1] - t


def _quartic_higher(p, y):
    return (4.0 * (p[0] - y * y) - 8.0 * y * y, -24.0 * y, -24.0)


FAMILIES = {
    PARABOLA: Family(
        1, lambda p, y: p[0] - y * y, lambda p, y: -2.0 * y,
        lambda p, y: (-2.0, 0.0, 0.0), lambda p: [p[0], 0.0, -1.0]),
    CUBIC_PLUS: Family(
        2, lambda p, y: p[0] + p[1] * y + y * y * y, lambda p, y: p[1] + 3.0 * y * y,
        lambda p, y: (6.0 * y, 6.0, 0.0), lambda p: [p[0], p[1], 0.0, 1.0]),
    CUBIC_MINUS: Family(
        2, lambda p, y: p[0] + p[1] * y - y * y * y, lambda p, y: p[1] - 3.0 * y * y,
        lambda p, y: (-6.0 * y, -6.0, 0.0), lambda p: [p[0], p[1], 0.0, -1.0]),
    # the slope has no "+ 0.0" for the absent M3: the sweep calls it every step
    DOUBLE_PARABOLA: Family(
        2, _double_parabola, lambda p, y: 4.0 * (p[0] - y * y) * y,
        _quartic_higher, lambda p: [p[1] - p[0] * p[0], 0.0, 2.0 * p[0], 0.0, -1.0]),
    SHRIMP3: Family(
        3, lambda p, y: _double_parabola(p, y) + p[2] * y,
        lambda p, y: 4.0 * (p[0] - y * y) * y + p[2],
        _quartic_higher, lambda p: [p[1] - p[0] * p[0], p[2], 2.0 * p[0], 0.0, -1.0]),
}

FAMILY_ARITY = {name: family.arity for name, family in FAMILIES.items()}

DEFAULT_ESCAPE_RADIUS = 1.0e6


@dataclass(frozen=True)
class ModelMap:
    """A family name plus its parameter vector."""

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in FAMILY_ARITY:
            raise ValueError(f"unknown family '{self.family}'")
        params = tuple(float(p) for p in self.params)
        if len(params) != FAMILY_ARITY[self.family]:
            raise ValueError(
                f"{self.family} takes {FAMILY_ARITY[self.family]} parameters, "
                f"got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class Jet:
    """Value and Y-derivatives of orders 1..len(derivs) at a point."""

    value: float
    derivs: tuple


def param_index(family: str, name: str) -> int:
    """Position of parameter `name` (M1, M2, M3) in the family's vector, or
    -1 for 'dummy', an axis no parameter reads; ValueError if there is none."""
    if name == "dummy":
        return -1
    names = ("M1", "M2", "M3")[: FAMILY_ARITY[family]]
    if name not in names:
        raise ValueError(f"{family} has no parameter {name}")
    return names.index(name)


def eval_map(m: ModelMap, y: float) -> float:
    """Evaluate the family polynomial at y (nested form)."""
    if not math.isfinite(y):
        raise ValueError("state must be finite")
    return FAMILIES[m.family].value(m.params, y)


def eval_jet(m: ModelMap, y: float, order: int = 4) -> Jet:
    """Exact Y-derivatives of orders 1..order (order must be in 1..4)."""
    if not 1 <= order <= 4:
        raise ValueError("jet order must be in 1..4")
    family = FAMILIES[m.family]
    derivs = (family.slope(m.params, y),)
    if order > 1:
        derivs += family.higher(m.params, y)[: order - 1]
    return Jet(eval_map(m, y), derivs)


def iterate_n(
    m: ModelMap,
    y0: float,
    n: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
):
    """n-fold composition and the chain-rule product of first derivatives.

    The product is the orbit multiplier whenever the orbit is periodic.
    Raises EscapeError if the orbit leaves the escape radius.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    slope = FAMILIES[m.family].slope
    y = float(y0)
    prod = 1.0
    for step in range(n):
        prod *= slope(m.params, y)
        y = eval_map(m, y)
        if not math.isfinite(y) or abs(y) > escape_radius:
            raise EscapeError("orbit left the escape radius", step=step + 1, value=y)
    return y, prod


def poly_coefficients(m: ModelMap) -> list:
    """Coefficients [c0, c1, ...] of the family polynomial in Y.

    Exact for the integer/dyadic parameter values used in degeneracy checks.
    """
    return FAMILIES[m.family].coefficients(m.params)
