"""Parameter-plane rasterization of attractor type.

Each cell of an (nx, ny) grid gets one outcome: a detected minimal period, a
chaotic label with its Lyapunov exponent, or escape.

Cells are classified in blocks of _BLOCK cells taken in flat (raveled,
x-major) order, so the arrays of every stage stay in cache and a sweep's
memory is bounded by the block size rather than by nx * ny.  Within a block
each stage after the transient runs only on the cells that still need it:
Newton refinement on the cells still waiting for a label, the nudge re-run
on the parked cells, the Lyapunov loop on the cells still unlabelled.  No
stage lets one cell affect another, so the outcome of a cell depends neither
on the block size nor on how the grid is split across workers; parallel
sweeps are byte-identical to serial ones.

Classification per cell: discard a transient, look for a recurrence of
minimal period p <= max_period (confirmed twice at tolerance period_tol) with
an attracting cycle multiplier, otherwise measure the average log-derivative
over `samples` iterations and call the cell chaotic when it is positive.
Orbits that park exactly on a repelling cycle (it happens: the critical
orbit of the full-height parabola lands on its fixed point in floating
point) are nudged once by 1e-9 and re-classified; only those cells run the
transient and window again.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import NumericalError
from .families import FAMILIES, ModelMap, param_index
from .rescale import rescale_frame
from .returnmap import ReturnMapConfig

KIND_PERIOD = "period"
KIND_CHAOTIC = "chaotic"
KIND_ESCAPED = "escaped"

_CODE = {KIND_PERIOD: 1, KIND_CHAOTIC: 2, KIND_ESCAPED: 3}
_KIND = {v: k for k, v in _CODE.items()}

# Cells classified together: every stage of a sweep works on at most this many
# cells at once, so its arrays stay in cache and its memory is bounded.
_BLOCK = 16384


@dataclass(frozen=True)
class CellOutcome:
    kind: str
    period: int = 0
    lyap: float = 0.0


@dataclass(frozen=True)
class PlaneSpec:
    x_name: str
    x_lo: float
    x_hi: float
    y_name: str
    y_lo: float
    y_hi: float

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "y_lo", "y_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def x_values(self, nx):
        return np.linspace(self.x_lo, self.x_hi, nx)

    def y_values(self, ny):
        return np.linspace(self.y_lo, self.y_hi, ny)


class FamilyPlaneTarget:
    """Sweep target: a polynomial family with two of its parameters swept.

    The axis name 'dummy' is accepted for one-parameter families: the swept
    value is simply ignored, giving parameter-line sweeps a second axis.
    """

    def __init__(self, template: ModelMap, x_name: str, y_name: str):
        self.template = template
        self.ix = param_index(template.family, x_name)
        self.iy = param_index(template.family, y_name)

    def maps(self, p1, p2):
        """The family's value and slope (families.FAMILIES), one parameter point per cell."""
        P = [np.full_like(p1, v) for v in self.template.params]
        if self.ix >= 0:
            P[self.ix] = p1
        if self.iy >= 0:
            P[self.iy] = p2
        family = FAMILIES[self.template.family]
        return partial(family.value, P), partial(family.slope, P)

    def meta(self):
        return {
            "target": "family",
            "family": self.template.family,
            "params": ",".join(f"{p:.17g}" for p in self.template.params),
        }


class RescaledPlaneTarget:
    """Sweep target: the rescaled double-round map on its (M1, M2) plane.

    The cross coordinate is the dynamical variable; the leading state is held
    at the chart center.  Only the linear saddle model is vectorized.
    """

    def __init__(self, cfg: ReturnMapConfig):
        if cfg.local.kind != "saddle" or cfg.local.nonlinearity != "linear":
            raise NumericalError("rescaled sweeps support the linear saddle model")
        self.cfg = cfg

    def maps(self, m1, m2):
        cfg = self.cfg
        frame = rescale_frame(cfg)
        oc = cfg if cfg.ordering == "k_ge_m" else cfg.swapped()
        t1, t2, local = oc.t1, oc.t2, oc.local
        gamma = local.gamma
        lead_k = local.leading_power(oc.k)
        lead_m = local.leading_power(oc.m)
        mu1 = frame.mu1_center + m1 / frame.m1_scale
        mu2 = frame.mu2_center + m2 / frame.m2_scale
        x02 = frame.center_x2
        x11 = lead_k * x02
        x01 = t1.x_plus + t1.a * x11

        def f(y):
            y11 = frame.center_y1 + frame.beta1 * y
            y01 = mu1 + t1.c * x11 + t1.d * (y11 - t1.y_minus) ** 2
            y12 = gamma**oc.m * y01
            x12 = lead_m * (x01 + t1.b * (y11 - t1.y_minus))
            yb = mu2 + t2.c * x12 + t2.d * (y12 - t2.y_minus) ** 2
            return (gamma**oc.k * yb - frame.center_y1) / frame.beta1

        def df(y, h=1.0e-6):
            return (f(y + h) - f(y - h)) / (2.0 * h)

        return f, df

    def meta(self):
        oc = self.cfg
        return {
            "target": "rescaled_return",
            "k": str(oc.k),
            "m": str(oc.m),
            "lambda": f"{oc.local.lam:.17g}",
            "gamma": f"{oc.local.gamma:.17g}",
        }


@dataclass(frozen=True)
class SweepSpec:
    target: object
    plane: PlaneSpec
    nx: int
    ny: int
    transient: int = 1024
    max_period: int = 20
    samples: int = 4096
    escape_radius: float = 1.0e6
    seed_rule: str = "critical"
    seed_value: float = 0.0
    period_tol: float = 1.0e-6

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("resolution must be at least 2x2")
        if self.transient < 1 or self.max_period < 1 or self.samples < 1:
            raise ValueError("transient, max_period and samples must be >= 1")
        if not (math.isfinite(self.period_tol) and self.period_tol > 0.0):
            raise ValueError("period_tol must be finite and positive")
        if self.escape_radius <= 0.0:
            raise ValueError("escape_radius must be positive")
        if self.seed_rule not in ("critical", "fixed"):
            raise ValueError("seed_rule must be 'critical' or 'fixed'")

    def seed(self) -> float:
        return 0.0 if self.seed_rule == "critical" else self.seed_value


@dataclass(frozen=True)
class SweepGrid:
    spec: SweepSpec
    kind: np.ndarray
    period: np.ndarray
    lyap: np.ndarray

    def outcome(self, i: int, j: int) -> CellOutcome:
        code = int(self.kind[i, j])
        return CellOutcome(
            kind=_KIND[code], period=int(self.period[i, j]), lyap=float(self.lyap[i, j])
        )

    def same_cells(self, other: "SweepGrid") -> bool:
        return (
            np.array_equal(self.kind, other.kind)
            and np.array_equal(self.period, other.period)
            and np.array_equal(self.lyap, other.lyap)
        )


def _escape_check(y, esc, radius, mag, ok):
    """Flag cells whose state left the radius (NaN and inf included); zero them.

    `mag` and `ok` are scratch arrays of y's size, reused across steps.
    Zeroing uses np.putmask: on a 16,384-cell block np.copyto(..., where=)
    measured about 25% slower per step (NumPy 2.4, 2-vCPU Xeon VM).
    """
    np.abs(y, out=mag)
    np.less_equal(mag, radius, out=ok)
    np.logical_not(ok, out=ok)
    esc |= ok
    np.putmask(y, esc, 0.0)


def _orbit_window(f, y, radius, transient, length):
    """Discard `transient` steps from y, then record `length` states in S.

    S[0] is the state after the transient.  Escaped cells are flagged in esc
    and held at 0.  Returns (S, y, esc) with y the last state.
    """
    esc = np.zeros(y.size, dtype=bool)
    mag, ok = np.empty(y.size), np.empty(y.size, dtype=bool)
    for _ in range(transient):
        y = f(y)
        _escape_check(y, esc, radius, mag, ok)
    S = np.empty((length, y.size))
    S[0] = y
    for t in range(1, length):
        y = f(y)
        _escape_check(y, esc, radius, mag, ok)
        S[t] = y
    return S, y, esc


def _newton_orbit(f, df, y0, d, iterations=12):
    """Vectorized Newton on the d-fold fixed-point equation from seeds y0.

    Returns (root, residual, multiplier); non-converging entries keep their
    last iterate and a large residual.
    """
    y = y0.copy()
    for _ in range(iterations):
        v = y.copy()
        dp = np.ones_like(y)
        for _ in range(d):
            dp = dp * df(v)
            v = f(v)
        g = v - y
        gp = dp - 1.0
        safe = np.abs(gp) > 1.0e-14
        step = np.where(safe, g / np.where(safe, gp, 1.0), 0.0)
        y = y - step
        y = np.where(np.isfinite(y), y, y0)
    v = y.copy()
    dp = np.ones_like(y)
    for _ in range(d):
        dp = dp * df(v)
        v = f(v)
    return y, np.abs(v - y), dp


def _detect_periods(S, target, p1, p2, open_mask, tol, max_period):
    """Classify cells by minimal period.

    A confirmed recurrence of period p only nominates a candidate; the label
    is the smallest divisor d of p whose Newton-refined d-cycle through the
    orbit is attracting.  This keeps slowly converging orbits near flips from
    masquerading as double-period cycles (their alternating tails recur at
    period 2 long before they settle).  Newton runs, for each d, only on the
    cells still waiting for a label.
    """
    n = S.shape[1]
    candidate = np.zeros(n, dtype=np.int32)
    for p in range(1, max_period + 1):
        rec = (
            (np.abs(S[p] - S[0]) < tol)
            & (np.abs(S[2 * p] - S[p]) < tol)
            & open_mask
            & (candidate == 0)
        )
        candidate[rec] = p
    period = np.zeros(n, dtype=np.int32)
    for d in range(1, max_period + 1):
        idx = np.flatnonzero((candidate > 0) & (candidate % d == 0) & (period == 0))
        if not idx.size:
            continue
        f, df = target.maps(p1[idx], p2[idx])
        seed = S[0, idx]
        root, resid, mult = _newton_orbit(f, df, seed, d)
        spread = np.abs(S[d, idx] - seed)
        good = (
            (resid < 1.0e-10 * (1.0 + np.abs(root)))
            & (np.abs(mult) < 1.0)
            & (np.abs(root - seed) < 0.5 + 2.0 * spread)
        )
        period[idx[good]] = d
    parked = (candidate > 0) & (period == 0)
    return period, parked


def _lyapunov(f, df, y, radius, samples):
    acc = np.zeros(y.size)
    esc = np.zeros(y.size, dtype=bool)
    mag, ok = np.empty(y.size), np.empty(y.size, dtype=bool)
    for _ in range(samples):
        d = np.abs(df(y))
        np.maximum(d, 1.0e-15, out=d)
        acc += np.log(d, out=d)
        y = f(y)
        _escape_check(y, esc, radius, mag, ok)
    return acc / samples, esc


def _relaxed_period(S, max_period, tol=1.0e-3):
    """Best-recurrence fallback for cells that defeated both detectors."""
    n = S.shape[1]
    period = np.zeros(n, dtype=np.int32)
    best = np.full(n, np.inf)
    for p in range(1, max_period + 1):
        err = np.maximum(np.abs(S[p] - S[0]), np.abs(S[2 * p] - S[p]))
        take = (err < best) & (err < tol)
        period[take] = p
        best = np.where(take, err, best)
    return period


def _scan_block(spec: SweepSpec, p1, p2, kind, period, lyap):
    """Classify one block of cells, writing into the kind/period/lyap views."""
    target = spec.target
    f, _ = target.maps(p1, p2)
    radius = spec.escape_radius
    window = 2 * spec.max_period + 1

    S, y, esc = _orbit_window(f, np.full(p1.size, spec.seed()), radius, spec.transient, window)
    per, parked = _detect_periods(S, target, p1, p2, ~esc, spec.period_tol, spec.max_period)
    kind[per > 0] = _CODE[KIND_PERIOD]
    period[:] = per

    idx = np.flatnonzero(parked)
    if idx.size:
        # nudge the parked cells off their repelling cycle and classify them again
        fp, _ = target.maps(p1[idx], p2[idx])
        S2, yp, escp = _orbit_window(fp, S[0, idx] + 1.0e-9, radius, spec.transient, window)
        per2, _ = _detect_periods(
            S2, target, p1[idx], p2[idx], ~escp, spec.period_tol, spec.max_period
        )
        newly = per2 > 0
        kind[idx[newly]] = _CODE[KIND_PERIOD]
        period[idx[newly]] = per2[newly]
        S[:, idx] = S2
        y[idx] = yp
        esc[idx] = escp

    kind[esc] = _CODE[KIND_ESCAPED]
    period[esc] = 0

    idx = np.flatnonzero(kind == 0)
    if not idx.size:
        return
    fa, dfa = target.maps(p1[idx], p2[idx])
    lam, esca = _lyapunov(fa, dfa, y[idx], radius, spec.samples)
    kind[idx[esca]] = _CODE[KIND_ESCAPED]
    chaotic = ~esca & (lam > 0.0)
    kind[idx[chaotic]] = _CODE[KIND_CHAOTIC]
    lyap[idx[chaotic]] = lam[chaotic]
    left = ~esca & ~chaotic
    if left.any():
        cells = idx[left]
        per3 = _relaxed_period(S[:, cells], spec.max_period)
        settled = per3 > 0
        kind[cells[settled]] = _CODE[KIND_PERIOD]
        period[cells[settled]] = per3[settled]
        stray = ~settled
        kind[cells[stray]] = _CODE[KIND_CHAOTIC]
        lyap[cells[stray]] = lam[left][stray]


def _scan_cells(spec: SweepSpec, p1: np.ndarray, p2: np.ndarray):
    """Classify the cells (p1[k], p2[k]), one block of _BLOCK cells at a time."""
    n = p1.size
    kind = np.zeros(n, dtype=np.uint8)
    period = np.zeros(n, dtype=np.int32)
    lyap = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            _scan_block(spec, p1[lo:hi], p2[lo:hi], kind[lo:hi], period[lo:hi], lyap[lo:hi])
    return kind, period, lyap


def attractor_scan(target, point, spec: SweepSpec) -> CellOutcome:
    """Classify a single parameter point with the sweep machinery."""
    spec = replace(spec, target=target)
    p1 = np.array([float(point[0])])
    p2 = np.array([float(point[1])])
    kind, period, lyap = _scan_cells(spec, p1, p2)
    return CellOutcome(kind=_KIND[int(kind[0])], period=int(period[0]), lyap=float(lyap[0]))


def _sweep_cells(spec: SweepSpec, lo: int, hi: int):
    """Classify the grid cells lo..hi-1 of the flat (raveled, x-major) order."""
    cells = np.arange(lo, hi)
    p1 = spec.plane.x_values(spec.nx)[cells // spec.ny]
    p2 = spec.plane.y_values(spec.ny)[cells % spec.ny]
    return _scan_cells(spec, p1, p2)


def plane_sweep(spec: SweepSpec, workers: int = 1) -> SweepGrid:
    """Rasterize the plane; output is identical for any worker count."""
    n = spec.nx * spec.ny
    if workers <= 1:
        kind, period, lyap = _sweep_cells(spec, 0, n)
    else:
        # at least one piece per worker, and no piece larger than a block
        step = math.ceil(n / max(workers, math.ceil(n / _BLOCK)))
        los = range(0, n, step)
        his = [min(lo + step, n) for lo in los]
        with ProcessPoolExecutor(max_workers=min(workers, len(los))) as pool:
            parts = list(pool.map(_sweep_cells, [spec] * len(los), los, his))
        kind, period, lyap = (np.concatenate(column) for column in zip(*parts))
    shape = (spec.nx, spec.ny)
    return SweepGrid(
        spec=spec, kind=kind.reshape(shape), period=period.reshape(shape), lyap=lyap.reshape(shape)
    )


@dataclass(frozen=True)
class GridComponent:
    period: int
    cell_count: int
    bbox: tuple
    cells: tuple


def shrimp_locate(grid: SweepGrid, period: int):
    """4-connected components of cells carrying the given period."""
    mask = (grid.kind == _CODE[KIND_PERIOD]) & (grid.period == period)
    seen = np.zeros_like(mask, dtype=bool)
    nx, ny = mask.shape
    components = []
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j] or seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            cells = []
            while stack:
                a, b = stack.pop()
                cells.append((a, b))
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < nx and 0 <= nb < ny and mask[na, nb] and not seen[na, nb]:
                        seen[na, nb] = True
                        stack.append((na, nb))
            arr = np.array(cells)
            bbox = (
                int(arr[:, 0].min()),
                int(arr[:, 0].max()),
                int(arr[:, 1].min()),
                int(arr[:, 1].max()),
            )
            components.append(
                GridComponent(
                    period=period,
                    cell_count=len(cells),
                    bbox=bbox,
                    cells=tuple(map(tuple, cells)),
                )
            )
    components.sort(key=lambda c: -c.cell_count)
    return components
