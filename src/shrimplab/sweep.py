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

A cell has escaped when its state left escape_radius at some step, NaN and
inf included.  The orbit stages keep a running maximum of |y| (np.maximum,
which propagates NaN) instead of testing each step, and test it only where
the escape set is needed; escape is sticky, so this flags exactly the cells
a per-step test flags, and it never alters an orbit that stays inside.
After the first 64 transient steps (_DROP_STEP) the cells that have already
escaped are dropped from the block, and the escaped cells' recorded states
are set to 0.

The map is a pure function of the state, so once a state repeats bit for bit
the orbit repeats forever.  After the drop, every _CHECK = 128 transient
steps the last _RING = 32 states are kept in a ring, and a cell whose newest
state t has the bits of the state t - q, for some q < 32, is retired: its
recorded states and last state are read out of the ring (the state at step
s >= t - q is that of step t - q + (s - t) mod q), and it has escaped exactly
when it had by step t, since its later states all lie in the ring.  Comparing
bits rather than floats keeps +0 and -0 apart and needs no rule for NaN; an
orbit stuck at +-inf repeats too and stays escaped.  Retirement changes no
output bit; on the 512^2 acceptance window it retires 191,101 of 262,144
cells and cuts the map steps per cell from 2,001 to 670.

The stages step through target.stepper, the family's in-place step
(families.FAMILIES; fused for the double parabola) that overwrites a state
buffer the stage owns and writes the slope into a second one on request,
with the bits of the family's value and slope.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import FieldError
from .families import FAMILIES, ModelMap, param_index
from .rescale import _oriented, _stages, rescale_frame
from .returnmap import ReturnMapConfig

KIND_PERIOD = "period"
KIND_CHAOTIC = "chaotic"
KIND_ESCAPED = "escaped"

_CODE = {KIND_PERIOD: 1, KIND_CHAOTIC: 2, KIND_ESCAPED: 3}
_KIND = {v: k for k, v in _CODE.items()}

# Cells classified together: every stage of a sweep works on at most this many
# cells at once, so its arrays stay in cache and its memory is bounded.
_BLOCK = 16384
# The transient step after which the cells that have already escaped are
# dropped from a block (half of the escaping cells of the 512^2 acceptance
# window have left by step 5, 99% by step 30).
_DROP_STEP = 64
# After the drop, every _CHECK transient steps the last _RING states are kept
# and the cells whose orbit has repeated bit for bit are retired.
_CHECK = 128
_RING = 32


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
                raise FieldError(name, f"{name} must be finite")

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

    def _params(self, p1, p2):
        P = list(self.template.params)
        if self.ix >= 0:
            P[self.ix] = p1
        if self.iy >= 0:
            P[self.iy] = p2
        return P

    def maps(self, p1, p2):
        """The family's value and slope (families.FAMILIES), one parameter point per cell."""
        family = FAMILIES[self.template.family]
        P = self._params(p1, p2)
        return partial(family.value, P), partial(family.slope, P)

    def stepper(self, p1, p2):
        """The family's in-place step(y, dy=None) (families.FAMILIES), one parameter
        point per cell."""
        return partial(FAMILIES[self.template.family].step, self._params(p1, p2))

    def meta(self):
        return {
            "target": "family",
            "family": self.template.family,
            "params": ",".join(f"{p:.17g}" for p in self.template.params),
        }


class RescaledPlaneTarget:
    """Sweep target: the rescaled double-round map on its (M1, M2) plane.

    The cross coordinate Y is the dynamical variable and the leading state is
    held at the chart center X = 0: a step is the composition of
    rescale._pipeline at X = 0, for every local model.  A cell whose
    cross-form solve fails gets NaN and is classified escaped.
    """

    def __init__(self, cfg: ReturnMapConfig):
        self.cfg = cfg

    @cached_property
    def frame(self):
        """The rescaling frame, built once per target on first use."""
        return rescale_frame(self.cfg)

    def stepper(self, m1, m2):
        """The fused in-place step(y, dy=None) of families.FAMILIES: y becomes
        Ybar(y) and, given dy, dy the exact slope at the old y, from one pass
        of rescale._stages in _pipeline's charts (without its escape flags
        and Xbar, which the sweep does not use)."""
        oc, frame = _oriented(self.cfg)[0], self.frame
        mu1, mu2 = frame.mus_for(m1, m2)
        x02 = frame.center_x2  # X = 0
        along_y = (np.zeros(np.shape(x02)), frame.beta1)  # (dx02, dy11) of a unit dY

        def step(y, dy=None):
            tangent = None if dy is None else along_y
            _, _, yb11, _, _, _, tangents = _stages(
                oc, x02, frame.chart_y(y), mu1, mu2, np.inf, tangent
            )
            y[...] = frame.chart_y_inv(yb11)
            if dy is not None:
                np.divide(tangents[2], frame.beta1, out=dy)

        return step

    def maps(self, m1, m2):
        """The value and slope of stepper's composition, as functions of y."""
        step = self.stepper(m1, m2)

        def f(y, slope=False):
            y = np.array(y, dtype=float)
            dy = np.empty_like(y) if slope else None
            step(y, dy)
            return dy if slope else y

        return f, partial(f, slope=True)

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
        for name, least in (("nx", 2), ("ny", 2), ("transient", 1), ("max_period", 1),
                            ("samples", 1)):
            if getattr(self, name) < least:
                raise FieldError(name, f"{name} must be at least {least}")
        for name in ("period_tol", "escape_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise FieldError(name, f"{name} must be finite and positive")
        if self.seed_rule not in ("critical", "fixed"):
            raise FieldError("seed_rule", "seed_rule must be 'critical' or 'fixed'")

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


def _advance(step, y, top, mag, steps):
    """Step y in place `steps` times, keeping top as the running maximum of |y|.

    np.maximum propagates NaN, so a cell has left the radius at some step
    exactly when ~(top <= radius) at the end; NaN and inf count as escape.
    `mag` is scratch of y's size.
    """
    for _ in range(steps):
        step(y)
        np.abs(y, out=mag)
        np.maximum(top, mag, out=top)


def _cycle_lags(ring):
    """Per cell, the smallest lag q in 1.._RING-1 with ring[-1] == ring[-1-q]
    bit for bit, or 0 when there is none."""
    bits = ring.view(np.uint64)
    lag = np.zeros(ring.shape[1], dtype=np.int64)
    for q in range(_RING - 1, 0, -1):
        lag[bits[-1] == bits[-1 - q]] = q
    return lag


def _orbit_window(target, p1, p2, y, radius, transient, length):
    """Discard `transient` steps from y, then record `length` states in S.

    S[0] is the state after the transient.  Escaped cells are flagged in esc
    and their S and y are 0.  Cells that escape within the first
    min(transient, _DROP_STEP) steps are dropped there, cells whose orbit
    repeats bit for bit are retired at the checkpoints (module docstring),
    and the step is rebuilt on the cells left each time.  Returns (S, y, esc)
    with y the last state; the caller's y is not written.
    """
    n = y.size
    y = y.copy()
    step = target.stepper(p1, p2)
    top, mag = np.zeros(n), np.empty(n)
    t = min(transient, _DROP_STEP)
    _advance(step, y, top, mag, t)
    S = np.zeros((length, n))
    esc = np.ones(n, dtype=bool)
    live = np.arange(n)
    keep = top <= radius
    ring = None
    while True:
        if not keep.all():
            live, y, top = live[keep], y[keep], top[keep]
            mag = mag[: live.size]
            step = target.stepper(p1[live], p2[live])
        if t + _CHECK > transient or not live.size:
            break
        if ring is None:
            ring = np.empty((_RING, live.size))
        R = ring[:, : live.size]
        _advance(step, y, top, mag, _CHECK - _RING)
        for r in R:
            _advance(step, y, top, mag, 1)
            r[:] = y
        t += _CHECK
        # the state at step s >= t - q of a cell with lag q is the ring row of
        # step t - q + (s - t) mod q
        lag = _cycle_lags(R)
        keep = lag == 0
        out = np.flatnonzero(~keep)
        if out.size:
            q, cells = lag[out], live[out]
            for w in range(length):  # row by row: no (length, cells) temporaries
                S[w, cells] = R[_RING - 1 - q + (transient + w - t) % q, out]
            esc[cells] = ~(top[out] <= radius)
    if live.size:
        _advance(step, y, top, mag, transient - t)
        S[0, live] = y
        for w in range(1, length):
            _advance(step, y, top, mag, 1)
            S[w, live] = y
        esc[live] = ~(top <= radius)
    S[:, esc] = 0.0
    return S, S[-1].copy(), esc


def _newton_orbit(step, y0, d, iterations=12):
    """Vectorized Newton on the d-fold fixed-point equation from seeds y0.

    Returns (root, residual, multiplier); non-converging entries keep their
    last iterate and a large residual.
    """
    y = y0.copy()
    v, dv = np.empty_like(y), np.empty_like(y)
    for _ in range(iterations):
        np.copyto(v, y)
        dp = np.ones_like(y)
        for _ in range(d):
            step(v, dv)
            dp *= dv
        g = v - y
        gp = dp - 1.0
        safe = np.abs(gp) > 1.0e-14
        move = np.where(safe, g / np.where(safe, gp, 1.0), 0.0)
        y = y - move
        y = np.where(np.isfinite(y), y, y0)
    np.copyto(v, y)
    dp = np.ones_like(y)
    for _ in range(d):
        step(v, dv)
        dp *= dv
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
        seed = S[0, idx]
        root, resid, mult = _newton_orbit(target.stepper(p1[idx], p2[idx]), seed, d)
        spread = np.abs(S[d, idx] - seed)
        good = (
            (resid < 1.0e-10 * (1.0 + np.abs(root)))
            & (np.abs(mult) < 1.0)
            & (np.abs(root - seed) < 0.5 + 2.0 * spread)
        )
        period[idx[good]] = d
    parked = (candidate > 0) & (period == 0)
    return period, parked


def _lyapunov(step, y, radius, samples):
    """Average log|slope| over `samples` steps from y, and the escape flags.

    y is stepped in place.  Escape is tracked as in _advance; escaped cells'
    exponents are not meaningful.
    """
    acc = np.zeros(y.size)
    top, mag, d = np.zeros(y.size), np.empty(y.size), np.empty(y.size)
    for _ in range(samples):
        step(y, d)
        np.abs(d, out=d)
        np.maximum(d, 1.0e-15, out=d)
        acc += np.log(d, out=d)
        np.abs(y, out=mag)
        np.maximum(top, mag, out=top)
    return acc / samples, ~(top <= radius)


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
    radius = spec.escape_radius
    window = 2 * spec.max_period + 1

    S, y, esc = _orbit_window(
        target, p1, p2, np.full(p1.size, spec.seed()), radius, spec.transient, window
    )
    per, parked = _detect_periods(S, target, p1, p2, ~esc, spec.period_tol, spec.max_period)
    kind[per > 0] = _CODE[KIND_PERIOD]
    period[:] = per

    idx = np.flatnonzero(parked)
    if idx.size:
        # nudge the parked cells off their repelling cycle and classify them again
        S2, yp, escp = _orbit_window(
            target, p1[idx], p2[idx], S[0, idx] + 1.0e-9, radius, spec.transient, window
        )
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
    lam, esca = _lyapunov(target.stepper(p1[idx], p2[idx]), y[idx], radius, spec.samples)
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
    # a fault in one cell's arithmetic must not abort the sweep: the cell's
    # inf or NaN is classified like any other value
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    """4-connected components of cells carrying the given period, largest first.

    The mask is cut into runs along j, one row i at a time; runs of adjacent
    rows that share a column are joined (union-find over runs), and cells are
    grouped by the first run of their component.  Components of equal size
    come in the raster order of their first cell, and each component's
    `cells` are in raster (i, then j) order.
    """
    mask = (grid.kind == _CODE[KIND_PERIOD]) & (grid.period == period)
    ny = mask.shape[1]
    edge = np.diff(mask.astype(np.int8), axis=1, prepend=0, append=0)
    row, lo = np.nonzero(edge == 1)
    hi = np.nonzero(edge == -1)[1]
    if not row.size:
        return []
    # runs in raster order; run b touches the runs a of row[b] - 1 with
    # lo[a] < hi[b] and hi[a] > lo[b], a contiguous range [first, last]
    width = ny + 1
    above = (row - 1) * width
    first = np.searchsorted(row * width + hi, above + lo, side="right")
    last = np.searchsorted(row * width + lo, above + hi, side="left") - 1
    count = np.maximum(last - first + 1, 0)
    b = np.repeat(np.arange(row.size), count)
    a = np.repeat(first - np.cumsum(count) + count, count) + np.arange(b.size)
    parent = list(range(row.size))

    def root(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for ra, rb in zip(a.tolist(), b.tolist()):
        ra, rb = root(ra), root(rb)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)  # a component's root is its first run
    run_root = np.array([root(r) for r in range(row.size)], dtype=np.int64)
    cell_root = np.repeat(run_root, hi - lo)
    order = np.argsort(cell_root, kind="stable")
    ci, cj = np.divmod(np.flatnonzero(mask)[order], ny)
    starts = np.flatnonzero(np.diff(cell_root[order], prepend=-1))
    sizes = np.diff(starts, append=ci.size)
    bbox = zip(
        ci[starts].tolist(),
        ci[starts + sizes - 1].tolist(),
        np.minimum.reduceat(cj, starts).tolist(),
        np.maximum.reduceat(cj, starts).tolist(),
    )
    cells = list(zip(ci.tolist(), cj.tolist()))
    components = [
        GridComponent(period=period, cell_count=size, bbox=box, cells=tuple(cells[s : s + size]))
        for s, size, box in zip(starts.tolist(), sizes.tolist(), bbox)
    ]
    components.sort(key=lambda c: -c.cell_count)
    return components
