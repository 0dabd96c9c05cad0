"""Parameter-plane rasterization of attractor type.

Each cell of an (nx, ny) grid gets one outcome: a detected minimal period, a
chaotic label with its Lyapunov exponent, escape, or unresolved with its
Lyapunov exponent.

Cells start in blocks of _BLOCK cells taken in flat (raveled, x-major)
order.  The head of a block runs its orbits to the first retirement
checkpoint (below; the step-64 drop when no checkpoint fits in the
transient), and the cells that are done by then, escaped or retired, are
settled from their window: escapes are labelled, and the recurrence test
runs on these cells only.  The long tail is pooled across blocks in three
queues of at most _BLOCK cells, each run as one batch when it is full and
at the end: the tail queue holds the cells still running, all at the same
step, with their state and running maximum, and runs the rest of the
transient and the window; the candidate queue holds the cells with a
recurrence, with their first and last window state, and runs the Newton
refinement once per divisor; the Lyapunov queue (_Scan.unlabelled) holds
the cells left unlabelled, with their last state.  So every stage works on
full batches (on the 512^2 acceptance window a block has 1,000 to 8,000
cells left after the first checkpoint), and a sweep's memory is bounded by
one head block and the three queues rather than by nx * ny; the cells'
parameters are looked up per batch.  Within a batch each stage runs only
on the cells that still need it: Newton refinement on the cells still
waiting for a label, the nudge re-run on the parked cells.  Each cell
keeps its own steps and checkpoint schedule, and no stage lets one cell
affect another, so the outcome of a cell depends neither on the block size
or the batching nor on how the grid is split across workers; parallel
sweeps are byte-identical to serial ones.

Classification per cell, along one path: discard a transient, look for a
recurrence of minimal period p <= max_period (confirmed twice at tolerance
period_tol) whose Newton-refined cycle is attracting, otherwise measure the
average log-derivative (the Lyapunov exponent) over `samples` iterations and
call the cell chaotic when it is positive.  A cell that is neither, and has
not escaped, is unresolved and keeps its exponent: no detector confirmed a
label for it (most such cells are periods above max_period, or orbits still
converging slowly near a flip).  Orbits that park exactly on a repelling
cycle (it happens: the critical orbit of the full-height parabola lands on
its fixed point in floating point) are nudged once by 1e-9 and
re-classified; only those cells run the transient and window again, as a
head of their own whose survivors join the tail queue.  A per-cell flag
(_Scan.nudged) marks them, so a cell that parks again is not nudged twice.

A cell has escaped when its state left escape_radius at some step, NaN and
inf included.  The orbit stages do not test each step.  When the radius is
at least the trap radius of every cell of a batch (FamilyPlaneTarget.trap,
from families.trap_radius: outside it one step at least doubles |y|),
leaving the radius is absorbing, and so is NaN: the stages read |y| only at
the drop, at the checkpoints and at the end (_absorbing).  Otherwise (a
radius below some cell's trap radius, or a target without a trap, such as
the rescaled map) they keep a running maximum of |y| (np.maximum, which
propagates NaN) and test it only where the escape set is needed.  Either
way escape is sticky, so this flags exactly the cells a per-step test
flags, and it never alters an orbit that stays inside.  After the first 64
transient steps (_DROP_STEP) the cells that have already escaped are
dropped from the block, and the escaped cells' recorded states are set to 0.

The map is a pure function of the state, so once a state repeats bit for bit
the orbit repeats forever.  After the drop, every _CHECK = 128 transient
steps the last _RING = 32 states are kept in a ring (rows of the window
buffer, which the window rows overwrite later), and a cell whose newest
state t has the bits of the state t - q, for some q < 32, is retired: its
state at step `transient` is read out of the ring (the state at step
s >= t - q is that of step t - q + (s - t) mod q), and its other window
states are stepped from that one at the end of the run; it has escaped
exactly when it had by step t, since its later states all lie in the ring.
Comparing bits rather than floats keeps +0 and -0 apart and needs no rule
for NaN; an orbit stuck at +-inf repeats too and stays escaped.  Retirement
changes no output bit; on the 512^2 acceptance window it retires 191,101
of 262,144 cells and cuts the map steps per cell from 2,001 to about 680.

The stages step through target.stepper, the family's in-place step
(families.FAMILIES; fused for the double parabola) that overwrites a state
buffer the stage owns and writes the slope into a second one on request,
with the bits of the family's value and slope.
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import FieldError
from .families import FAMILIES, ModelMap, param_index, trap_radius
from .local import DEFAULT_ESCAPE_RADIUS
from .rescale import _stages, rescale_frame
from .returnmap import ReturnMapConfig

KIND_PERIOD = "period"
KIND_CHAOTIC = "chaotic"
KIND_ESCAPED = "escaped"
KIND_UNRESOLVED = "unresolved"

_CODE = {KIND_PERIOD: 1, KIND_CHAOTIC: 2, KIND_ESCAPED: 3, KIND_UNRESOLVED: 4}

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

    def trap(self, p1, p2):
        """The largest trap radius of the cells (families.trap_radius); NaN if one is."""
        family = FAMILIES[self.template.family]
        return float(np.max(trap_radius(family, self._params(p1, p2)), initial=0.0))

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
        of rescale._stages in _pipeline's charts, asked for the Y-row alone.
        So asked, with a float tangent X, a fresh 128^2 sweep of
        configs/benchmark_saddle.cfg took 0.29 s, not 0.45 s (medians of 10
        runs, 2-core VM)."""
        frame = self.frame
        mu1, mu2 = frame.mus_for(m1, m2)
        x02 = frame.center_x2  # X = 0
        # (dx02, dy11) of a unit dY; a float, not a 0-d array, for the saddle
        along_y = (np.zeros(np.shape(x02)) if np.ndim(x02) else 0.0, frame.beta1)

        def step(y, dy=None):
            tangent = None if dy is None else along_y
            y11 = frame.chart_y(y)
            yb11, dyb11 = _stages(frame.oc, x02, y11, mu1, mu2, np.inf, tangent, y_row=True)
            y[...] = frame.chart_y_inv(yb11)
            if dy is not None:
                np.divide(dyb11, frame.beta1, out=dy)

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
    escape_radius: float = DEFAULT_ESCAPE_RADIUS
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

    def same_cells(self, other: "SweepGrid") -> bool:
        return (
            np.array_equal(self.kind, other.kind)
            and np.array_equal(self.period, other.period)
            and np.array_equal(self.lyap, other.lyap)
        )


def _absorbing(target, p1, p2, radius):
    """Whether leaving `radius` is absorbing for every cell (p1, p2) of
    target: the radius is at least the cells' trap radius (target.trap), so
    a state outside it stays outside, and NaN stays NaN.  A target without a
    `trap` (the rescaled map), or a NaN trap radius, claims nothing."""
    trap = getattr(target, "trap", None)
    return trap is not None and radius >= trap(p1, p2)


def _fold(top, y, mag):
    """top = max(top, |y|), which propagates NaN; `mag` is scratch of y's size."""
    np.abs(y, out=mag)
    np.maximum(top, mag, out=top)


def _advance(step, y, top, mag, steps, track):
    """Step y in place `steps` times.  Tracked, top keeps the running maximum
    of |y| over the steps; untracked (leaving is absorbing, _absorbing), top
    is left alone and the caller folds |y| in where it reads the escape set."""
    for _ in range(steps):
        step(y)
        if track:
            _fold(top, y, mag)


def _cycle_lags(ring):
    """Per cell, the smallest lag q in 1.._RING-1 with ring[-1] == ring[-1-q]
    bit for bit, or 0 when there is none."""
    bits = ring.view(np.uint64)
    same = bits[-2::-1] == bits[-1]  # row q - 1 compares lag q
    return np.where(same.any(axis=0), same.argmax(axis=0) + 1, 0)


def _handoff(transient):
    """The step at which a block's head stops and its cells still running
    join the tail queue: the first retirement checkpoint, or the drop when no
    checkpoint fits in the transient."""
    drop = min(transient, _DROP_STEP)
    return drop + _CHECK if drop + _CHECK <= transient else drop


def _orbit_window(target, p1, p2, y, radius, transient, length, top=None, t=0, stop=None):
    """Run y on from step t: discard the steps up to `transient`, then record
    `length` states in S.

    S[0] is the state after the transient and S[-1] the last state.  Escaped
    cells are flagged in esc and their S is 0.  From t = 0, the cells that
    escape within the first min(transient, _DROP_STEP) steps are dropped
    there.  A resumed run takes the states y at a step t past that, with
    `top`, the running maximum of |y| up to t, and drops the cells that have
    already escaped.  Cells whose orbit repeats bit for bit are retired at
    the checkpoints (module docstring): they record their state at step
    `transient`, and their other window states are stepped from it, next to
    the cells still running, once those reach that step.  The step is
    rebuilt on the cells left each time.

    Returns (S, esc, rest).  Given a step `stop` of the schedule, the drop
    or a checkpoint no later than the last one (_handoff(transient) is), the
    run stops there and rest = (live, y, top) holds the cells still running:
    their indices, states and running maxima; their esc is left False and
    their S is undefined, and resuming them from t = stop gives the bits of
    an uninterrupted run.  Without a stop rest is None.  The caller's y and
    top are not written.

    S is the first `length` rows of one buffer whose rows 1.._RING hold the
    retirement ring during the transient, until the window overwrites them
    (so after a stop, the S columns of the cells still running may hold
    ring states).
    """
    n = y.size
    y = y.copy()
    top = np.zeros(n) if top is None else top.copy()
    mag = np.empty(n)
    step = target.stepper(p1, p2)
    track = not _absorbing(target, p1, p2, radius)
    drop = min(transient, _DROP_STEP)
    _advance(step, y, top, mag, drop - t, track)
    t = max(t, drop)
    _fold(top, y, mag)
    buf = np.zeros((max(length, 1 + _RING), n))
    S = buf[:length]
    esc = np.ones(n, dtype=bool)
    retired = np.zeros(n, dtype=bool)
    live = np.arange(n)
    keep = top <= radius
    while True:
        if not keep.all():
            live, y, top = live[keep], y[keep], top[keep]
            mag = mag[: live.size]
            step = target.stepper(p1[live], p2[live])
        if t == stop or t + _CHECK > transient or not live.size:
            break
        R = buf[1 : 1 + _RING, : live.size]
        _advance(step, y, top, mag, _CHECK - _RING, track)
        for r in R:
            _advance(step, y, top, mag, 1, track)
            r[:] = y
        t += _CHECK
        _fold(top, y, mag)
        lag = _cycle_lags(R)
        keep = lag == 0
        out = np.flatnonzero(~keep)
        if out.size:
            # the state at step s >= t - q of a cell with lag q is the ring
            # row of step t - q + (s - t) mod q
            q, cells = lag[out], live[out]
            S[0, cells] = R[_RING - 1 - q + (transient - t) % q, out]
            esc[cells] = ~(top[out] <= radius)
            retired[cells] = True
    rest = None
    if stop is not None:
        esc[live] = False
        rest = (live, y, top)
        live, y, top = live[:0], y[:0], top[:0]
    elif live.size:
        _advance(step, y, top, mag, transient - t, track)
    # at step `transient` the retired cells that have not escaped join the
    # cells still running, and their window states are stepped from there
    # (the map is a pure function); they cycle inside the radius, so their
    # escape flags stay False
    cells = np.flatnonzero(retired & ~esc)
    if cells.size:
        live = np.concatenate([live, cells])
        y = np.concatenate([y, S[0, cells]])
        top = np.concatenate([top, np.zeros(cells.size)])
        mag = np.empty(live.size)
        step = target.stepper(p1[live], p2[live])
    if live.size:
        S[0, live] = y
        for w in range(1, length):
            _advance(step, y, top, mag, 1, track)
            S[w, live] = y
        _fold(top, y, mag)
        esc[live] = ~(top <= radius)
    S[:, esc] = 0.0
    return S, esc, rest


def _newton_orbit(target, p1, p2, y0, d):
    """Vectorized Newton, 12 steps at most, on the d-fold fixed-point
    equation of target's cells (p1, p2) from seeds y0.

    Returns (root, residual, multiplier, image): non-converging entries keep
    their last iterate and a large residual, and image is f^d(y0), from the
    first pass (a step writes the same y with or without a slope).  A cell
    whose iterate repeats bit for bit would repeat every later step too, so
    it leaves the loop with the residual and multiplier of that step.
    """
    y = y0.copy()
    resid, mult = np.empty_like(y), np.empty_like(y)
    live = np.arange(y.size)
    step = target.stepper(p1, p2)
    for it in range(13):
        yl = y[live]
        v, dv, dp = yl.copy(), np.empty_like(yl), np.ones_like(yl)
        for _ in range(d):
            step(v, dv)
            dp *= dv
        if it == 0:
            image = v
        g = v - yl
        resid[live], mult[live] = np.abs(g), dp
        if it == 12:
            break
        gp = dp - 1.0
        safe = np.abs(gp) > 1.0e-14
        new = yl - np.where(safe, g / np.where(safe, gp, 1.0), 0.0)
        new = np.where(np.isfinite(new), new, y0[live])
        y[live] = new
        moved = new.view(np.int64) != yl.view(np.int64)
        if not moved.all():
            live = live[moved]
            if not live.size:
                break
            step = target.stepper(p1[live], p2[live])
    return y, resid, mult, image


def _recurrences(S, cols, tol, max_period):
    """For the columns `cols` of the window S, the smallest p <= max_period
    with |S[p] - S[0]| < tol and |S[2p] - S[p]| < tol, or 0.  Each p tests
    only the columns with no recurrence yet."""
    period = np.zeros(cols.size, dtype=np.int32)
    left = np.arange(cols.size)
    start = S[0, cols]
    for p in range(1, max_period + 1):
        if not left.size:
            break
        at = S[p, cols]
        rec = (np.abs(at - start) < tol) & (np.abs(S[2 * p, cols] - at) < tol)
        if rec.any():
            period[left[rec]] = p
            rec = ~rec
            left, cols, start = left[rec], cols[rec], start[rec]
    return period


def _lyapunov(target, p1, p2, y, radius, samples):
    """Average log|slope| over `samples` steps from y of target's cells
    (p1, p2), and the escape flags.

    y is stepped in place.  Escape is tracked as in _advance; escaped cells'
    exponents are not meaningful.
    """
    step = target.stepper(p1, p2)
    track = not _absorbing(target, p1, p2, radius)
    acc = np.zeros(y.size)
    top, mag, d = np.zeros(y.size), np.empty(y.size), np.empty(y.size)
    for _ in range(samples):
        step(y, d)
        np.abs(d, out=d)
        np.maximum(d, 1.0e-15, out=d)
        acc += np.log(d, out=d)
        if track:
            _fold(top, y, mag)
    _fold(top, y, mag)
    return acc / samples, ~(top <= radius)


class _Queue:
    """Cells waiting for a stage, as columns of _BLOCK capacity.  push hands
    each full batch to `run`, and flush hands over the rest."""

    def __init__(self, *dtypes):
        self.dtypes, self.cols, self.size = dtypes, None, 0

    def push(self, run, *cols):
        # run is passed in, not kept: a bound method kept here would tie the
        # queue and its owner in a reference cycle
        n, at = len(cols[0]), 0
        while at < n:
            if self.cols is None:  # on first use: not during the first head's window
                self.cols = [np.empty(_BLOCK, dtype=dtype) for dtype in self.dtypes]
            take = min(n - at, _BLOCK - self.size)
            for q, c in zip(self.cols, cols):
                q[self.size : self.size + take] = c[at : at + take]
            self.size += take
            at += take
            if self.size == _BLOCK:
                self.flush(run)

    def flush(self, run):
        # the batch is a view of the columns, which are free again once it is
        # handed over: a run queues cells only after it has read its batch
        n, self.size = self.size, 0
        if n:
            run(*(q[:n] for q in self.cols))


class _Scan:
    """The outcome arrays of n cells, whose parameters are params(cells) for
    an array of cell indices, and the three queues that pool their long
    tail across blocks (module docstring)."""

    def __init__(self, spec: SweepSpec, n, params):
        self.spec, self.params = spec, params
        self.kind = np.zeros(n, dtype=np.uint8)
        self.period = np.zeros(n, dtype=np.int32)
        self.lyap = np.zeros(n)
        self.nudged = np.zeros(n, dtype=bool)
        self.handoff = _handoff(spec.transient)
        # cell, state, running maximum of |y|
        self.tail = _Queue(np.intp, float, float)
        # cell, recurrence period, first and last window state
        self.candidates = _Queue(np.intp, np.int32, float, float)
        # cell, last window state
        self.unlabelled = _Queue(np.intp, float)

    def _window(self, p, y, **resume):
        spec = self.spec
        return _orbit_window(
            spec.target, *p, y, spec.escape_radius, spec.transient, 2 * spec.max_period + 1,
            **resume,
        )

    def head(self, cells, y):
        """Run the cells from y to the first checkpoint; settle those that
        are done and queue the rest at step self.handoff."""
        S, esc, (live, y, top) = self._window(self.params(cells), y, stop=self.handoff)
        done = np.ones(cells.size, dtype=bool)
        done[live] = False
        queued = self._settle(cells, S, esc, done)
        del S  # before the pushes, which may run other batches
        self._queue(*queued)
        self.tail.push(self._tail, cells[live], y, top)

    def _tail(self, cells, y, top):
        S, esc, _ = self._window(self.params(cells), y, top=top, t=self.handoff)
        queued = self._settle(cells, S, esc, np.ones(cells.size, dtype=bool))
        del S
        self._queue(*queued)

    def _settle(self, cells, S, esc, done):
        """Label the done cells that escaped, and find the recurrences of the
        others in their window S.  Returns, as copies, the columns to queue:
        (cell, period, first and last state) of the cells with a recurrence,
        for refinement, and (cell, last state) of those without one, for the
        Lyapunov stage."""
        spec = self.spec
        self.kind[cells[done & esc]] = _CODE[KIND_ESCAPED]
        cols = np.flatnonzero(done & ~esc)
        rec = _recurrences(S, cols, spec.period_tol, spec.max_period)
        cand, none = cols[rec > 0], cols[rec == 0]
        return (
            (cells[cand], rec[rec > 0], S[0, cand], S[-1, cand]),
            (cells[none], S[-1, none]),
        )

    def _queue(self, candidates, unlabelled):
        self.candidates.push(self._refine, *candidates)
        self.unlabelled.push(self._lyapunov, *unlabelled)

    def _refine(self, cells, rec, y0, last):
        """Label each candidate with the smallest divisor d of its recurrence
        period whose Newton-refined d-cycle through its window start y0 is
        attracting and near its orbit: within 0.5 + 2 |f^d(y0) - y0| of y0,
        where f^d(y0), its window state d, is the image of Newton's first
        pass (the map is a pure function, so the queue keeps no window
        rows).  This keeps slowly converging orbits near flips from
        masquerading as double-period cycles (their alternating tails recur
        at period 2 long before they settle).  Newton runs, for each d, once
        on the cells still waiting for a label.  A cell with no such divisor
        is parked on a repelling cycle: it is run again nudged by 1e-9, once,
        or else queued for the Lyapunov stage with its last state."""
        spec = self.spec
        p1, p2 = self.params(cells)
        period = np.zeros(cells.size, dtype=np.int32)
        for d in range(1, spec.max_period + 1):
            idx = np.flatnonzero((rec % d == 0) & (period == 0))
            if not idx.size:
                continue
            seed = y0[idx]
            root, resid, mult, image = _newton_orbit(spec.target, p1[idx], p2[idx], seed, d)
            spread = np.abs(image - seed)
            good = (
                (resid < 1.0e-10 * (1.0 + np.abs(root)))
                & (np.abs(mult) < 1.0)
                & (np.abs(root - seed) < 0.5 + 2.0 * spread)
            )
            period[idx[good]] = d
        found = period > 0
        self.kind[cells[found]] = _CODE[KIND_PERIOD]
        self.period[cells[found]] = period[found]
        # copies, taken before any push can reuse the batch's columns
        nudged = self.nudged[cells]
        idx = np.flatnonzero(~found & ~nudged)
        nudge = cells[idx], y0[idx] + 1.0e-9
        idx = np.flatnonzero(~found & nudged)
        self.unlabelled.push(self._lyapunov, cells[idx], last[idx])
        if nudge[0].size:
            self.nudged[nudge[0]] = True
            self.head(*nudge)

    def _lyapunov(self, cells, y):
        """Escaped, chaotic when the exponent is positive, and unresolved
        otherwise; the cells that have not escaped keep their exponent."""
        spec = self.spec
        lam, esc = _lyapunov(spec.target, *self.params(cells), y, spec.escape_radius, spec.samples)
        code = np.where(lam > 0.0, _CODE[KIND_CHAOTIC], _CODE[KIND_UNRESOLVED])
        code[esc] = _CODE[KIND_ESCAPED]
        self.kind[cells] = code
        self.lyap[cells[~esc]] = lam[~esc]


def _scan_cells(spec: SweepSpec, n: int, params):
    """Classify the cells 0..n-1 with parameters params(cells): a head per
    block of _BLOCK cells, the tails, the Newton refinement and the
    Lyapunov stage in pooled batches of up to _BLOCK."""
    scan = _Scan(spec, n, params)
    # a fault in one cell's arithmetic must not abort the sweep: the cell's
    # inf or NaN is classified like any other value
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, n, _BLOCK):
            cells = np.arange(lo, min(lo + _BLOCK, n))
            scan.head(cells, np.full(cells.size, spec.seed()))
        # a tail batch queues candidates, and a refinement queues nudged cells
        while scan.tail.size or scan.candidates.size:
            scan.tail.flush(scan._tail)
            scan.candidates.flush(scan._refine)
        scan.unlabelled.flush(scan._lyapunov)
    return scan.kind, scan.period, scan.lyap


def _sweep_cells(spec: SweepSpec, lo: int, hi: int):
    """Classify the grid cells lo..hi-1 of the flat (raveled, x-major) order;
    the parameters of a batch of cells are looked up when it runs."""
    xs, ys = spec.plane.x_values(spec.nx), spec.plane.y_values(spec.ny)

    def params(cells):
        i, j = np.divmod(cells + lo, spec.ny)
        return xs[i], ys[j]

    return _scan_cells(spec, hi - lo, params)


def plane_sweep(spec: SweepSpec, workers: int = 1) -> SweepGrid:
    """Rasterize the plane; output is identical for any worker count, and no
    more worker processes are started than there are CPUs."""
    n = spec.nx * spec.ny
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        kind, period, lyap = _sweep_cells(spec, 0, n)
    else:
        # at least one piece per worker, and no piece larger than a block
        step = math.ceil(n / max(workers, math.ceil(n / _BLOCK)))
        los = range(0, n, step)
        his = [min(lo + step, n) for lo in los]
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
        with ProcessPoolExecutor(max_workers=min(workers, len(los))) as pool:
            parts = list(pool.map(_sweep_cells, [spec] * len(los), los, his))
        kind, period, lyap = (np.concatenate(column) for column in zip(*parts))
    shape = (spec.nx, spec.ny)
    return SweepGrid(
        spec=spec, kind=kind.reshape(shape), period=period.reshape(shape), lyap=lyap.reshape(shape)
    )


class CellList(Sequence):
    """The (i, j) cells of a grid with ny columns, held as flat (x-major)
    indices, 8 B a cell; it reads, compares and hashes as the tuple of its
    (i, j) tuples."""

    def __init__(self, flat, ny):
        self.flat, self.ny = flat, ny

    def __len__(self):
        return self.flat.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return CellList(self.flat[k], self.ny)
        return divmod(int(self.flat[k]), self.ny)

    def __iter__(self):
        return zip(*(a.tolist() for a in np.divmod(self.flat, self.ny)))

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, CellList) else other)

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class GridComponent:
    period: int
    cell_count: int
    bbox: tuple
    cells: CellList


def shrimp_locate(grid: SweepGrid, period: int):
    """4-connected components of cells carrying the given period, largest first.

    The mask is cut into runs along j, one row i at a time; runs of adjacent
    rows that share a column are joined (union-find over runs), and cells are
    grouped by the first run of their component.  Components of equal size
    come in the raster order of their first cell, and each component's
    `cells` are in raster (i, then j) order: a CellList over its slice of
    one array of flat indices.
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
    flat = np.flatnonzero(mask)[order]
    starts = np.flatnonzero(np.diff(cell_root[order], prepend=-1))
    sizes = np.diff(starts, append=flat.size)
    ci, cj = np.divmod(flat, ny)
    bbox = zip(
        ci[starts].tolist(),
        ci[starts + sizes - 1].tolist(),
        np.minimum.reduceat(cj, starts).tolist(),
        np.maximum.reduceat(cj, starts).tolist(),
    )
    components = [
        GridComponent(period=period, cell_count=size, bbox=box,
                      cells=CellList(flat[s : s + size], ny))
        for s, size, box in zip(starts.tolist(), sizes.tolist(), bbox)
    ]
    components.sort(key=lambda c: -c.cell_count)
    return components
