import concurrent.futures
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shrimplab.bifurcation import FamilyYMap, find_periodic_orbit
from shrimplab.config import build_sweep_spec, load_config
from shrimplab.errors import ShrimplabError
from shrimplab.families import ModelMap, param_index
from shrimplab.local import LocalNormalForm
from shrimplab.global_map import focus_global, saddle_global
from shrimplab.returnmap import ReturnMapConfig
from shrimplab import sweep
from shrimplab.sweep import (
    CellOutcome,
    FamilyPlaneTarget,
    PlaneSpec,
    RescaledPlaneTarget,
    SweepGrid,
    SweepSpec,
    attractor_scan,
    plane_sweep,
    shrimp_locate,
)

DP = ModelMap("double_parabola", (0.0, 0.0))
PAR = ModelMap("parabola", (0.0,))


def dp_spec(nx=8, ny=8, **kw):
    target = FamilyPlaneTarget(DP, "M1", "M2")
    plane = PlaneSpec("M1", -1.0, 1.0, "M2", -1.0, 1.0)
    return SweepSpec(target=target, plane=plane, nx=nx, ny=ny, **kw)


def par_spec(lo, hi, nx=4, **kw):
    target = FamilyPlaneTarget(PAR, "M1", "dummy")
    plane = PlaneSpec("M1", lo, hi, "dummy", 0.0, 1.0)
    return SweepSpec(target=target, plane=plane, nx=nx, ny=2, **kw)


def focus_return_config():
    local = LocalNormalForm(kind="saddle_focus", lam=0.4, gamma=2.0, phi=0.3)
    g = focus_global(x_plus=[1.0, 0.5], y_minus=1.0, a=np.zeros((2, 2)), b=[1.0, 0.5],
                     c=[1.0, -0.5], d=1.0)
    return ReturnMapConfig(local, g, g, 10, 10)


def cubic_return_config():
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, nonlinearity="test_cubic")
    return ReturnMapConfig(local, saddle_global(), saddle_global(), 10, 10)


def family_spec(family, params, **kw):
    target = FamilyPlaneTarget(ModelMap(family, params), "M1", "M2")
    plane = PlaneSpec("M1", -1.0, 1.5, "M2", -1.0, 1.5)
    return SweepSpec(target=target, plane=plane, nx=12, ny=12, **kw)


def test_scan_superstable_fixed_point():
    spec = dp_spec()
    out = attractor_scan(spec.target, (0.0, 0.0), spec)
    assert out == CellOutcome(kind="period", period=1, lyap=0.0)


def test_scan_parabola_escape():
    spec = par_spec(2.05, 2.2)
    out = attractor_scan(spec.target, (2.1, 0.0), spec)
    assert out.kind == "escaped"


def test_scan_parabola_full_height_chaos():
    # at full height the map is conjugate to the doubling map: exponent ln 2.
    # The critical orbit parks exactly on the repelling fixed point, so this
    # also exercises the deterministic nudge.
    spec = par_spec(1.9, 2.0, samples=8192)
    out = attractor_scan(spec.target, (2.0, 0.0), spec)
    assert out.kind == "chaotic"
    assert abs(out.lyap - math.log(2.0)) < 0.05


def test_reparked_cell_is_nudged_once(monkeypatch):
    """A nudged cell that parks again (after 4 transient steps its orbit is
    still within 1e-3 of the repelling fixed point -2) is not nudged a
    second time: it goes to the Lyapunov stage from the last state of its
    nudged window."""
    spec = par_spec(1.9, 2.0, nx=2, transient=4, samples=64, max_period=1, period_tol=1.0e-3)
    heads = []
    head = sweep._Scan.head

    def counted_head(self, cells, y):
        heads.append((cells.tolist(), self.nudged[cells].tolist()))
        return head(self, cells, y)

    monkeypatch.setattr(sweep._Scan, "head", counted_head)
    grid = plane_sweep(spec)
    # the two M1 = 2 cells (the second axis is a dummy) park and are nudged once
    assert heads == [([0, 1, 2, 3], [False] * 4), ([2, 3], [True] * 2)]
    p1, p2 = np.full(2, 2.0), np.zeros(2)
    y = np.full(2, -2.0 + 1.0e-9)  # the window start -2 of the parked orbit, nudged
    S, esc, _ = sweep._orbit_window(spec.target, p1, p2, y, spec.escape_radius, 4, 3)
    lam, _ = sweep._lyapunov(spec.target, p1, p2, S[-1], spec.escape_radius, 64)
    assert not esc.any() and np.all(lam > 0.0)
    assert np.array_equal(grid.kind[1], np.full(2, sweep._CODE["chaotic"]))
    assert np.array_equal(_bits(grid.lyap[1]), _bits(lam))


WINDOW_CFG = Path(__file__).resolve().parents[1] / "configs" / "shrimp_window.cfg"


@pytest.mark.parametrize(
    "point",
    [
        # lambda = -0.064 and no attracting cycle of period <= 16
        (-0.595890410958904, 1.1595890410958902),
        # a period-2 recurrence at 1e-3, but none at the 1e-6 tolerance
        (-0.6, 0.8657534246575342),
    ],
)
def test_unconfirmed_cell_is_unresolved(point):
    spec = build_sweep_spec(load_config(str(WINDOW_CFG)))
    out = attractor_scan(spec.target, point, spec)
    assert out.kind == "unresolved" and out.period == 0
    assert out.lyap < 0.0


def test_labels_mean_what_they_say():
    """No chaotic cell has lambda <= 0, and the cycle of every period cell,
    refined from its window start by the scalar orbit solver, is attracting
    and has that minimal period."""
    spec = SweepSpec(
        target=FamilyPlaneTarget(DP, "M1", "M2"),
        plane=PlaneSpec("M1", -0.6, 1.5, "M2", -0.55, 1.4),
        nx=24, ny=24, transient=512, samples=512,
    )
    grid = plane_sweep(spec)
    assert set(np.unique(grid.kind).tolist()) == {1, 2, 3, 4}
    chaotic = grid.kind == sweep._CODE["chaotic"]
    assert np.all(grid.lyap[chaotic] > 0.0)
    unresolved = grid.kind == sweep._CODE["unresolved"]
    assert np.all(grid.lyap[unresolved] <= 0.0) and np.all(grid.period[unresolved] == 0)
    i, j = np.nonzero(grid.kind == sweep._CODE["period"])
    p1, p2 = spec.plane.x_values(spec.nx)[i], spec.plane.y_values(spec.ny)[j]
    # no cell of this grid parks on a repelling cycle, so none is nudged and
    # the window start is the sweep's own
    S, _, _ = sweep._orbit_window(
        spec.target, p1, p2, np.zeros(i.size), spec.escape_radius, spec.transient, 1
    )
    ymap = FamilyYMap("double_parabola")
    for a, b, y, period in zip(p1.tolist(), p2.tolist(), S[0].tolist(), grid.period[i, j].tolist()):
        orbit = find_periodic_orbit(ymap, period, y, (a, b))
        assert abs(orbit.multiplier) < 1.0, (a, b, period)


def test_spec_validation():
    with pytest.raises(ValueError):
        dp_spec(nx=1)
    with pytest.raises(ValueError):
        dp_spec(transient=0)
    with pytest.raises(ValueError):
        dp_spec(escape_radius=-1.0)
    with pytest.raises(ValueError):
        dp_spec(seed_rule="nope")


def test_spec_rejects_meaningless_values():
    with pytest.raises(ValueError, match="x_lo"):
        PlaneSpec("M1", float("nan"), 1.0, "M2", -1.0, 1.0)
    with pytest.raises(ValueError, match="y_hi"):
        PlaneSpec("M1", -1.0, 1.0, "M2", -1.0, float("inf"))
    with pytest.raises(ValueError, match="samples"):
        dp_spec(samples=0)
    for radius in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="escape_radius"):
            dp_spec(escape_radius=radius)
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="period_tol"):
            dp_spec(period_tol=tol)


ORACLE_AXES = {"M1": 0, "M2": 1, "M3": 2}


@pytest.mark.parametrize(
    "family, params, axes",
    [
        ("parabola", (0.3,), ("M1", "dummy")),
        ("parabola", (0.3,), ("dummy", "M1")),
        ("cubic_plus", (0.1, -0.4), ("M1", "M2")),
        ("cubic_minus", (0.1, 0.4), ("M2", "dummy")),
        ("double_parabola", (0.2, 0.5), ("M1", "M2")),
        ("double_parabola", (0.2, 0.5), ("dummy", "M1")),
        ("shrimp3", (0.2, 0.5, 0.3), ("M3", "M1")),
        ("shrimp3", (0.2, 0.5, 0.3), ("M2", "dummy")),
    ],
)
def test_family_maps_match_scalar_evaluators_bitwise(family, params, axes):
    """The sweep's vector maps and FamilyYMap.value/jet share one formula table."""
    rng = np.random.default_rng(17)
    p1, p2, y = rng.uniform(-1.5, 1.5, (3, 400))
    y[::7] = 0.0
    p1[::5] = 0.0
    f, df = FamilyPlaneTarget(ModelMap(family, params), *axes).maps(p1, p2)
    ymap = FamilyYMap(family)
    want_f, want_df = [], []
    for a, b, yy in zip(p1, p2, y):
        q = list(params)
        for name, value in zip(axes, (a, b)):
            if name != "dummy":
                q[ORACLE_AXES[name]] = value
        want_f.append(ymap.value(float(yy), q))
        want_df.append(ymap.jet(float(yy), q, 1)[1])
    got_f, got_df = f(y), df(y)
    assert np.array_equal(got_f, want_f) and np.array_equal(got_df, want_df)
    # and bit for bit, signed zeros included
    assert np.array_equal(got_f.view(np.uint64), np.array(want_f).view(np.uint64))
    assert np.array_equal(got_df.view(np.uint64), np.array(want_df).view(np.uint64))


def test_param_lookup_rejects_absent_parameter():
    assert param_index("shrimp3", "M3") == 2
    assert param_index("double_parabola", "dummy") == -1
    for bad in ("M3", "m1", "M4"):
        with pytest.raises(ValueError, match=f"double_parabola has no parameter {bad}"):
            FamilyPlaneTarget(DP, "M1", bad)
    with pytest.raises(ValueError, match="M3"):
        FamilyPlaneTarget(DP, "M3", "M2")
    with pytest.raises(ValueError, match="M2"):
        FamilyPlaneTarget(PAR, "M2", "dummy")


def test_constant_plane_all_period_one():
    target = FamilyPlaneTarget(DP, "M1", "M2")
    plane = PlaneSpec("M1", 0.0, 0.0, "M2", 0.0, 0.0)
    spec = SweepSpec(target=target, plane=plane, nx=2, ny=2)
    grid = plane_sweep(spec)
    assert np.all(grid.kind == 1)
    assert np.all(grid.period == 1)


def test_shrimp3_zero_matches_double_parabola():
    plane = PlaneSpec("M1", -0.4, 1.0, "M2", -0.4, 1.0)
    s3 = ModelMap("shrimp3", (0.0, 0.0, 0.0))
    spec_a = SweepSpec(
        target=FamilyPlaneTarget(s3, "M1", "M2"), plane=plane, nx=24, ny=24,
        transient=512, samples=512,
    )
    spec_b = SweepSpec(
        target=FamilyPlaneTarget(DP, "M1", "M2"), plane=plane, nx=24, ny=24,
        transient=512, samples=512,
    )
    assert plane_sweep(spec_a).same_cells(plane_sweep(spec_b))


def test_workers_bit_identical(monkeypatch):
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0)
    cfg = ReturnMapConfig(local, saddle_global(), saddle_global(), 10, 10)
    quick = dict(transient=128, samples=128, max_period=8)
    specs = [
        # the M1 = 2 cells park on the repelling fixed point and take the nudge
        par_spec(1.0, 2.0, nx=61, **quick),
        # the orbit at M1 = -0.251 escapes after the window and the Lyapunov
        # samples, but before a second transient would end: re-running the
        # transient of unparked cells next to the nudged M1 = 2 cells would
        # label it escaped in some blocks and chaotic in others
        par_spec(-0.251, 2.0, nx=61, transient=64, samples=16, max_period=8),
        # the cells of the last blocks (M1 near 3) all escape before the drop,
        # while the survivors of earlier blocks wait in the tail queue at the
        # first checkpoint
        par_spec(1.0, 3.0, nx=61, transient=256, samples=64, max_period=8),
        # a radius small enough that orbits leave it and come back
        family_spec("cubic_plus", (0.0, 0.0), escape_radius=0.7, **quick),
        dp_spec(nx=16, ny=16, transient=256, samples=256),
        # four retirement checkpoints, at three of which cells retire
        dp_spec(nx=16, ny=16, transient=600, samples=64, max_period=8),
        family_spec("cubic_plus", (0.0, 0.0), **quick),
        family_spec("cubic_minus", (0.0, 0.0), **quick),
        family_spec("shrimp3", (0.0, 0.0, 0.1), **quick),
        SweepSpec(
            target=RescaledPlaneTarget(cfg), plane=PlaneSpec("M1", -1.0, 3.0, "M2", -2.0, 2.0),
            nx=8, ny=8, **quick,
        ),
        SweepSpec(
            target=RescaledPlaneTarget(focus_return_config()),
            plane=PlaneSpec("M1", -1.0, 3.0, "M2", -2.0, 2.0), nx=6, ny=6,
            transient=64, samples=32, max_period=4,
        ),
        SweepSpec(
            target=RescaledPlaneTarget(cubic_return_config()),
            plane=PlaneSpec("M1", -1.0, 3.0, "M2", -2.0, 2.0), nx=6, ny=6,
            transient=32, samples=16, max_period=4,
        ),
        # M1 along the second axis: every row ends in a parked M1 = 2 cell, so
        # at blocks of 7, 64 and 257 the tail batches mix nudged cells with
        # the survivors of other blocks, and the chaotic cells of several
        # blocks share one Lyapunov batch
        SweepSpec(
            target=FamilyPlaneTarget(PAR, "dummy", "M1"),
            plane=PlaneSpec("dummy", 0.0, 1.0, "M1", 1.0, 2.0), nx=5, ny=61, **quick,
        ),
    ]
    for spec in specs:
        reference = plane_sweep(spec)
        # block sizes that split the head blocks and the pooled batches mid-grid
        for block in (7, 64, 257, 1000, 16384):
            monkeypatch.setattr(sweep, "_BLOCK", block)
            for workers in (1, 2):
                grid = plane_sweep(spec, workers=workers)
                assert grid.same_cells(reference), (spec.target.meta(), block, workers)
        monkeypatch.undo()


def test_pool_never_exceeds_cpu_count(monkeypatch):
    """A huge worker count asks for no more processes than there are CPUs."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    spec = dp_spec(nx=16, ny=16, transient=64, samples=64, max_period=4)
    grid = plane_sweep(spec, workers=10**5)
    assert asked and max(asked) <= 2
    assert grid.same_cells(plane_sweep(spec))


def test_cli_import_loads_no_process_pool():
    """Only a sweep with workers > 1 loads the process pool's modules."""
    src = str(Path(sweep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, shrimplab.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_lyapunov_cells_pooled_across_blocks(monkeypatch):
    """The unlabelled cells of all blocks run the Lyapunov stage in full
    batches of _BLOCK cells, not one call per block; the stages never see
    more than _BLOCK cells at once, and the labels do not change."""
    spec = SweepSpec(
        target=FamilyPlaneTarget(DP, "M1", "M2"),
        plane=PlaneSpec("M1", -0.6, 1.5, "M2", -0.55, 1.4),
        nx=40, ny=40, transient=400, samples=64, max_period=8,
    )
    reference = plane_sweep(spec)
    block = 64  # 25 blocks, each with unlabelled cells
    lyapunov, orbit_window = sweep._lyapunov, sweep._orbit_window
    calls, sizes = [], []

    def counted_lyapunov(target, p1, p2, y, radius, samples):
        calls.append(y.size)
        return lyapunov(target, p1, p2, y, radius, samples)

    def sized_orbit_window(target, p1, p2, y, *args, **kw):
        sizes.append(y.size)
        return orbit_window(target, p1, p2, y, *args, **kw)

    monkeypatch.setattr(sweep, "_BLOCK", block)
    monkeypatch.setattr(sweep, "_lyapunov", counted_lyapunov)
    monkeypatch.setattr(sweep, "_orbit_window", sized_orbit_window)
    assert plane_sweep(spec).same_cells(reference)
    unlabelled = sum(calls)
    assert unlabelled > 2 * block
    assert len(calls) <= math.ceil(unlabelled / block) + 1
    assert max(calls) <= block and max(sizes) <= block


def _reference_escape_step(y, esc, radius):
    """The per-step escape test: flag states outside the radius (NaN and inf
    included) and hold every flagged cell at 0."""
    esc |= ~(np.abs(y) <= radius)
    np.putmask(y, esc, 0.0)


def _reference_window(f, y, radius, transient, length):
    esc = np.zeros(y.size, dtype=bool)
    for _ in range(transient):
        y = f(y)
        _reference_escape_step(y, esc, radius)
    S = np.empty((length, y.size))
    S[0] = y
    for t in range(1, length):
        y = f(y)
        _reference_escape_step(y, esc, radius)
        S[t] = y
    return S, y, esc


def _reference_lyapunov(f, df, y, radius, samples):
    acc = np.zeros(y.size)
    esc = np.zeros(y.size, dtype=bool)
    for _ in range(samples):
        acc += np.log(np.maximum(np.abs(df(y)), 1.0e-15))
        y = f(y)
        _reference_escape_step(y, esc, radius)
    return acc / samples, esc


def _leaves_and_returns(f, y, radius, steps):
    """Whether some orbit passes the radius and later lies inside it again."""
    out = np.zeros(y.size, dtype=bool)
    back = np.zeros(y.size, dtype=bool)
    for _ in range(steps):
        y = f(y)
        inside = np.abs(y) <= radius
        back |= out & inside
        out |= ~inside
    return back.any()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


ESCAPE_TARGETS = [
    FamilyPlaneTarget(PAR, "M1", "dummy"),
    FamilyPlaneTarget(ModelMap("cubic_plus", (0.0, 0.0)), "M1", "M2"),
    FamilyPlaneTarget(ModelMap("cubic_minus", (0.0, 0.0)), "M1", "M2"),
    FamilyPlaneTarget(DP, "M1", "M2"),
    FamilyPlaneTarget(ModelMap("shrimp3", (0.0, 0.0, 0.1)), "M1", "M2"),
    RescaledPlaneTarget(
        ReturnMapConfig(
            LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0), saddle_global(), saddle_global(),
            10, 10,
        )
    ),
]


# (M1 or M2, M2 or M3, y0) cells appended to the random ones: the superstable
# fixed point at 0, fixed points at -0.0, orbits started at or through +-inf
# and NaN, and slow escapes through the parabola's tangency at M1 = -1/4,
# which leave after the step-64 drop and then sit at -inf.
SPECIAL_CELLS = [
    (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, -0.0),
    (1.0, 0.0, 0.0), (-1.0, 0.0, -0.0), (0.5, 0.5, np.inf), (0.5, 0.5, -np.inf),
    (0.3, -0.2, np.nan), (-0.2501, 0.0, 0.0), (-0.25001, 0.0, 0.0), (-0.2500001, 0.0, 0.0),
]


@pytest.mark.parametrize(
    "target", ESCAPE_TARGETS, ids=lambda t: t.meta().get("family", t.meta()["target"])
)
def test_escape_tracking_matches_per_step_reference(target, monkeypatch):
    """Running-maximum escape tracking, with the early drop of escaped cells
    and the retirement of bitwise-periodic cells at the checkpoints, gives
    the per-step rule's escape set and states bit for bit.

    Radius 0.7 lets orbits leave and come back; an infinite radius counts
    only NaN as escape, which the cubic orbits reach through inf - inf.  The
    transients from 191 on span one or more retirement checkpoints.
    """
    rng = np.random.default_rng(5)
    p1, p2 = rng.uniform(-2.5, 2.5, (2, 3000))
    y0 = rng.uniform(-1.0, 1.0, 3000)
    special = np.array(SPECIAL_CELLS).T
    p1, p2, y0 = (np.concatenate([a, b]) for a, b in zip((p1, p2, y0), special))
    y0_bits = _bits(y0).copy()
    length = 17
    retired = []
    cycle_lags = sweep._cycle_lags

    def counted(ring):
        lag = cycle_lags(ring)
        retired.append(int(np.count_nonzero(lag)))
        return lag

    monkeypatch.setattr(sweep, "_cycle_lags", counted)
    nan_seen = False
    with np.errstate(over="ignore", invalid="ignore"):
        f, df = target.maps(p1, p2)
        assert _leaves_and_returns(f, y0, 0.7, 100)
        for radius in (0.7, 2.0, 1.0e6, np.inf):
            for transient in (10, 63, 64, 65, 150, 191, 192, 193, 320, 1000):
                S, esc, rest = sweep._orbit_window(target, p1, p2, y0, radius, transient, length)
                S_ref, y_ref, esc_ref = _reference_window(f, y0, radius, transient, length)
                # the states of escaped cells are read by nothing; the engine holds them at 0
                S_ref[:, esc_ref] = 0.0
                assert rest is None
                assert np.array_equal(esc, esc_ref), (radius, transient)
                assert np.array_equal(_bits(S), _bits(S_ref)), (radius, transient)
                assert np.array_equal(_bits(S[-1]), _bits(y_ref)), (radius, transient)
                assert np.all(S[:, esc] == 0.0)
                if radius == np.inf:
                    nan_seen |= bool(esc.any())
            lam, esc = sweep._lyapunov(target, p1, p2, y0.copy(), radius, 80)
            lam_ref, esc_ref = _reference_lyapunov(f, df, y0, radius, 80)
            assert np.array_equal(esc, esc_ref), radius
            assert np.array_equal(_bits(lam[~esc]), _bits(lam_ref[~esc])), radius
    assert np.array_equal(_bits(y0), y0_bits)  # the engine steps copies only
    # retirement fired (on the superstable cell at 0 at least)
    assert sum(retired) > 0
    if target.meta().get("family", "").startswith("cubic"):
        assert nan_seen


def test_trap_radius_decides_escape_tracking(monkeypatch):
    """A batch reads |y| only at the drop, the checkpoints and the end when
    the radius is at least the trap radius of every one of its cells; one
    cell with a larger trap radius keeps per-step tracking for the whole
    batch.  Both paths give the per-step rule's bits, and the rescaled map
    never claims absorption."""
    folds = []
    fold = sweep._fold
    monkeypatch.setattr(sweep, "_fold", lambda *a: folds.append(1) or fold(*a))
    target = FamilyPlaneTarget(DP, "M1", "M2")
    rng = np.random.default_rng(13)
    cells = rng.uniform(-0.6, 1.5, 500), rng.uniform(-0.55, 1.4, 500), rng.uniform(-1.5, 1.5, 500)
    # R* = 2 (1 + |M2 - M1^2| + 2 |M1|) is at most 14 on these cells; the
    # cell (M1, M2) = (3, -5) has R* = 42
    one_more = tuple(np.append(a, b) for a, b in zip(cells, (3.0, -5.0, 0.1)))
    radius, transient, samples = 40.0, 600, 50
    for (p1, p2, y0), tracked in ((cells, False), (one_more, True)):
        assert sweep._absorbing(target, p1, p2, radius) is not tracked
        folds.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            S, esc, _ = sweep._orbit_window(target, p1, p2, y0, radius, transient, 9)
            f, df = target.maps(p1, p2)
            S_ref, _, esc_ref = _reference_window(f, y0, radius, transient, 9)
            S_ref[:, esc_ref] = 0.0
            assert (len(folds) > transient) is tracked
            assert np.array_equal(esc, esc_ref) and esc.any()
            assert np.array_equal(_bits(S), _bits(S_ref))
            folds.clear()
            lam, esc = sweep._lyapunov(target, p1, p2, y0.copy(), radius, samples)
            assert len(folds) == (samples + 1 if tracked else 1)
            lam_ref, esc_ref = _reference_lyapunov(f, df, y0, radius, samples)
            assert np.array_equal(esc, esc_ref)
            assert np.array_equal(_bits(lam[~esc]), _bits(lam_ref[~esc]))
    rescaled = RescaledPlaneTarget(ESCAPE_TARGETS[-1].cfg)
    m1, m2 = np.array([0.5, 1.0]), np.array([0.2, -0.3])
    for radius in (1.0e6, 1.0e300, np.inf):
        assert not sweep._absorbing(rescaled, m1, m2, radius)
        folds.clear()
        sweep._lyapunov(rescaled, m1, m2, np.zeros(2), radius, 4)
        assert len(folds) == 5


@pytest.mark.parametrize(
    "target", ESCAPE_TARGETS, ids=lambda t: t.meta().get("family", t.meta()["target"])
)
def test_orbit_window_resume_matches_uninterrupted_run(target):
    """Stopping a run at a step of the checkpoint schedule and resuming the
    cells left from (y, top) at that step, again and again, gives the bits
    of one uninterrupted run; the caller's states and running maxima are not
    written."""
    rng = np.random.default_rng(7)
    p1, p2 = rng.uniform(-2.5, 2.5, (2, 1000))
    y0 = rng.uniform(-1.0, 1.0, 1000)
    special = np.array(SPECIAL_CELLS).T
    p1, p2, y0 = (np.concatenate([a, b]) for a, b in zip((p1, p2, y0), special))
    length = 17
    with np.errstate(over="ignore", invalid="ignore"):
        for radius in (0.7, 1.0e6, np.inf):
            for transient in (10, 64, 191, 192, 600):
                # the drop, then every checkpoint that fits in the transient
                stops = list(range(min(transient, sweep._DROP_STEP), transient + 1, sweep._CHECK))
                assert sweep._handoff(transient) == stops[min(1, len(stops) - 1)]
                S_ref, esc_ref, _ = sweep._orbit_window(target, p1, p2, y0, radius, transient,
                                                        length)
                # a running maximum that has left the radius (NaN) marks the
                # resumed cells escaped, whatever their later states
                _, _, (live, y, top) = sweep._orbit_window(target, p1, p2, y0, radius,
                                                           transient, length, stop=stops[0])
                S, esc, _ = sweep._orbit_window(target, p1[live], p2[live], y, radius, transient,
                                                length, top=np.full(live.size, np.nan),
                                                t=stops[0])
                assert live.size and esc.all() and not S.any()
                for first in range(min(3, len(stops))):
                    S, esc, rest = sweep._orbit_window(target, p1, p2, y0, radius, transient,
                                                       length, stop=stops[first])
                    cells = np.arange(y0.size)
                    at = first
                    while rest is not None and rest[0].size:
                        live, y, top = rest
                        cells = cells[live]
                        y_bits, top_bits = _bits(y).copy(), _bits(top).copy()
                        # stop at the next checkpoint twice at most, then run to the end
                        stop = stops[at + 1] if at + 1 < min(first + 3, len(stops)) else None
                        S_part, esc_part, rest = sweep._orbit_window(
                            target, p1[cells], p2[cells], y, radius, transient, length,
                            top=top, t=stops[at], stop=stop,
                        )
                        assert np.array_equal(_bits(y), y_bits)
                        assert np.array_equal(_bits(top), top_bits)
                        S[:, cells] = S_part
                        esc[cells] = esc_part
                        at += 1
                    assert np.array_equal(esc, esc_ref), (radius, transient, first)
                    assert np.array_equal(_bits(S), _bits(S_ref)), (radius, transient, first)
                    if transient == 600:
                        assert at > first


def _reference_components(mask):
    """4-neighbour flood fill from each unseen cell in raster order."""
    seen = np.zeros_like(mask)
    nx, ny = mask.shape
    components = []
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j] or seen[i, j]:
                continue
            stack, cells = [(i, j)], []
            seen[i, j] = True
            while stack:
                a, b = stack.pop()
                cells.append((a, b))
                for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                    if 0 <= na < nx and 0 <= nb < ny and mask[na, nb] and not seen[na, nb]:
                        seen[na, nb] = True
                        stack.append((na, nb))
            arr = np.array(cells)
            bbox = (arr[:, 0].min(), arr[:, 0].max(), arr[:, 1].min(), arr[:, 1].max())
            components.append((len(cells), tuple(int(v) for v in bbox), frozenset(cells)))
    components.sort(key=lambda c: -c[0])
    return components


def _u_shapes(nx, ny):
    """Nested U shapes whose arms meet only in their last row."""
    mask = np.zeros((nx, ny), dtype=bool)
    for k in range(0, ny // 2 - 1, 2):
        mask[k: nx - k, k] = mask[k: nx - k, ny - 1 - k] = True
        mask[nx - 1 - k, k: ny - k] = True
    return mask


def _masks():
    rng = np.random.default_rng(11)
    yield np.indices((9, 7)).sum(axis=0) % 2 == 0  # checkerboard
    yield np.ones((5, 6), dtype=bool)
    yield np.zeros((4, 4), dtype=bool)
    single = np.zeros((6, 5), dtype=bool)
    single[0, 0] = single[5, 4] = single[2, 3] = True
    yield single
    yield _u_shapes(12, 15)
    yield _u_shapes(12, 15).T
    comb = np.zeros((10, 12), dtype=bool)  # teeth that join only at the last row
    comb[:, ::2] = True
    comb[-1] = True
    yield comb
    yield comb[::-1]
    yield comb.T
    for density in (0.2, 0.45, 0.55, 0.6, 0.8):
        for shape in ((1, 30), (30, 1), (23, 17), (40, 40)):
            yield rng.random(shape) < density


def test_shrimp_locate_matches_flood_fill():
    for mask in _masks():
        nx, ny = mask.shape
        grid = SweepGrid(
            spec=dp_spec(nx=max(nx, 2), ny=max(ny, 2)),
            kind=np.where(mask, 1, 2).astype(np.uint8),
            period=np.where(mask, 3, 0).astype(np.int32),
            lyap=np.zeros(mask.shape),
        )
        comps = shrimp_locate(grid, 3)
        got = [(c.cell_count, c.bbox, frozenset(c.cells)) for c in comps]
        assert got == _reference_components(mask), mask.astype(int)
        for c in comps:
            assert c.period == 3
            assert list(c.cells) == sorted(c.cells)  # raster order
            assert len(c.cells) == c.cell_count
        assert shrimp_locate(grid, 2) == []


def test_component_cells_read_as_tuples():
    """A component's CellList reads as the raster-ordered tuple of its
    (i, j) cells: iteration, length, indexing, slicing and membership."""
    for mask in _masks():
        nx, ny = mask.shape
        grid = SweepGrid(
            spec=dp_spec(nx=max(nx, 2), ny=max(ny, 2)),
            kind=np.where(mask, 1, 2).astype(np.uint8),
            period=np.where(mask, 3, 0).astype(np.int32),
            lyap=np.zeros(mask.shape),
        )
        comps = shrimp_locate(grid, 3)
        reference = {frozenset(c[2]): tuple(sorted(c[2])) for c in _reference_components(mask)}
        for c in comps:
            cells = reference[frozenset(c.cells)]
            assert tuple(c.cells) == cells and c.cells == cells
            assert len(c.cells) == len(cells)
            for k in (0, len(cells) // 2, -1):
                assert c.cells[k] == cells[k]
            assert c.cells[1:-1] == cells[1:-1]
            assert all(cell in c.cells for cell in cells)
            assert hash(c.cells) == hash(cells)
        outside = [(i, j) for i in range(-1, nx + 1) for j in range(-1, ny + 1)
                   if not (0 <= i < nx and 0 <= j < ny and mask[i, j])]
        assert not any(cell in c.cells for c in comps for cell in outside)
        again = shrimp_locate(grid, 3)
        assert again == comps and [hash(c) for c in again] == [hash(c) for c in comps]


def test_component_holds_a_flat_index_per_cell():
    """The one component of an all-period-1 256x256 grid keeps at most
    16 B per cell (a tuple of (i, j) tuples takes 64 here)."""
    n = 256
    grid = SweepGrid(
        spec=dp_spec(nx=n, ny=n),
        kind=np.ones((n, n), dtype=np.uint8),
        period=np.ones((n, n), dtype=np.int32),
        lyap=np.zeros((n, n)),
    )
    tracemalloc.start()
    try:
        comps = shrimp_locate(grid, 1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [c.cell_count for c in comps] == [n * n]
    assert kept <= 16 * n * n


def test_shrimp_locate_full_grid():
    spec = dp_spec(nx=4, ny=4)
    grid = SweepGrid(
        spec=spec,
        kind=np.ones((4, 4), dtype=np.uint8),
        period=np.ones((4, 4), dtype=np.int32),
        lyap=np.zeros((4, 4)),
    )
    comps = shrimp_locate(grid, 1)
    assert len(comps) == 1
    assert comps[0].cell_count == 16
    assert comps[0].bbox == (0, 3, 0, 3)


def test_shrimp_locate_checkerboard():
    spec = dp_spec(nx=6, ny=6)
    kind = np.ones((6, 6), dtype=np.uint8)
    period = np.ones((6, 6), dtype=np.int32)
    for i in range(6):
        for j in range(6):
            if (i + j) % 2:
                period[i, j] = 2
    grid = SweepGrid(spec=spec, kind=kind, period=period, lyap=np.zeros((6, 6)))
    comps = shrimp_locate(grid, 1)
    assert len(comps) == 18
    assert all(c.cell_count == 1 for c in comps)


def test_period_labels_reverify():
    plane = PlaneSpec("M1", -0.4, 1.2, "M2", -0.4, 1.2)
    spec = SweepSpec(
        target=FamilyPlaneTarget(DP, "M1", "M2"), plane=plane, nx=48, ny=48,
        transient=2048, samples=1024, max_period=12,
    )
    grid = plane_sweep(spec)
    xs = plane.x_values(48)
    ys = plane.y_values(48)
    ymap = FamilyYMap("double_parabola")
    rng = np.random.default_rng(0)
    labeled = np.argwhere(grid.kind == 1)
    picks = labeled[rng.choice(len(labeled), size=50, replace=False)]
    for i, j in picks:
        p = int(grid.period[i, j])
        y = 0.0
        for _ in range(4096):
            y = ymap.value(y, (xs[i], ys[j]))
        orbit = find_periodic_orbit(ymap, p, y, (xs[i], ys[j]))
        assert orbit.period == p
        assert abs(orbit.multiplier) < 1.0


def _newton_orbit_reference(step, y0, d, iterations=12):
    """Every cell through all iterations, then one final evaluation."""
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


@pytest.mark.parametrize("seed", range(4))
def test_newton_orbit_matches_full_iteration_reference(seed):
    # cells leave the Newton loop once their iterate repeats; root, residual
    # and multiplier stay bit-identical to running every cell to the end, and
    # the image f^d(y0) of the first pass to y0 stepped d times without a slope
    rng = np.random.default_rng(seed)
    n = 600
    target = FamilyPlaneTarget(DP, "M1", "M2")
    p1, p2 = rng.uniform(-0.5, 1.5, n), rng.uniform(-0.5, 1.0, n)
    y0 = rng.uniform(-1.5, 1.5, n)
    y0[:6] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0e300]
    rng.shuffle(y0)
    for d in (1, 2, 3, int(rng.integers(4, 9))):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as plane_sweep
            ref = _newton_orbit_reference(target.stepper(p1, p2), y0, d)
            *got, image = sweep._newton_orbit(target, p1, p2, y0, d)
            y, step = y0.copy(), target.stepper(p1, p2)
            for _ in range(d):
                step(y)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        assert image.tobytes() == y.tobytes()


def test_monotone_refinement_sampled():
    plane = PlaneSpec("M1", -0.3, 0.9, "M2", -0.3, 0.9)
    coarse_n = 17
    fine_n = 2 * coarse_n - 1
    tgt = FamilyPlaneTarget(DP, "M1", "M2")
    coarse = plane_sweep(
        SweepSpec(target=tgt, plane=plane, nx=coarse_n, ny=coarse_n, transient=1024, samples=512)
    )
    fine = plane_sweep(
        SweepSpec(target=tgt, plane=plane, nx=fine_n, ny=fine_n, transient=1024, samples=512)
    )
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(400):
        i = int(rng.integers(1, coarse_n - 1))
        j = int(rng.integers(1, coarse_n - 1))
        neigh = [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1), (i, j)]
        kinds = {int(coarse.kind[a, b]) for a, b in neigh}
        periods = {int(coarse.period[a, b]) for a, b in neigh}
        if len(kinds) != 1 or len(periods) != 1:
            continue
        assert int(fine.kind[2 * i, 2 * j]) == int(coarse.kind[i, j])
        assert int(fine.period[2 * i, 2 * j]) == int(coarse.period[i, j])
        checked += 1
    assert checked >= 30


def test_rescaled_plane_target():
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0)
    saddle = ReturnMapConfig(local, saddle_global(), saddle_global(), 10, 10)
    plane = PlaneSpec("M1", -0.2, 0.2, "M2", -0.2, 0.2)
    # the saddle-focus was rejected when only the linear saddle was vectorized
    for cfg in (saddle, focus_return_config()):
        target = RescaledPlaneTarget(cfg)
        spec = SweepSpec(target=target, plane=plane, nx=6, ny=6, transient=512, samples=512)
        grid = plane_sweep(spec)
        # near the origin of the rescaled plane the fixed point is attracting
        assert grid.outcome(3, 3).kind == "period"
        out = attractor_scan(target, (0.0, 0.0), spec)
        assert out.kind == "period" and out.period == 1
