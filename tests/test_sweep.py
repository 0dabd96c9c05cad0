import math

import numpy as np
import pytest

from shrimplab.bifurcation import FamilyYMap, find_periodic_orbit
from shrimplab.errors import ShrimplabError
from shrimplab.families import ModelMap
from shrimplab.local import LocalNormalForm
from shrimplab.global_map import saddle_global
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


def test_spec_validation():
    with pytest.raises(ValueError):
        dp_spec(nx=1)
    with pytest.raises(ValueError):
        dp_spec(transient=0)
    with pytest.raises(ValueError):
        dp_spec(escape_radius=-1.0)
    with pytest.raises(ValueError):
        dp_spec(seed_rule="nope")


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
        dp_spec(nx=16, ny=16, transient=256, samples=256),
        family_spec("cubic_plus", (0.0, 0.0), **quick),
        family_spec("cubic_minus", (0.0, 0.0), **quick),
        family_spec("shrimp3", (0.0, 0.0, 0.1), **quick),
        SweepSpec(
            target=RescaledPlaneTarget(cfg), plane=PlaneSpec("M1", -1.0, 3.0, "M2", -2.0, 2.0),
            nx=8, ny=8, **quick,
        ),
    ]
    for spec in specs:
        reference = plane_sweep(spec)
        for block in (7, 1000, 16384):
            monkeypatch.setattr(sweep, "_BLOCK", block)
            for workers in (1, 2):
                grid = plane_sweep(spec, workers=workers)
                assert grid.same_cells(reference), (spec.target.meta(), block, workers)
        monkeypatch.undo()


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
        seed = 0.0
        m = ModelMap("double_parabola", (xs[i], ys[j]))
        from shrimplab.families import eval_map

        y = seed
        for _ in range(4096):
            y = eval_map(m, y)
        orbit = find_periodic_orbit(ymap, p, y, (xs[i], ys[j]))
        assert orbit.period == p
        assert abs(orbit.multiplier) < 1.0


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
    cfg = ReturnMapConfig(local, saddle_global(), saddle_global(), 10, 10)
    target = RescaledPlaneTarget(cfg)
    plane = PlaneSpec("M1", -0.2, 0.2, "M2", -0.2, 0.2)
    spec = SweepSpec(target=target, plane=plane, nx=6, ny=6, transient=512, samples=512)
    grid = plane_sweep(spec)
    # near the origin of the rescaled plane the fixed point is attracting
    out = attractor_scan(target, (0.0, 0.0), spec)
    assert out.kind == "period"
