import math

import numpy as np
import pytest

from shrimplab.bifurcation import FamilyYMap, find_periodic_orbit
from shrimplab.errors import ShrimplabError
from shrimplab.families import ModelMap, eval_jet, eval_map, param_index
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


def test_spec_rejects_meaningless_values():
    with pytest.raises(ValueError, match="x_lo"):
        PlaneSpec("M1", float("nan"), 1.0, "M2", -1.0, 1.0)
    with pytest.raises(ValueError, match="y_hi"):
        PlaneSpec("M1", -1.0, 1.0, "M2", -1.0, float("inf"))
    with pytest.raises(ValueError, match="samples"):
        dp_spec(samples=0)
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
    """The sweep's vector maps and eval_map/eval_jet share one formula table."""
    rng = np.random.default_rng(17)
    p1, p2, y = rng.uniform(-1.5, 1.5, (3, 400))
    y[::7] = 0.0
    p1[::5] = 0.0
    f, df = FamilyPlaneTarget(ModelMap(family, params), *axes).maps(p1, p2)
    want_f, want_df = [], []
    for a, b, yy in zip(p1, p2, y):
        q = list(params)
        for name, value in zip(axes, (a, b)):
            if name != "dummy":
                q[ORACLE_AXES[name]] = value
        m = ModelMap(family, tuple(q))
        want_f.append(eval_map(m, float(yy)))
        want_df.append(eval_jet(m, float(yy), 1).derivs[0])
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
