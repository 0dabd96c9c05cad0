import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shrimplab.config import build_return_config, load_config
from shrimplab.errors import ConvergenceError, EscapeError
from shrimplab.families import ModelMap
from shrimplab.global_map import focus_global, saddle_global
from shrimplab.local import DEFAULT_ESCAPE_RADIUS, SOLVED, LocalNormalForm
from shrimplab.returnmap import ReturnMapConfig
from shrimplab.rescale import (
    _pipeline,
    _stages,
    limit_map_deviation,
    locate_fold,
    measured_y_linear_coeff,
    predict_shrimp_location,
    rescale_frame,
    rescaled_return,
)
from shrimplab.sweep import (
    FamilyPlaneTarget,
    PlaneSpec,
    RescaledPlaneTarget,
    SweepSpec,
    plane_sweep,
)


def saddle_cfg(k, m, lam=0.4, gamma=2.0, **g):
    local = LocalNormalForm(kind="saddle", lam=lam, gamma=gamma)
    return ReturnMapConfig(local, saddle_global(**g), saddle_global(**g), k, m)


def focus_cfg(k, m, phi=0.3, b1=(1.0, 0.5), c2=(1.0, -0.5)):
    local = LocalNormalForm(kind="saddle_focus", lam=0.4, gamma=2.0, phi=phi)
    t1 = focus_global(
        x_plus=[1.0, 0.5], y_minus=1.0, a=np.zeros((2, 2)), b=list(b1),
        c=[1.0, -0.5], d=1.0,
    )
    t2 = focus_global(
        x_plus=[1.0, 0.5], y_minus=1.0, a=np.zeros((2, 2)), b=[1.0, 0.5],
        c=list(c2), d=1.0,
    )
    return ReturnMapConfig(local, t1, t2, k, m)


def test_beta_example():
    fr = rescale_frame(saddle_cfg(3, 3))
    assert math.isclose(fr.beta1, -0.125)
    assert math.isclose(fr.beta2, -0.125)


def test_beta_scaling_law():
    # log|beta1| = -((k+2m)/3) log gamma + const, exactly
    const = None
    for k, m in ((4, 3), (6, 5), (9, 4), (12, 12), (15, 9)):
        fr = rescale_frame(saddle_cfg(k, m))
        value = math.log(abs(fr.beta1)) + (k + 2 * m) / 3.0 * math.log(2.0)
        if const is None:
            const = value
        assert abs(value - const) < 1e-12


def test_m3_coefficient_examples():
    fr = rescale_frame(saddle_cfg(5, 5))
    assert math.isclose(fr.m3_coeff, 0.8**5)
    # saddle-focus with unit-axis vectors: phase nu = 0, coefficient cos(m phi)
    cfg = focus_cfg(6, 4, phi=math.pi / 3, b1=(1.0, 0.0), c2=(1.0, 0.0))
    fr = rescale_frame(cfg)
    assert math.isclose(fr.m3_coeff, math.cos(4 * math.pi / 3) * 0.4**4 * 2.0**6)


def test_m3_cosine_formula_matches_matrix_product():
    for m in range(3, 12):
        cfg = focus_cfg(m + 2, m)
        fr = rescale_frame(cfg)
        lead = cfg.local.leading_power(m)
        product = float(np.asarray(cfg.t2.c) @ lead @ np.asarray(cfg.t1.b))
        assert math.isclose(fr.m3_coeff, product * 2.0 ** (m + 2), rel_tol=1e-12)


def test_frame_chart_round_trip():
    fr = rescale_frame(saddle_cfg(9, 7))
    for x in (-1.3, 0.0, 2.4):
        assert math.isclose(fr.chart_x_inv(fr.chart_x(x)), x, abs_tol=1e-12)
    for y in (-2.0, 0.3):
        assert math.isclose(fr.chart_y_inv(fr.chart_y(y)), y, abs_tol=1e-12)
    fr = rescale_frame(focus_cfg(8, 6))
    for vec in ([0.4, -1.1], [0.0, 0.0]):
        back = fr.chart_x_inv(fr.chart_x(np.array(vec)))
        assert np.allclose(back, vec, atol=1e-10)


def test_rescaled_return_examples():
    fr = rescale_frame(saddle_cfg(12, 12))
    _, y0 = rescaled_return(fr, 0.0, 0.0, M=(0.0, 0.0))
    assert abs(y0) <= 1e-9
    _, y1 = rescaled_return(fr, 0.0, 1.0, M=(1.0, 0.0))
    assert abs(y1 - 0.8**12) <= 1e-9


def test_rescaled_return_quartic_structure():
    # brute-force check: at X=0 the second coordinate follows the quartic
    # composed with the frame's linear coefficient, point by point
    fr = rescale_frame(saddle_cfg(10, 8))
    rng = np.random.default_rng(2)
    for _ in range(25):
        y = rng.uniform(-2, 2)
        m1, m2 = rng.uniform(-2, 2, 2)
        _, yb = rescaled_return(fr, 0.0, y, M=(m1, m2))
        expected = m2 - (m1 - y * y) ** 2 + fr.m3_coeff * y
        assert abs(yb - expected) < 1e-8


def test_rescaled_return_x_coupling_oracle():
    # with X nonzero the first equation picks up the mirror coupling
    # b2*c1*lam^k*gamma^m * X; verify against independent arithmetic
    fr = rescale_frame(saddle_cfg(9, 6))
    c1_coupling = 1.0 * 0.4**9 * 2.0**6
    for x in (-1.5, 0.7, 2.0):
        xb, yb = rescaled_return(fr, x, 0.5, M=(0.3, -0.2))
        x_expected = 0.3 - 0.25 + c1_coupling * x
        assert abs(xb - x_expected) < 1e-9
        y_expected = -0.2 - x_expected**2 + fr.m3_coeff * 0.5
        assert abs(yb - y_expected) < 1e-9


def test_frame_current_mu_values():
    cfg = saddle_cfg(8, 8)
    fr0 = rescale_frame(cfg)
    mu1, mu2 = fr0.mus_for(0.7, -0.4)
    fr1 = rescale_frame(replace(cfg, t1=replace(cfg.t1, mu=mu1), t2=replace(cfg.t2, mu=mu2)))
    assert math.isclose(fr1.m1, 0.7, abs_tol=1e-9)
    assert math.isclose(fr1.m2, -0.4, abs_tol=1e-9)


def test_ordering_symmetry():
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0)
    t1 = saddle_global(b=1.5, c=0.7, d=1.2, mu=1e-4)
    t2 = saddle_global(b=0.9, c=1.1, d=0.8, mu=2e-4)
    lt = rescale_frame(ReturnMapConfig(local, t1, t2, 4, 9))
    ge = rescale_frame(ReturnMapConfig(local, t2, t1, 9, 4))
    assert lt.roles_swapped and not ge.roles_swapped
    for field in ("beta1", "beta2", "m1", "m2", "m3_coeff", "mu1_center", "mu2_center"):
        assert math.isclose(getattr(lt, field), getattr(ge, field), rel_tol=1e-12)


def test_deviation_report_benchmark():
    fr = rescale_frame(saddle_cfg(12, 12))
    report = limit_map_deviation(fr, 2.0, 9)
    assert report.skipped == 0
    assert report.err_three_param < 1e-6
    m3 = fr.m3_coeff
    gap = report.err_two_param - report.err_three_param
    assert 0.5 * abs(m3) * 2.0 <= gap <= 2.0 * abs(m3) * 2.0


def test_deviation_rejects_bad_input():
    fr = rescale_frame(saddle_cfg(6, 6))
    with pytest.raises(ValueError):
        limit_map_deviation(fr, -1.0, 9)
    with pytest.raises(ValueError):
        limit_map_deviation(fr, 1.0, 1)


def test_measured_linear_coefficient():
    fr = rescale_frame(saddle_cfg(12, 12))
    measured = measured_y_linear_coeff(fr)
    assert abs(measured - fr.m3_coeff) <= 1e-2 * abs(fr.m3_coeff)


def test_predict_examples():
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0)
    for m in (6, 10):
        cfg = ReturnMapConfig(
            local, saddle_global(x_plus=0.0), saddle_global(x_plus=0.0), m, m
        )
        mu1, mu2 = predict_shrimp_location(cfg, (0.0, 0.0))
        assert math.isclose(mu1, 2.0**-m)
        assert math.isclose(mu2, 2.0**-m)
    norms = []
    for m in (10, 12):
        mu = predict_shrimp_location(saddle_cfg(m, m), (0.0, 0.0))
        norms.append(math.hypot(*mu))
    assert abs(norms[1] / norms[0] - 0.25) < 0.02


def test_predict_matches_exact_center_when_a_zero():
    cfg = saddle_cfg(9, 9)
    fr = rescale_frame(cfg)
    mu1, mu2 = predict_shrimp_location(cfg, (0.0, 0.0))
    assert math.isclose(mu1, fr.mu1_center, rel_tol=1e-12)
    assert math.isclose(mu2, fr.mu2_center, rel_tol=1e-12)


def test_frame_handles_feedback_coefficients():
    # nonzero a: the numeric center solve must keep the composition centered
    fr = rescale_frame(saddle_cfg(9, 7, a=0.6))
    _, y0 = rescaled_return(fr, 0.0, 0.0, M=(0.0, 0.0))
    assert abs(y0) < 1e-9
    rng = np.random.default_rng(4)
    for _ in range(10):
        y = rng.uniform(-1.5, 1.5)
        m1, m2 = rng.uniform(-1.5, 1.5, 2)
        _, yb = rescaled_return(fr, 0.0, y, M=(m1, m2))
        expected = m2 - (m1 - y * y) ** 2 + fr.m3_coeff * y
        assert abs(yb - expected) < 1e-7


def test_test_cubic_center_polish():
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, nonlinearity="test_cubic")
    fr = rescale_frame(ReturnMapConfig(local, saddle_global(), saddle_global(), 10, 10))
    _, y0 = rescaled_return(fr, 0.0, 0.0, M=(0.0, 0.0))
    assert abs(y0) < 1e-7


def test_test_cubic_center_polish_with_feedback():
    # Was "center polish did not converge": the vertex residual was a +-1e-6
    # central difference whose noise floor lay above the 1e-12 tolerance.
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, nonlinearity="test_cubic")
    fr = rescale_frame(ReturnMapConfig(local, saddle_global(a=0.3), saddle_global(a=0.3), 14, 13))
    xb, yb = rescaled_return(fr, 0.0, 0.0, M=(0.0, 0.0))
    assert abs(xb) < 1e-9 and abs(yb) < 1e-9
    report = limit_map_deviation(fr, 2.0, 13)
    assert report.skipped == 0


def test_fold_location_convergence():
    ystar = -(0.25 ** (1.0 / 3.0))
    m2star = ystar + ystar**4
    rels = []
    for k in (8, 10, 12):
        _, _, rel = locate_fold(saddle_cfg(k, k), (0.0, m2star))
        rels.append(rel)
    assert all(r < 0.1 for r in rels)
    assert rels[0] > rels[1] > rels[2]


def test_test_cubic_frames_verify_to_k20():
    # Was "center polish did not converge" from k = 16 on (k = 14 with
    # feedback): the vertex residual dy12/dY has a round-off floor that grows
    # about 4x per two passes and passed 1e-12 there.
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, nonlinearity="test_cubic")
    feedback = ReturnMapConfig(local, saddle_global(a=0.2), saddle_global(a=-0.1), 14, 14)
    assert rescale_frame(feedback).oc.k == 14
    errs = []
    for k in (14, 16, 18, 20):
        fr = rescale_frame(ReturnMapConfig(local, saddle_global(), saddle_global(), k, k))
        errs.append(limit_map_deviation(fr, 2.0, 13).err_three_param)
        if k >= 16:
            assert abs(measured_y_linear_coeff(fr) - fr.m3_coeff) <= 1e-3 * fr.m3_coeff
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


def _fold_passes(monkeypatch, m_event, ks):
    """locate_fold's relative offsets and Newton passes (linear solves) per k."""
    solve, passes = np.linalg.solve, []

    def counted(a, b):
        passes[-1] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    rels = []
    for k in ks:
        passes.append(0)
        rels.append(locate_fold(saddle_cfg(k, k), m_event)[2])
    return rels, passes


def test_fold_solve_stops_at_round_off_floor(monkeypatch):
    # At (0.3, -0.2) the det residual stalls near 1e-12: the fold solve spun
    # all 60 passes at k = 12, 13, 15 and 16 and failed from k = 17 on.
    rels, passes = _fold_passes(monkeypatch, (0.3, -0.2), range(12, 21))
    assert max(passes) <= 12, passes
    ratios = [b / a for a, b in zip(rels, rels[1:])]
    assert all(0.49 <= q <= 0.52 for q in ratios), ratios


def test_fold_solve_passes_at_default_event(monkeypatch):
    _, passes = _fold_passes(monkeypatch, (0.0, 0.0), (8, 10, 12))
    assert passes == [5, 4, 6]


def test_rescaled_return_mirror_ordering_equivalence():
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0)
    t1 = saddle_global(b=1.5, c=0.7, d=1.2)
    t2 = saddle_global(b=0.9, c=1.1, d=0.8)
    lt = rescale_frame(ReturnMapConfig(local, t1, t2, 4, 9))
    ge = rescale_frame(ReturnMapConfig(local, t2, t1, 9, 4))
    for x, y, m in ((0.0, 0.4, (0.2, -0.1)), (0.5, -1.0, (0.0, 0.3))):
        xa, ya = rescaled_return(lt, x, y, M=m)
        xb, yb = rescaled_return(ge, x, y, M=m)
        assert math.isclose(xa, xb, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(ya, yb, rel_tol=1e-12, abs_tol=1e-12)


def test_deviation_saddle_focus_path():
    fr = rescale_frame(focus_cfg(10, 8))
    report = limit_map_deviation(fr, 1.5, 5)
    assert report.skipped == 0
    gap = report.err_two_param - report.err_three_param
    assert report.err_three_param < 1e-6
    assert gap <= 2.0 * abs(fr.m3_coeff) * 1.5


def cubic_cfg(k, m):
    local = LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, nonlinearity="test_cubic")
    return ReturnMapConfig(local, saddle_global(), saddle_global(), k, m)


def _pointwise_deviation(frame, radius, grid):
    """Reference: the deviation lattice with one rescaled_return call per point."""
    axis = np.linspace(-radius, radius, grid)
    yv, m1v, m2v = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    ybar = np.full(yv.size, np.nan)
    for i in range(yv.size):
        try:
            _, ybar[i] = rescaled_return(frame, 0.0, yv[i], M=(m1v[i], m2v[i]))
        except (EscapeError, ConvergenceError):
            pass
    lim2 = m2v - (m1v - yv**2) ** 2
    lim3 = lim2 + frame.m3_coeff * yv
    ok = np.isfinite(ybar)
    return (
        float(np.max(np.abs(ybar[ok] - lim2[ok]))),
        float(np.max(np.abs(ybar[ok] - lim3[ok]))),
        int(yv.size - ok.sum()),
    )


@pytest.mark.parametrize(
    "cfg, radius, grid, skips",
    [
        (saddle_cfg(10, 8, a=0.6, d=1.7), 2.0, 7, False),
        (saddle_cfg(6, 9, b=1.3, c=0.8), 40.0, 5, True),
        (focus_cfg(10, 8), 1.5, 5, False),
        (focus_cfg(7, 9), 40.0, 5, True),
        (cubic_cfg(10, 10), 2.0, 5, False),
        (cubic_cfg(6, 6), 8.0, 5, True),
    ],
    ids=["saddle", "saddle-escapes", "focus", "focus-escapes", "cubic", "cubic-escapes"],
)
def test_deviation_lattice_matches_pointwise_reference(cfg, radius, grid, skips):
    frame = rescale_frame(cfg)
    report = limit_map_deviation(frame, radius, grid)
    err2, err3, skipped = _pointwise_deviation(frame, radius, grid)
    assert report.err_two_param == err2
    assert report.err_three_param == err3
    assert report.skipped == skipped
    assert (skipped > 0) == skips


TANGENT_CONFIGS = {
    "saddle": ReturnMapConfig(
        LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, sign_lambda=-1),
        saddle_global(a=0.4, d=1.3, b=1.2), saddle_global(a=-0.3, c=0.7, d=0.9), 9, 7,
    ),
    "saddle-focus": focus_cfg(10, 8),
    "test-cubic": ReturnMapConfig(
        LocalNormalForm(kind="saddle", lam=0.4, gamma=2.0, nonlinearity="test_cubic"),
        saddle_global(a=0.3), saddle_global(a=0.3), 10, 9,
    ),
    "mirror": saddle_cfg(6, 9, a=0.2, d=1.4),
}


@lru_cache(maxsize=None)
def _tangent_frame(name):
    return rescale_frame(TANGENT_CONFIGS[name])


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(TANGENT_CONFIGS)),
    state=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    m=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
def test_pipeline_tangent_matches_central_differences(name, state, m):
    # The exact tangent of the composition along each rescaled state axis
    # (X, the saddle-focus X2, and Y) against a central difference.
    frame = _tangent_frame(name)
    focus = frame.oc.local.x_dim == 2
    X = np.array(state[:2]) if focus else state[0]
    Y = state[2]
    mu1, mu2 = frame.mus_for(*m)
    axes = [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0)] if focus else [(1.0, 0.0)]
    axes.append((np.zeros(2) if focus else 0.0, 1.0))
    h = 1.0e-5
    for dX, dY in axes:
        xb, yb, status, inside, (dxb, dyb) = _pipeline(frame, X, Y, mu1, mu2, tangent=(dX, dY))
        assume(status == SOLVED and inside)
        xp, yp, _, _, _ = _pipeline(frame, X + h * dX, Y + h * dY, mu1, mu2)
        xm, ym, _, _, _ = _pipeline(frame, X - h * dX, Y - h * dY, mu1, mu2)
        for exact, plus, minus in ((dxb, xp, xm), (dyb, yp, ym)):
            central = (plus - minus) / (2.0 * h)
            assert np.allclose(exact, central, rtol=1e-6, atol=1e-6), (dX, dY)


@pytest.mark.parametrize("name", sorted(TANGENT_CONFIGS))
def test_rescaled_sweep_step_is_pipeline_at_x0(name):
    # The sweep's step wraps _stages in the frame's charts itself; at X = 0
    # it must give _pipeline's Ybar, and its dYbar along (0, 1), bit for bit
    # at every point that is solved and stays inside.
    frame = _tangent_frame(name)
    rng = np.random.default_rng(11)
    y, m1, m2 = rng.uniform(-1.5, 1.5, (3, 500))
    mu1, mu2 = frame.mus_for(m1, m2)
    with np.errstate(over="ignore", invalid="ignore"):
        _, ybar, status, inside, (_, dybar) = _pipeline(frame, 0.0, y, mu1, mu2, (0.0, 1.0))
        step_y, step_dy = y.copy(), np.empty_like(y)
        RescaledPlaneTarget(TANGENT_CONFIGS[name]).stepper(m1, m2)(step_y, step_dy)
    ok = (status == SOLVED) & inside
    assert ok.sum() >= 100
    for stepped, piped in ((step_y, ybar), (step_dy, dybar)):
        assert np.array_equal(stepped[ok].view(np.uint64), piped[ok].view(np.uint64))


@pytest.mark.parametrize("radius", [math.inf, DEFAULT_ESCAPE_RADIUS])
@pytest.mark.parametrize("n", [1, 500, 16384])
@pytest.mark.parametrize("name", sorted(TANGENT_CONFIGS))
def test_stages_y_row_is_the_full_composition(name, n, radius):
    # Asked for the Y-row alone, _stages skips the rows that Ybar does not
    # read; its Ybar and dYbar must still be those of the full composition
    # bit for bit, also where a point escapes or turns NaN.
    frame = _tangent_frame(name)
    rng = np.random.default_rng(n)
    Y, m1, m2 = rng.uniform(-1.5, 1.5, (3, n))
    Y[1::5] = 10.0 ** rng.uniform(0.0, 200.0, Y[1::5].size)
    Y[3::50] = np.nan
    y11, (mu1, mu2), x02 = frame.chart_y(Y), frame.mus_for(m1, m2), frame.center_x2
    for tangent in (None, (np.zeros(np.shape(x02)), frame.beta1)):
        with np.errstate(over="ignore", invalid="ignore"):
            full = _stages(frame.oc, x02, y11, mu1, mu2, radius, tangent)
            y_row = _stages(frame.oc, x02, y11, mu1, mu2, radius, tangent, y_row=True)
        pairs = [(full[2], y_row[0])]
        if tangent is None:
            assert y_row[1] is None
        else:
            pairs.append((full[6][2], y_row[1]))
        for whole, row in pairs:
            assert np.array_equal(np.asarray(whole).view(np.uint64), np.asarray(row).view(np.uint64))
    if n > 1:
        assert 0 < np.isfinite(full[2]).sum() < n


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, k, m", [("benchmark_saddle", 8, 6),
                                        ("benchmark_saddle_focus", 6, 4)])
def test_rescaled_sweep_matches_shrimp3_near_unit_m3(name, k, m):
    """The three-parameter claim where M3 = frame.m3_coeff is near +-1 (the
    codim-3 transitions): a 64^2 rescaled_return sweep on [-1, 1]^2 labels
    its cells as the shrimp3 sweep at that M3 does, except at most one cell,
    which lies on a boundary between outcome kinds in both grids."""
    target = RescaledPlaneTarget(build_return_config(load_config(CONFIGS / f"{name}.cfg"), k, m))
    limit = FamilyPlaneTarget(ModelMap("shrimp3", (0.0, 0.0, target.frame.m3_coeff)), "M1", "M2")
    plane = PlaneSpec("M1", -1.0, 1.0, "M2", -1.0, 1.0)
    a, b = (plane_sweep(SweepSpec(target=t, plane=plane, nx=64, ny=64, transient=1024,
                                  samples=4096, max_period=20)) for t in (target, limit))
    differ = np.argwhere((a.kind != b.kind) | (a.period != b.period))
    # measured: 4,095 of 4,096 cells agree on both, the saddle at (8, 6), M3 =
    # 1.0486, all but (63, 63) (period 1 against escaped), the saddle-focus at
    # (6, 4), M3 = -1.0818, all but (63, 35) (period 4 against unresolved)
    assert len(differ) <= 1
    for i, j in differ:
        for grid in (a, b):
            near = [grid.kind[p, q] for p, q in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                    if 0 <= p < 64 and 0 <= q < 64]
            assert any(kind != grid.kind[i, j] for kind in near), (i, j)
