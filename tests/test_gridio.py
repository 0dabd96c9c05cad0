import csv
import random
import tracemalloc

import numpy as np
import pytest

from shrimplab import gridio, sweep
from shrimplab.errors import ConfigError
from shrimplab.families import ModelMap
from shrimplab.gridio import (
    export_grid, export_grid_csv, gray_for, grid_metadata, import_grid_csv,
)
from shrimplab.sweep import (
    FamilyPlaneTarget, PlaneSpec, SweepGrid, SweepSpec, attractor_scan, plane_sweep,
)


def small_grid():
    target = FamilyPlaneTarget(ModelMap("double_parabola", (0.0, 0.0)), "M1", "M2")
    plane = PlaneSpec("M1", -0.3, 0.9, "M2", -0.3, 0.9)
    spec = SweepSpec(target=target, plane=plane, nx=12, ny=10, transient=512, samples=512)
    return plane_sweep(spec)


def test_constant_grid_pgm(tmp_path):
    target = FamilyPlaneTarget(ModelMap("double_parabola", (0.0, 0.0)), "M1", "M2")
    plane = PlaneSpec("M1", 0.0, 0.0, "M2", 0.0, 0.0)
    spec = SweepSpec(target=target, plane=plane, nx=2, ny=2)
    grid = plane_sweep(spec)
    pgm = tmp_path / "grid.pgm"
    export_grid(grid, tmp_path / "grid.csv", pgm)
    lines = [l for l in pgm.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    values = " ".join(lines[3:]).split()
    assert len(values) == 4
    assert len(set(values)) == 1


def test_csv_row_count(tmp_path):
    grid = small_grid()
    path = tmp_path / "grid.csv"
    export_grid(grid, path, tmp_path / "grid.pgm")
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 12 * 10 + 1


def test_round_trip_exact(tmp_path):
    grid = small_grid()
    path = tmp_path / "grid.csv"
    export_grid(grid, path, tmp_path / "grid.pgm")
    back = import_grid_csv(path)
    assert back.same_cells(grid)
    assert back.spec.nx == grid.spec.nx
    assert back.spec.plane == grid.spec.plane
    assert back.spec.target.meta() == grid.spec.target.meta()


def _reference_csv(grid, path, extra_meta):
    """The CSV export written row by row through csv.writer."""
    spec = grid.spec
    xs, ys = spec.plane.x_values(spec.nx), spec.plane.y_values(spec.ny)
    names = {1: "period", 2: "chaotic", 3: "escaped", 4: "unresolved"}
    meta = grid_metadata(grid)
    with open(path, "w", newline="") as fh:
        for key, value in extra_meta:
            fh.write(f"# {key} = {value}\n")
        for key in sorted(meta):
            fh.write(f"# {key} = {meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "j", spec.plane.x_name, spec.plane.y_name, "outcome", "value"])
        for j in range(spec.ny):
            for i in range(spec.nx):
                code = int(grid.kind[i, j])
                value = {1: int(grid.period[i, j]), 3: ""}.get(code, f"{grid.lyap[i, j]:.17g}")
                writer.writerow([i, j, f"{xs[i]:.17g}", f"{ys[j]:.17g}", names[code], value])


def test_export_bytes_match_csv_writer_reference(tmp_path):
    """Every outcome, periods of two and three digits, exponents of -0.0,
    subnormal, negative and large, on a grid with nx != ny."""
    target = FamilyPlaneTarget(ModelMap("double_parabola", (0.0, 0.0)), "M1", "M2")
    plane = PlaneSpec("M1", -0.6, 1.5, "M2", -0.55, 1.4)
    spec = SweepSpec(target=target, plane=plane, nx=7, ny=5, max_period=123)
    rng = np.random.default_rng(2)
    kind = rng.integers(1, 5, (7, 5)).astype(np.uint8)
    kind[:4, 0] = [1, 2, 3, 4]
    kind[1:4, 1:3] = [[4, 4], [4, 2], [4, 4]]
    period = np.where(kind == 1, rng.choice([1, 2, 10, 16, 123], (7, 5)), 0).astype(np.int32)
    lyap = np.where((kind == 2) | (kind == 4), rng.normal(0.0, 1.0, (7, 5)), 0.0)
    lyap[1:4, 1] = [-0.0, 5.0e-324, -2.5e-310]
    lyap[1:4, 2] = [0.1, -1.0 / 3.0, 1.0e300]
    grid = SweepGrid(spec=spec, kind=kind, period=period, lyap=lyap)
    assert set(period[kind == 1].tolist()) >= {10, 123}
    extra = [("command", "sweep")]
    export_grid_csv(grid, tmp_path / "grid.csv", extra)
    _reference_csv(grid, tmp_path / "reference.csv", extra)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = import_grid_csv(tmp_path / "grid.csv")
    assert back.same_cells(grid)
    assert np.array_equal(back.lyap.view(np.uint64), grid.lyap.view(np.uint64))


def test_imported_grid_cannot_be_reswept(tmp_path):
    target = FamilyPlaneTarget(ModelMap("double_parabola", (0.0, 0.0)), "M1", "M2")
    plane = PlaneSpec("M1", -0.3, 0.9, "M2", -0.3, 0.9)
    grid = plane_sweep(SweepSpec(target=target, plane=plane, nx=4, ny=4, transient=64, samples=64))
    export_grid(grid, tmp_path / "grid.csv", tmp_path / "grid.pgm")
    spec = import_grid_csv(tmp_path / "grid.csv").spec
    with pytest.raises(ConfigError, match="re-iterated"):
        plane_sweep(spec)
    with pytest.raises(ConfigError, match="re-iterated"):
        attractor_scan(spec.target, (0.0, 0.0), spec)


def test_gray_mapping():
    assert gray_for("escaped", 0, 20) == 0
    assert gray_for("chaotic", 0, 20) == 255
    assert gray_for("unresolved", 0, 20) == 248
    g1 = gray_for("period", 1, 20)
    g20 = gray_for("period", 20, 20)
    assert g1 == 16
    assert g20 == 240
    assert 0 < g1 < g20 < 255


def test_deterministic_bytes(tmp_path):
    grid = small_grid()
    export_grid(grid, tmp_path / "a.csv", tmp_path / "a.pgm")
    export_grid(grid, tmp_path / "b.csv", tmp_path / "b.pgm")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def _exported(tmp_path):
    path = tmp_path / "grid.csv"
    export_grid(small_grid(), path, tmp_path / "grid.pgm")
    return path


def _edit_row(path, n, edit):
    """Rewrite cell row n (0-based, after the header) with edit(fields)."""
    lines = path.read_text().splitlines(keepends=True)
    at = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1 + n
    fields = lines[at].rstrip("\r\n").split(",")
    lines[at] = ",".join(edit(fields)) + "\r\n"
    path.write_text("".join(lines))


def _assert_rejected(path, match):
    with pytest.raises(ConfigError, match=match) as info:
        import_grid_csv(path)
    assert str(path) in str(info.value)


def test_import_matches_cells_of_all_outcomes(tmp_path):
    target = FamilyPlaneTarget(ModelMap("double_parabola", (0.0, 0.0)), "M1", "M2")
    plane = PlaneSpec("M1", -0.6, 1.5, "M2", -0.55, 1.4)
    grid = plane_sweep(SweepSpec(target=target, plane=plane, nx=24, ny=20, transient=512,
                                 samples=512))
    assert set(np.unique(grid.kind).tolist()) == {1, 2, 3, 4}
    path = tmp_path / "grid.csv"
    export_grid(grid, path, tmp_path / "grid.pgm")
    back = import_grid_csv(path)
    assert back.same_cells(grid)
    assert np.array_equal(back.lyap.view(np.uint64), grid.lyap.view(np.uint64))
    # unresolved cells carry their exponent, and a gray of their own
    unresolved = np.argwhere(grid.kind == 4).tolist()
    rows = {tuple(map(int, r.split(",")[:2])): r.split(",")[4:]
            for r in path.read_text().splitlines() if r[0].isdigit()}
    for i, j in unresolved:
        assert rows[i, j] == ["unresolved", f"{grid.lyap[i, j]:.17g}"]
    pgm = [l for l in (tmp_path / "grid.pgm").read_text().splitlines() if not l.startswith("#")]
    gray = np.array([l.split() for l in pgm[3:]], dtype=int).T  # rows run j-outer
    assert np.array_equal(gray == 248, grid.kind == 4)


def test_import_rejects_unknown_outcome(tmp_path):
    path = _exported(tmp_path)
    _edit_row(path, 5, lambda f: f[:4] + ["periodic", "1"])
    _assert_rejected(path, "unknown outcome 'periodic'")
    # an outcome longer than the field is cut short, and matches no name
    _edit_row(path, 5, lambda f: f[:4] + ["unresolvedxy", "-0.5"])
    _assert_rejected(path, "unknown outcome 'unresolvedx'")


def test_import_rejects_duplicated_cell(tmp_path):
    path = _exported(tmp_path)
    _edit_row(path, 7, lambda f: ["0", "0"] + f[2:])  # right row count, (0, 0) twice
    _assert_rejected(path, "duplicated cell index")


def test_import_rejects_non_integer_index(tmp_path):
    path = _exported(tmp_path)
    _edit_row(path, 3, lambda f: ["1.5"] + f[1:])
    _assert_rejected(path, "1.5")


@pytest.mark.parametrize("i, j", [("-1", "0"), ("12", "0"), ("0", "10"), ("0", "-3")])
def test_import_rejects_index_outside_grid(tmp_path, i, j):
    path = _exported(tmp_path)
    _edit_row(path, 0, lambda f: [i, j] + f[2:])
    _assert_rejected(path, "outside the 12x10 grid")


@pytest.mark.parametrize(
    "value, match",
    [("2.5", "2.5"), ("", "''"), ("0." + "1" * 30, "too long")],
)
def test_import_rejects_bad_value(tmp_path, value, match):
    grid = small_grid()
    path = tmp_path / "grid.csv"
    export_grid(grid, path, tmp_path / "grid.pgm")
    n = int(np.flatnonzero((grid.kind == 1).T.ravel())[0])  # rows run j-outer
    _edit_row(path, n, lambda f: f[:4] + ["period", value])
    _assert_rejected(path, match)


def test_import_rejects_missing_rows_and_metadata(tmp_path):
    path = _exported(tmp_path)
    text = path.read_text()
    path.write_text(text[: text.rindex("\n", 0, -1) + 1])  # drop the last cell row
    _assert_rejected(path, "expected 120 cells, found 119")
    path.write_text("".join(l for l in text.splitlines(True) if "sweep.transient" not in l))
    _assert_rejected(path, "missing metadata 'sweep.transient'")
    path.write_text("".join(l for l in text.splitlines(True) if l.startswith("#")) + "i,j\n")
    _assert_rejected(path, "expected 120 cells, found 0")


def test_import_rejects_malformed_metadata_value(tmp_path):
    path = _exported(tmp_path)
    text = path.read_text()
    path.write_text(text.replace("# sweep.nx = 12\n", "# sweep.nx = abc\n"))
    _assert_rejected(path, "key 'sweep.nx': not an integer: 'abc'")


def _cell_rows(path):
    """The file's lines before the cell rows, and the cell rows."""
    lines = path.read_text().splitlines(keepends=True)
    at = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:at], lines[at:]


@pytest.mark.parametrize("block", [1, 7, 16, 119, 120, 121])
def test_import_in_chunks_matches_one_parse(tmp_path, monkeypatch, block):
    """Chunks of a few rows import the same grid, from shuffled rows too,
    and report a row count and a bad row as one parse of the file does."""
    grid = small_grid()
    path = _exported(tmp_path)
    head, rows = _cell_rows(path)
    monkeypatch.setattr(gridio, "_BLOCK", 10**6)
    _edit_row(path, 40, lambda f: ["1.5"] + f[1:])
    with pytest.raises(ConfigError, match="at row 40,") as whole:
        import_grid_csv(path)
    monkeypatch.setattr(gridio, "_BLOCK", block)
    _assert_rejected(path, whole.value.args[0])
    random.Random(block).shuffle(rows)
    path.write_text("".join(head + rows))
    assert import_grid_csv(path).same_cells(grid)
    path.write_text("".join(head + rows[:-1]))
    _assert_rejected(path, "expected 120 cells, found 119")
    # the same cell in the first and the last chunk
    path.write_text("".join(head + rows[:-1] + rows[:1]))
    _assert_rejected(path, "duplicated cell index")


def test_import_memory_is_bounded_by_a_chunk(tmp_path):
    """Importing 256x256 cells holds the output arrays and a few chunks'
    worth of parsed rows, not every row of the file at once."""
    n = 256
    rng = np.random.default_rng(3)
    kind = rng.integers(1, 5, (n, n)).astype(np.uint8)
    grid = SweepGrid(
        spec=SweepSpec(target=small_grid().spec.target, plane=PlaneSpec("M1", -1, 1, "M2", -1, 1),
                       nx=n, ny=n),
        kind=kind,
        period=np.where(kind == 1, rng.integers(1, 17, (n, n)), 0).astype(np.int32),
        lyap=np.where((kind == 2) | (kind == 4), rng.normal(size=(n, n)), 0.0),
    )
    path = export_grid_csv(grid, tmp_path / "grid.csv")
    tracemalloc.start()
    try:
        back = import_grid_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.same_cells(grid)
    outputs = back.kind.nbytes + back.period.nbytes + back.lyap.nbytes
    assert peak < outputs + 3 * sweep._BLOCK * gridio._ROW.itemsize
