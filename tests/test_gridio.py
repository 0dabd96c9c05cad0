import csv
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shrimplab import gridio
from shrimplab.errors import ConfigError
from shrimplab.families import ModelMap
from shrimplab.gridio import (
    export_grid, export_grid_csv, gray_for, grid_metadata, import_grid_csv, write_table,
)
from shrimplab.sweep import (
    FamilyPlaneTarget, PlaneSpec, SweepGrid, SweepSpec, plane_sweep,
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
    # a known name with bytes appended matches none
    _edit_row(path, 5, lambda f: f[:4] + ["unresolvedxy", "-0.5"])
    _assert_rejected(path, "unknown outcome 'unresolvedxy' at row 5, column 5")


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


def test_import_rejects_metadata_not_utf8(tmp_path):
    # was a UnicodeDecodeError
    path = _exported(tmp_path)
    path.write_bytes(b"# plane.x_lo = \xff\n" + path.read_bytes())
    _assert_rejected(path, "metadata line is not UTF-8")


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
    monkeypatch.setattr(gridio, "_CHUNK", 10**6)
    _edit_row(path, 40, lambda f: ["1.5"] + f[1:])
    with pytest.raises(ConfigError, match="at row 40,") as whole:
        import_grid_csv(path)
    monkeypatch.setattr(gridio, "_CHUNK", block * len(rows[0]))  # about `block` rows
    _assert_rejected(path, whole.value.args[0])
    random.Random(block).shuffle(rows)
    path.write_text("".join(head + rows))
    assert import_grid_csv(path).same_cells(grid)
    path.write_text("".join(head + rows[:-1]))
    _assert_rejected(path, "expected 120 cells, found 119")
    # the same cell in the first and the last chunk
    path.write_text("".join(head + rows[:-1] + rows[:1]))
    _assert_rejected(path, "duplicated cell index")


@pytest.mark.parametrize("fields", [[5], [7], [7, 5]])
def test_import_rejects_field_count_after_chunk_boundary(tmp_path, monkeypatch, fields):
    """A row of 5 or 7 fields opening a chunk is named, also when the next
    row makes up the comma count."""
    path = _exported(tmp_path)
    _, rows = _cell_rows(path)
    # _edit_row leaves LF line ends: a first read of this size stops just
    # before row 39's LF and reads that LF on, so row 40 opens the second chunk
    monkeypatch.setattr(gridio, "_CHUNK", len("".join(rows[:40])) - 1)
    firsts, fill = [], gridio._fill
    monkeypatch.setattr(gridio, "_fill", lambda *args: firsts.append(args[2]) or fill(*args))
    for n, count in enumerate(fields, start=40):
        _edit_row(path, n, lambda f: (f + ["0"])[:count])
    _assert_rejected(path, f"expected 6 fields, found {fields[0]} at row 40$")
    assert firsts == [0, 40]


def test_import_reads_lf_line_ends(tmp_path):
    grid = small_grid()
    path = _exported(tmp_path)
    crlf = path.read_bytes()
    assert crlf.count(b"\r\n") == 12 * 10 + 1
    path.write_bytes(crlf.replace(b"\r\n", b"\n"))
    back = import_grid_csv(path)
    assert back.same_cells(grid)
    assert np.array_equal(back.lyap.view(np.uint64), grid.lyap.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_import_reads_exponents_with_float_bits(tmp_path_factory, value):
    """Any finite double written .17g into a chaotic row imports with the
    bits float() gives it."""
    target = FamilyPlaneTarget(ModelMap("double_parabola", (0.0, 0.0)), "M1", "M2")
    grid = SweepGrid(
        spec=SweepSpec(target=target, plane=PlaneSpec("M1", 0, 0, "M2", 0, 0), nx=2, ny=2),
        kind=np.full((2, 2), 2, dtype=np.uint8),
        period=np.zeros((2, 2), dtype=np.int32),
        lyap=np.full((2, 2), value),
    )
    path = export_grid_csv(grid, tmp_path_factory.getbasetemp() / "exponent.csv")
    assert path.read_bytes().count(f",chaotic,{value:.17g}\r\n".encode()) == 4
    back = import_grid_csv(path)
    bits = np.float64(float(f"{value:.17g}")).view(np.uint64)
    assert (back.lyap.view(np.uint64) == bits).all()


def test_import_memory_is_bounded_by_a_chunk(tmp_path):
    """Importing 256x256 cells holds the output arrays and a few chunks'
    worth of bytes and field arrays, not every row of the file at once."""
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
    assert peak < outputs + 8 * gridio._CHUNK


_CELLS = st.one_of(
    st.floats(),  # -0.0, subnormals, +-1e308, +-inf and NaN among them
    st.sampled_from([0.1, -0.0, 5e-324, -1e308, 1e308, float("inf"), -float("inf")]),
    st.floats().map(np.float64),
    st.integers(),
    st.text().filter(lambda text: "\x00" not in text),  # csv reads no NUL before 3.11
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=1, max_size=6), max_size=4))
def test_write_table_writes_each_float_17g(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, ["a = 1"], ["c"], rows)
    with open(path, newline="") as fh:
        assert fh.readline() == "# a = 1\n"
        read = list(csv.reader(fh))
    assert read[0] == ["c"] and len(read) == len(rows) + 1
    for row, fields in zip(rows, read[1:]):
        assert len(fields) == len(row)
        for value, text in zip(row, fields):
            if isinstance(value, float):
                assert text == format(value, ".17g")
                if np.isfinite(value):
                    back = np.float64(float(text))
                    assert back.tobytes() == np.float64(value).tobytes()
            elif value is None:
                assert text == ""
            else:
                assert text == str(value)
