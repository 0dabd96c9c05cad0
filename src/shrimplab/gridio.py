"""Deterministic grid export: CSV (lossless, round-trippable) and plain PGM.

Gray mapping, documented here and in the README: escaped cells are black
(0), chaotic cells are white (255), unresolved cells are 248, and a period-p
cell maps to 16 + (p - 1) * 224 // max(1, max_period - 1), spreading periods
over mid-grays up to 240 (most unresolved cells are periods above
max_period, hence the gray just above).  CSV files carry '#'-prefixed
metadata lines followed by a header row and one row per cell; the value
column holds a period cell's period, a chaotic or unresolved cell's
Lyapunov exponent (.17g, so it imports back to the same bits), and nothing
for an escaped cell.
write_table writes every other CSV output (curves, codim-2 points, rescale
checks, plans, predictions) in the same '#'-header form.
"""
from __future__ import annotations

import csv
import itertools
import re
import warnings

import numpy as np

from .config import SPEC_SETTINGS, build_sweep_spec
from .errors import ConfigError
from .sweep import (
    KIND_CHAOTIC,
    KIND_ESCAPED,
    KIND_PERIOD,
    KIND_UNRESOLVED,
    SweepGrid,
    _BLOCK,
    _CODE,
)


def write_table(path, header_lines, columns, rows):
    """Write '#'-prefixed header lines, then a CSV header row and the rows."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def gray_for(outcome_kind: str, period: int, max_period: int) -> int:
    if outcome_kind == KIND_ESCAPED:
        return 0
    if outcome_kind == KIND_CHAOTIC:
        return 255
    if outcome_kind == KIND_UNRESOLVED:
        return 248
    return 16 + (period - 1) * 224 // max(1, max_period - 1)


def grid_metadata(grid: SweepGrid) -> dict:
    """The spec's settings (config.SPEC_SETTINGS, floats as .17g so they
    read back to the same bits) and its target's target.* metadata."""
    spec = grid.spec
    meta = {}
    for key, kind in SPEC_SETTINGS:
        section, _, name = key.partition(".")
        value = getattr(spec.plane if section == "plane" else spec, name)
        meta[key] = f"{value:.17g}" if kind is float else str(value)
    meta.update({f"target.{k}": v for k, v in spec.target.meta().items()})
    return meta


def export_grid_csv(grid: SweepGrid, path, extra_meta=()):
    spec = grid.spec
    # no data field ever needs quoting, so rows are joined by hand in
    # csv.writer's format, one grid column (fixed j) per join of the pieces
    # i, ",j,", x, ",y," and "outcome,value\r\n" of its rows; the last
    # comes from a table per period, or from one .17g format per chaotic or
    # unresolved cell
    table = np.array(
        [f"{KIND_PERIOD},{p}\r\n" for p in range(int(np.max(grid.period, initial=0)) + 1)],
        dtype=object,
    )
    ys = spec.plane.y_values(spec.ny).tolist()
    row = [None] * (5 * spec.nx)
    row[0::5] = [str(i) for i in range(spec.nx)]
    row[2::5] = [f"{x:.17g}" for x in spec.plane.x_values(spec.nx).tolist()]
    with open(path, "w", newline="") as fh:
        _write_meta(fh, grid, extra_meta)
        csv.writer(fh).writerow(
            ["i", "j", spec.plane.x_name, spec.plane.y_name, "outcome", "value"]
        )
        for j in range(spec.ny):
            codes, value = grid.kind[:, j], table[grid.period[:, j]]
            value[codes == _CODE[KIND_ESCAPED]] = f"{KIND_ESCAPED},\r\n"
            for kind in (KIND_CHAOTIC, KIND_UNRESOLVED):
                cells = codes == _CODE[kind]
                value[cells] = [f"{kind},{lam:.17g}\r\n" for lam in grid.lyap[cells, j].tolist()]
            row[1::5] = [f",{j},"] * spec.nx
            row[3::5] = [f",{ys[j]:.17g},"] * spec.nx
            row[4::5] = value.tolist()
            fh.write("".join(row))
    return path


def export_grid_pgm(grid: SweepGrid, path, extra_meta=()):
    spec = grid.spec
    gray = gray_for(KIND_PERIOD, grid.period, spec.max_period)
    for outcome_kind in (KIND_CHAOTIC, KIND_ESCAPED, KIND_UNRESOLVED):
        gray[grid.kind == _CODE[outcome_kind]] = gray_for(outcome_kind, 0, spec.max_period)
    text = [str(level) for level in range(256)]
    with open(path, "w") as fh:
        fh.write("P2\n")
        _write_meta(fh, grid, extra_meta)
        fh.write(f"{spec.nx} {spec.ny}\n255\n")
        for j in range(spec.ny):
            fh.write(" ".join([text[level] for level in gray[:, j].tolist()]) + "\n")
    return path


def _write_meta(fh, grid, extra_meta):
    for key, value in extra_meta:
        fh.write(f"# {key} = {value}\n")
    meta = grid_metadata(grid)
    for key in sorted(meta):
        fh.write(f"# {key} = {meta[key]}\n")


def export_grid(grid: SweepGrid, csv_path, pgm_path, extra_meta=()):
    """Write both artifact files for a finished sweep."""
    return (
        export_grid_csv(grid, csv_path, extra_meta),
        export_grid_pgm(grid, pgm_path, extra_meta),
    )


# One CSV cell row as np.loadtxt reads columns i, j, outcome and value.  Each
# text field is one byte wider than anything the exporter writes (the longest
# outcome name, 'unresolved'; the longest '.17g' repr of a double), so a field
# that fills its width was cut short and is rejected.
_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("outcome", "S11"), ("value", "S25")])


def import_grid_csv(path) -> SweepGrid:
    """Rebuild a grid from its CSV export (cells are reproduced exactly).

    The '#' metadata lines and the header row are read line by line; the
    cell rows are parsed _BLOCK lines at a time, one np.loadtxt call each,
    into the output arrays.  Any malformed input raises ConfigError naming
    the file.
    """
    meta = {}
    with open(path) as fh:
        header = ""
        for line in fh:
            if not line.startswith("#"):
                header = line
                break
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
        if not header:
            raise ConfigError("no CSV content found", key=str(path))
        if header.rstrip("\r\n").split(",")[:2] != ["i", "j"]:
            raise ConfigError("unexpected CSV header", key=str(path))
        try:
            spec = build_sweep_spec(meta, target=_ImportedTarget(meta))
            kind, period, lyap = _cells(fh, spec.nx, spec.ny)
        except KeyError as err:
            raise ConfigError(f"missing metadata {err}", key=str(path)) from err
        except (ConfigError, ValueError) as err:
            raise ConfigError(str(err), key=str(path)) from err
    return SweepGrid(spec=spec, kind=kind, period=period, lyap=lyap)


def _cells(fh, nx, ny):
    """The (nx, ny) kind/period/lyap arrays of the cell rows left in fh;
    ValueError on a bad row count, index, outcome or value."""
    n = nx * ny
    kind = np.zeros(n, dtype=np.uint8)  # 0 until a row sets the cell
    period = np.zeros(n, dtype=np.int32)
    lyap = np.zeros(n)
    found = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a chunk with no cell rows
        for first in fh:  # a chunk: this line and the next _BLOCK - 1
            lines = itertools.chain([first], itertools.islice(fh, _BLOCK - 1))
            try:
                rows = np.loadtxt(lines, delimiter=",", usecols=(0, 1, 4, 5), dtype=_ROW, ndmin=1)
            except ValueError as err:  # loadtxt counts the rows of its chunk only
                raise ValueError(re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + found}",
                                        str(err))) from None
            found += _fill(rows, nx, ny, kind, period, lyap)
            del rows  # before the next chunk is parsed
    if found != n:
        raise ValueError(f"expected {n} cells, found {found}")
    if not kind.all():  # n rows that miss a cell name another one twice
        raise ValueError("duplicated cell index")
    shape = (nx, ny)
    return kind.reshape(shape), period.reshape(shape), lyap.reshape(shape)


def _fill(rows, nx, ny, kind, period, lyap):
    """Write parsed cell rows into the flat kind/period/lyap arrays and
    return their count; ValueError on a bad index, outcome or value."""
    i, j = rows["i"], rows["j"]
    if ((i < 0) | (i >= nx) | (j < 0) | (j >= ny)).any():
        raise ValueError(f"cell index outside the {nx}x{ny} grid")
    flat = i * ny + j
    outcome, value = rows["outcome"], rows["value"]
    code = np.zeros(rows.size, dtype=np.uint8)
    for name, c in _CODE.items():
        code[outcome == name.encode()] = c
    if not code.all():
        raise ValueError(f"unknown outcome {outcome[code == 0][0].decode('latin-1')!r}")
    if (np.char.str_len(value) == _ROW["value"].itemsize).any():
        raise ValueError("value field too long")
    kind[flat] = code
    periodic = code == _CODE[KIND_PERIOD]
    exponent = (code == _CODE[KIND_CHAOTIC]) | (code == _CODE[KIND_UNRESOLVED])
    period[flat[periodic]] = value[periodic].astype(np.int32)
    lyap[flat[exponent]] = value[exponent].astype(np.float64)
    return rows.size


class _ImportedTarget:
    """Placeholder target for re-imported grids (metadata only)."""

    def __init__(self, meta):
        self._meta = {
            k.removeprefix("target."): v for k, v in meta.items() if k.startswith("target.")
        }

    def stepper(self, p1, p2):
        raise ConfigError("imported grids cannot be re-iterated")

    def meta(self):
        return dict(self._meta)
