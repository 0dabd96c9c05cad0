"""Deterministic grid export: CSV (lossless, round-trippable) and plain PGM.

Gray mapping, documented here and in the README: escaped cells are black
(0), chaotic cells are white (255), and a period-p cell maps to
16 + (p - 1) * 224 // max(1, max_period - 1), spreading periods over
mid-grays.  CSV files carry '#'-prefixed metadata lines followed by a header
row and one row per cell; escaped cells leave the value column empty.
"""
from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigError
from .sweep import (
    KIND_CHAOTIC,
    KIND_ESCAPED,
    KIND_PERIOD,
    PlaneSpec,
    SweepGrid,
    SweepSpec,
    _CODE,
    _KIND,
)


def gray_for(outcome_kind: str, period: int, max_period: int) -> int:
    if outcome_kind == KIND_ESCAPED:
        return 0
    if outcome_kind == KIND_CHAOTIC:
        return 255
    return 16 + (period - 1) * 224 // max(1, max_period - 1)


def grid_metadata(grid: SweepGrid) -> dict:
    spec = grid.spec
    meta = {
        "plane.x_name": spec.plane.x_name,
        "plane.x_lo": f"{spec.plane.x_lo:.17g}",
        "plane.x_hi": f"{spec.plane.x_hi:.17g}",
        "plane.y_name": spec.plane.y_name,
        "plane.y_lo": f"{spec.plane.y_lo:.17g}",
        "plane.y_hi": f"{spec.plane.y_hi:.17g}",
        "sweep.nx": str(spec.nx),
        "sweep.ny": str(spec.ny),
        "sweep.transient": str(spec.transient),
        "sweep.max_period": str(spec.max_period),
        "sweep.samples": str(spec.samples),
        "sweep.escape_radius": f"{spec.escape_radius:.17g}",
        "sweep.seed_rule": spec.seed_rule,
        "sweep.seed_value": f"{spec.seed_value:.17g}",
        "sweep.period_tol": f"{spec.period_tol:.17g}",
    }
    meta.update({f"target.{k}": v for k, v in spec.target.meta().items()})
    return meta


def export_grid_csv(grid: SweepGrid, path, extra_meta=()):
    spec = grid.spec
    xs = [f"{x:.17g}" for x in spec.plane.x_values(spec.nx).tolist()]
    ys = [f"{y:.17g}" for y in spec.plane.y_values(spec.ny).tolist()]
    period_code, chaotic_code = _CODE[KIND_PERIOD], _CODE[KIND_CHAOTIC]
    with open(path, "w", newline="") as fh:
        _write_meta(fh, grid, extra_meta)
        csv.writer(fh).writerow(
            ["i", "j", spec.plane.x_name, spec.plane.y_name, "outcome", "value"]
        )
        # no data field ever needs quoting, so rows are joined by hand in
        # csv.writer's format, one grid column (fixed j) per write
        for j in range(spec.ny):
            head = f",{j},"
            tail = f",{ys[j]},"
            rows = []
            for i, (code, p, lam) in enumerate(
                zip(grid.kind[:, j].tolist(), grid.period[:, j].tolist(), grid.lyap[:, j].tolist())
            ):
                if code == period_code:
                    value = f"{KIND_PERIOD},{p}"
                elif code == chaotic_code:
                    value = f"{KIND_CHAOTIC},{lam:.17g}"
                else:
                    value = f"{_KIND[code]},"
                rows.append(f"{i}{head}{xs[i]}{tail}{value}\r\n")
            fh.write("".join(rows))
    return path


def export_grid_pgm(grid: SweepGrid, path, extra_meta=()):
    spec = grid.spec
    gray = gray_for(KIND_PERIOD, grid.period, spec.max_period)
    for outcome_kind in (KIND_CHAOTIC, KIND_ESCAPED):
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


def import_grid_csv(path) -> SweepGrid:
    """Rebuild a grid from its CSV export (cells are reproduced exactly)."""
    meta = {}
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            rows.append(line)
    if not rows:
        raise ConfigError("no CSV content found", key=str(path))
    reader = csv.reader(rows)
    header = next(reader)
    if header[:2] != ["i", "j"]:
        raise ConfigError("unexpected CSV header", key=str(path))
    try:
        nx = int(meta["sweep.nx"])
        ny = int(meta["sweep.ny"])
        plane = PlaneSpec(
            x_name=meta["plane.x_name"],
            x_lo=float(meta["plane.x_lo"]),
            x_hi=float(meta["plane.x_hi"]),
            y_name=meta["plane.y_name"],
            y_lo=float(meta["plane.y_lo"]),
            y_hi=float(meta["plane.y_hi"]),
        )
    except KeyError as err:
        raise ConfigError(f"missing metadata {err}", key=str(path)) from err
    spec = SweepSpec(
        target=_ImportedTarget(dict(meta)),
        plane=plane,
        nx=nx,
        ny=ny,
        transient=int(meta["sweep.transient"]),
        max_period=int(meta["sweep.max_period"]),
        samples=int(meta["sweep.samples"]),
        escape_radius=float(meta["sweep.escape_radius"]),
        seed_rule=meta["sweep.seed_rule"],
        seed_value=float(meta["sweep.seed_value"]),
        period_tol=float(meta["sweep.period_tol"]),
    )
    kind = np.zeros((nx, ny), dtype=np.uint8)
    period = np.zeros((nx, ny), dtype=np.int32)
    lyap = np.zeros((nx, ny))
    count = 0
    for row in reader:
        i, j = int(row[0]), int(row[1])
        kind[i, j] = _CODE[row[4]]
        if row[4] == KIND_PERIOD:
            period[i, j] = int(row[5])
        elif row[4] == KIND_CHAOTIC:
            lyap[i, j] = float(row[5])
        count += 1
    if count != nx * ny:
        raise ConfigError(f"expected {nx * ny} cells, found {count}", key=str(path))
    return SweepGrid(spec=spec, kind=kind, period=period, lyap=lyap)


class _ImportedTarget:
    """Placeholder target for re-imported grids (metadata only)."""

    def __init__(self, meta):
        self._meta = {
            k.removeprefix("target."): v for k, v in meta.items() if k.startswith("target.")
        }

    def maps(self, p1, p2):
        raise ConfigError("imported grids cannot be re-iterated")

    def meta(self):
        return dict(self._meta)
