"""Deterministic grid export: CSV (lossless, round-trippable) and plain PGM.

Gray mapping, documented here and in the README: escaped cells are black
(0), chaotic cells are white (255), unresolved cells are 248, and a period-p
cell maps to 16 + (p - 1) * 224 // max(1, max_period - 1), spreading periods
over mid-grays up to 240 (most unresolved cells are periods above
max_period, hence the gray just above).  CSV files carry '#'-prefixed
metadata lines followed by a header row and one row per cell; the value
column holds a period cell's period, a chaotic or unresolved cell's
Lyapunov exponent (.17g, so it imports back to the same bits), and nothing
for an escaped cell.  write_table writes every other CSV output (curves,
codim-2 points, rescale checks, plans, predictions) in the same '#'-header
form, and is the one place their numbers become text, also .17g.
"""
from __future__ import annotations

import csv

import numpy as np

from .config import SPEC_SETTINGS, build_sweep_spec
from .errors import ConfigError
from .sweep import (
    KIND_CHAOTIC,
    KIND_ESCAPED,
    KIND_PERIOD,
    KIND_UNRESOLVED,
    SweepGrid,
    _CODE,
)


def write_table(path, header_lines, columns, rows):
    """Write '#'-prefixed header lines, then a CSV header row and the rows: a
    float cell (np.float64 included) as .17g, which reads back to the same
    bits, and any other as csv.writer writes it (None as an empty field)."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


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


# The cell rows are parsed in chunks of about this many bytes, each read on
# to the end of its last line, so the arrays of one chunk stay small.
_CHUNK = 1 << 18
# The longest '.17g' repr of a double, as '-2.2250738585072014e-308'; a
# longer value field was not written by the exporter and is rejected.
_VALUE_WIDTH = 24
# Spare bytes around a chunk, so that gathers at fixed offsets before or
# past a row's fields stay inside the buffer: at least _VALUE_WIDTH and 18.
_PAD_SIZE = 32


def import_grid_csv(path) -> SweepGrid:
    """Rebuild a grid from its CSV export (cells are reproduced exactly).

    The '#' metadata lines and the header row are read line by line; the
    cell rows, in any order, are parsed from the bytes of about _CHUNK at a
    time (_fill) into the output arrays.  Each cell row is six
    comma-separated fields ending in LF or CRLF: i and j as an optional sign
    and digits, x and y (not read), an outcome name, and a period's digits,
    a .17g exponent or (escaped) anything, of at most 24 bytes.  Any
    malformed input raises ConfigError naming the file, and a bad row its
    0-based place among the cell rows.
    """
    meta = {}
    with open(path, "rb") as fh:
        header = b""
        for line in fh:
            if not line.startswith(b"#"):
                header = line
                break
            try:
                body = line[1:].decode().strip()
            except UnicodeDecodeError as err:
                raise ConfigError(f"metadata line is not UTF-8: {err}", key=str(path)) from err
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
        if not header:
            raise ConfigError("no CSV content found", key=str(path))
        if header.rstrip(b"\r\n").split(b",")[:2] != [b"i", b"j"]:
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
    """The (nx, ny) kind/period/lyap arrays of the cell rows left in the
    binary file fh; ValueError on a bad row count or row."""
    n = nx * ny
    kind = np.zeros(n, dtype=np.uint8)  # 0 until a row sets the cell
    period = np.zeros(n, dtype=np.int32)
    lyap = np.zeros(n)
    # one buffer for every chunk: reading each into fresh bytes cost a third
    # of its parse
    buf = np.zeros(_CHUNK + 2 * _PAD_SIZE + 1, dtype=np.uint8)
    found = 0
    while got := fh.readinto(memoryview(buf)[_PAD_SIZE : _PAD_SIZE + _CHUNK]):
        line = fh.readline()  # the rest of the chunk's last line
        end = _PAD_SIZE + got + len(line)
        if end + _PAD_SIZE + 1 > buf.size:  # a long last line
            buf = np.pad(buf, (0, end + _PAD_SIZE + 1 - buf.size))
        buf[end - len(line) : end] = np.frombuffer(line, dtype=np.uint8)
        if buf[end - 1] != 10:  # the file's last line
            buf[end] = 10
            end += 1
        found += _fill(buf, end, found, nx, ny, kind, period, lyap)
    if found != n:
        raise ValueError(f"expected {n} cells, found {found}")
    shape = (nx, ny)
    return kind.reshape(shape), period.reshape(shape), lyap.reshape(shape)


def _fill(buf, end, row0, nx, ny, kind, period, lyap):
    """Parse the cell rows in buf[_PAD_SIZE:end], whole lines, as rows row0,
    row0 + 1, ... into the flat kind/period/lyap arrays and return their
    count; ValueError naming the first bad row found.  One scan each for
    the line ends and the commas locates every field."""
    nl, comma = np.flatnonzero(buf[:end] == 10), np.flatnonzero(buf[:end] == 44)
    rows = nl.size

    def shown(lo, hi, k):
        return repr(buf[lo[k] : hi[k]].tobytes().decode("latin-1"))

    def reject(mask, problem, column=None, subset=None):
        """ValueError on the first row set in mask, over the rows or the
        subset of rows; problem(k) says what is wrong with entry k."""
        if mask.any():
            k = int(np.flatnonzero(mask)[0])
            row = row0 + (k if subset is None else int(subset[k]))
            raise ValueError(f"{problem(k)} at row {row}" + (f", column {column}" if column else ""))

    # c[f]: the comma after field f of each row
    c = comma.reshape(-1, 5).T.copy() if comma.size == 5 * rows else None
    if c is None or (c[4] > nl).any() or (c[0, 1:] < nl[:-1]).any():
        fields = np.diff(np.searchsorted(comma, nl), prepend=0) + 1
        reject(fields != 6, lambda k: f"expected 6 fields, found {fields[k]}")
    lo = np.stack((np.concatenate(([_PAD_SIZE], nl[:-1] + 1)), c[0] + 1))
    ij, bad_ij = _integers(buf, lo, c[:2], 18)
    for col in (0, 1):
        reject(bad_ij[col], lambda k: f"bad integer {shown(lo[col], c[col], k)}", col + 1)
    i, j = ij
    reject((i < 0) | (i >= nx) | (j < 0) | (j >= ny),
        lambda k: f"cell index ({i[k]}, {j[k]}) outside the {nx}x{ny} grid")

    # an outcome is a name of its width, compared in its first and next 8
    # bytes read as little-endian words
    lo, width = c[3] + 1, c[4] - c[3] - 1
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))  # one per byte
    head, rest = words[lo], words[lo + 8]
    code = np.zeros(rows, dtype=np.uint8)
    for name, value in _CODE.items():
        key = name.encode()
        match = (width == len(key)) & ((head & _low_bytes(len(key))) == _word(key))
        if len(key) > 8:
            match &= (rest & _low_bytes(len(key) - 8)) == _word(key[8:])
        code[match] = value
    reject(code == 0, lambda k: f"unknown outcome {shown(lo, c[4], k)}", 5)

    lo, end = c[4] + 1, nl - (buf[nl - 1] == 13)  # the value, before a CRLF's CR
    reject(end - lo > _VALUE_WIDTH, lambda k: "value field too long", 6)
    periodic = np.flatnonzero(code == _CODE[KIND_PERIOD])
    p, bad_p = _integers(buf, lo[periodic], end[periodic], 9)
    reject(bad_p, lambda k: f"bad period {shown(lo[periodic], end[periodic], k)}", 6, periodic)
    exponent = np.flatnonzero((code == _CODE[KIND_CHAOTIC]) | (code == _CODE[KIND_UNRESOLVED]))
    at = lo[exponent, None] + np.arange(_VALUE_WIDTH)
    values = np.where(at < end[exponent, None], buf[at], 0).view(f"S{_VALUE_WIDTH}").ravel()
    try:
        lam = values.astype(np.float64)  # correctly rounded, as float() is
    except ValueError:
        reject(np.array([not _is_float(v) for v in values]),
            lambda k: f"bad exponent {values[k].decode('latin-1')!r}", 6, exponent)

    flat = i * ny + j
    seen = kind[flat] != 0  # set by an earlier chunk
    kind[flat] = code
    if seen.any() or np.count_nonzero(kind) != row0 + rows:
        order = np.argsort(flat, kind="stable")
        seen[order[1:][flat[order[1:]] == flat[order[:-1]]]] = True  # set earlier in chunk
        reject(seen, lambda k: f"duplicated cell index ({i[k]}, {j[k]})")
    period[flat[periodic]] = p
    lyap[flat[exponent]] = lam
    return rows


def _integers(buf, lo, hi, digits):
    """The fields buf[lo:hi] (arrays of any one shape) read as an optional
    sign and 1 to `digits` decimal digits, and a mask of the fields that are
    not: one gather per digit position, from the right."""
    first = buf[lo]
    minus = first == 45
    width = hi - lo - (minus | (first == 43))
    bad = (width < 1) | (width > digits)
    value = np.zeros(lo.shape, dtype=np.int64)
    for k in range(1, min(int(width.max(initial=0)), digits) + 1):
        digit = (buf[hi - k] - 48) * (width >= k)  # 0 left of the field
        bad |= digit > 9  # a non-digit byte wraps above 9
        value += digit * np.int64(10) ** (k - 1)
    return np.negative(value, out=value, where=minus), bad


def _low_bytes(n):
    return np.uint64((1 << 8 * min(n, 8)) - 1)


def _word(key):
    return np.uint64(int.from_bytes(key[:8], "little"))


def _is_float(text):
    try:
        np.array(text).astype(np.float64)
    except ValueError:
        return False
    return True


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
