"""Outside-in tracing of shrimplab: spans around calls into each layer.

Nothing in the package is edited.  `Tracer.install` replaces public
functions by timing wrappers wherever a shrimplab module binds them (the CLI,
for instance, holds its own references to the rescale functions), wraps the
`maps` of both sweep targets so that the returned `f`/`df` callables are
timed with the size of the array they receive, and wraps the `FamilyYMap`
methods that continuation calls per point.  Spans live in memory and are
written once, at the end of the run.

A span is (name, start, end, parent index, cells).  Cells is the work size
where a call has one: the array length handed to a map callable, the grid
size of a serial sweep, the lattice size of a deviation check; otherwise 0.
Self time is a span's duration minus the durations of its direct children.  Spans made in pool worker processes are
lost: a pool sweep shows as one `sweep.plane_sweep` span without children.
"""
from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter


def _serial_sweep_cells(args, kwargs):
    spec, workers = args[0], kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return spec.nx * spec.ny if workers <= 1 else 0


def _lattice_cells(args, kwargs):
    return kwargs.get("grid", args[2] if len(args) > 2 else 0) ** 3


def _array_cells(args, kwargs):
    return args[0].size


# Work sizes recorded with the spans of these span names.
CELLS_OF = {
    "sweep.plane_sweep": _serial_sweep_cells,
    "rescale.limit_map_deviation": _lattice_cells,
}

# (module, attribute, span name): the public functions each layer exposes to
# the workloads.
TRACED_FUNCTIONS = (
    ("shrimplab.cli", "main", "cli.main"),
    ("shrimplab.config", "load_config", "config.load_config"),
    ("shrimplab.sweep", "plane_sweep", "sweep.plane_sweep"),
    ("shrimplab.sweep", "shrimp_locate", "sweep.shrimp_locate"),
    ("shrimplab.gridio", "export_grid_csv", "gridio.export_grid_csv"),
    ("shrimplab.gridio", "export_grid_pgm", "gridio.export_grid_pgm"),
    ("shrimplab.gridio", "import_grid_csv", "gridio.import_grid_csv"),
    ("shrimplab.bifurcation", "solve_codim1", "bifurcation.solve_codim1"),
    ("shrimplab.bifurcation", "continue_codim1", "bifurcation.continue_codim1"),
    ("shrimplab.bifurcation", "detect_codim2", "bifurcation.detect_codim2"),
    ("shrimplab.bifurcation", "curve_to_csv", "bifurcation.curve_to_csv"),
    ("shrimplab.rescale", "rescale_frame", "rescale.rescale_frame"),
    ("shrimplab.rescale", "limit_map_deviation", "rescale.limit_map_deviation"),
    ("shrimplab.rescale", "measured_y_linear_coeff", "rescale.measured_y_linear_coeff"),
    ("shrimplab.rescale", "locate_fold", "rescale.locate_fold"),
    ("shrimplab.rescale", "predict_shrimp_location", "rescale.predict_shrimp_location"),
    ("shrimplab.local", "cross_form_solve", "local.cross_form_solve"),
    ("shrimplab.local", "local_iterate", "local.local_iterate"),
    ("shrimplab.global_map", "apply_global", "global_map.apply_global"),
    ("shrimplab.sequences", "plan_modulus_sequence", "sequences.plan_modulus_sequence"),
    ("shrimplab.sequences", "plan_rotation_sequence", "sequences.plan_rotation_sequence"),
)

class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def span(self, name, fn, cells_of=None):
        """Return fn wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                cells = cells_of(args, kwargs) if cells_of is not None else 0
                spans[idx] = (name, start, end, parent, cells)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("shrimplab")]
        for mod_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.span(span_name, original, CELLS_OF.get(span_name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

        from shrimplab import bifurcation, sweep

        for target_cls in (sweep.FamilyPlaneTarget, sweep.RescaledPlaneTarget):
            self._patch(target_cls, "maps", self._traced_maps(target_cls.maps))
        ymap = bifurcation.FamilyYMap
        self._patch(ymap, "jet", self.span("families.jet", ymap.jet))
        self._patch(ymap, "value", self.span("families.value", ymap.value))

    def _traced_maps(self, maps):
        tracer = self

        def traced_maps(target, p1, p2):
            f, df = maps(target, p1, p2)
            return (tracer.span("families.target_f", f, _array_cells),
                    tracer.span("families.target_df", df, _array_cells))

        return traced_maps

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per span name: calls, total and self seconds, cells, the seconds of
        the spans that carry cells, and the largest cells of one span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, _, cells) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cells": 0, "cells_s": 0.0,
                       "max_cells": 0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
            row["cells"] += cells
            if cells:
                row["cells_s"] += end - start
            row["max_cells"] = max(row["max_cells"], cells)
        return out

    def write(self, path):
        """Write every span as gzipped JSON: names once, spans as rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, cells] for n, start, end, parent, cells in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "cells"],
                       "spans": rows}, fh)
