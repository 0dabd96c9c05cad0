"""The three benchmark workloads; child.py runs one pass of one of them.

Every workload has a `setup` (the config/spec build a user pays before the
first call), a `rep` (one timed pass of its calls) and a `check` of the
outputs, which runs after the timed region and marks the call it checks as
failed.  Why each workload exists is in NOTES.md.
"""
from __future__ import annotations

import csv
import hashlib
import os
import random
from time import perf_counter

import numpy as np

# Calls into the package go through module attributes, so that the traced
# pass sees them (see spans.py).
from shrimplab import bifurcation, cli, gridio, sweep
from shrimplab.bifurcation import PD, SN, BifCurve, FamilyYMap
from shrimplab.config import build_model, build_return_config, build_sweep_spec, load_config
from shrimplab.sweep import _CODE, KIND_CHAOTIC, KIND_ESCAPED, KIND_PERIOD

# Seed 0 reproduces the geometry the golden digests were recorded on.
DEFAULT_SEED = 0

# Sub-cell shifts of the sweep windows, as fractions of a cell, for the other
# seeds.  When any cell of a sweep parks on a repelling cycle, the sweep
# re-runs the transient for the whole grid, which costs about 40% of a
# 512x512 sweep.  Each shift here was checked to keep the regime of seed 0:
# parked cells in the 512x512 window, none in the two 128x128 sweeps of
# rescale_mix.  A random shift would leave the window in the cheaper regime
# about one time in seven and make its timing bimodal across seeds.
WINDOW_SHIFTS = (
    (-0.381, 0.003), (0.012, 0.36), (-0.397, -0.277), (0.101, 0.057),
    (0.283, 0.048), (0.231, 0.268), (-0.26, 0.114), (-0.389, 0.317),
    (-0.05, 0.315), (0.185, 0.179), (-0.29, -0.248), (0.48, 0.429),
)


class Run:
    """One pass: calls attempted and failed, timings, counts, output digests."""

    def __init__(self, root, out, seed):
        self.root, self.out, self.seed = root, out, seed
        self.rng = random.Random(seed)
        self.calls = []
        self.failed = set()
        self.failures = []
        self.timings = {}
        self.counts = {}
        self.digests = {}

    def config(self, name):
        return os.path.join(self.root, "configs", name)

    def path(self, *parts):
        path = os.path.join(self.out, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def window_shift(self):
        """The (x, y) sub-cell shift of the sweep windows for this seed."""
        if self.seed == DEFAULT_SEED:
            return 0.0, 0.0
        return WINDOW_SHIFTS[(self.seed - 1) % len(WINDOW_SHIFTS)]

    def call(self, label, fn, *args, **kwargs):
        """Run one command or library call; an exception counts as a failure."""
        self.calls.append(label)
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # the benchmark reports, it does not stop
            self.fail(label, f"{type(err).__name__}: {err}")
            return None

    def cli(self, label, argv):
        rc = self.call(label, cli.main, argv)
        self.check(label, rc == 0, f"exit code {rc}")
        return rc == 0

    def check(self, label, ok, message):
        if not ok:
            self.fail(label, message)

    def fail(self, label, message):
        if label not in self.failed:
            self.failed.add(label)
            self.failures.append(f"{label}: {message}")

    def digest(self, name, path):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        self.digests[name] = h.hexdigest()


def _shifted_plane(cfg, shift_x, shift_y):
    """`--set` overrides moving the plane window by a fraction of a cell."""
    out = []
    for axis, n_key, shift in (("x", "sweep.nx", shift_x), ("y", "sweep.ny", shift_y)):
        lo, hi = float(cfg[f"plane.{axis}_lo"]), float(cfg[f"plane.{axis}_hi"])
        if shift == 0.0:
            continue
        delta = shift * (hi - lo) / (int(cfg[n_key]) - 1)
        out += [f"plane.{axis}_lo={lo + delta!r}", f"plane.{axis}_hi={hi + delta!r}"]
    return out


def _label_counts(run, grid):
    """Add the grid's cells per outcome, and its chaotic cells with lambda <= 0."""
    chaotic = grid.kind == _CODE[KIND_CHAOTIC]
    for name, mask in (("period", grid.kind == _CODE[KIND_PERIOD]), ("chaotic", chaotic),
                       ("escaped", grid.kind == _CODE[KIND_ESCAPED]),
                       ("stray", chaotic & (grid.lyap <= 0.0))):
        key = f"sweep.{name}_cells"
        run.counts[key] = run.counts.get(key, 0) + int(mask.sum())


def _read_table(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class Window512:
    """CLI sweep of the 512x512 acceptance window, then re-import and labelling."""

    def setup(self, run):
        self.cfg_path = run.config("shrimp_window.cfg")
        base = load_config(self.cfg_path)
        self.overrides = _shifted_plane(base, *run.window_shift())
        self.spec = build_sweep_spec(load_config(self.cfg_path, self.overrides))
        # The CLI keeps its grid to itself; hold on to it for the re-import check.
        self.grids = []
        export_grid = cli.export_grid

        def keep_grid(grid, *args, **kwargs):
            self.grids.append(grid)
            return export_grid(grid, *args, **kwargs)

        cli.export_grid = keep_grid

    def rep(self, run):
        out = run.path("window512", "")
        argv = ["sweep", "--config", self.cfg_path, "--out", out, "--workers", "1", "--force"]
        for item in self.overrides:
            argv += ["--set", item]
        self.grids.clear()
        t0 = perf_counter()
        ok = run.cli("sweep", argv)
        run.timings["cmd.sweep_s"] = perf_counter() - t0
        csv_path = os.path.join(out, "grid.csv")
        imported = run.call("import_grid_csv", gridio.import_grid_csv, csv_path) if ok else None
        comps = run.call("shrimp_locate", sweep.shrimp_locate, imported, 1) if imported else None
        run.timings["wall_s"] = perf_counter() - t0
        self.last = (out, imported, comps)

    def check(self, run):
        out, imported, comps = self.last
        if imported is None or comps is None:
            return
        n = self.spec.nx * self.spec.ny
        codes = np.bincount(imported.kind.ravel(), minlength=4)
        run.check("sweep", codes[1:].sum() == n and codes[0] == 0,
                  f"outcome counts {codes.tolist()} do not sum to {n}")
        run.check("import_grid_csv", len(self.grids) == 1 and imported.same_cells(self.grids[0]),
                  "re-imported grid differs from the swept grid")
        xs = self.spec.plane.x_values(self.spec.nx)
        ys = self.spec.plane.y_values(self.spec.ny)
        origin = (int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys))))
        run.check("shrimp_locate", any(origin in set(c.cells) for c in comps),
                  "no period-1 component contains (0, 0)")
        run.counts = {}
        _label_counts(run, imported)
        run.counts["gridio.csv_bytes"] = os.path.getsize(os.path.join(out, "grid.csv"))
        for name in ("grid.csv", "grid.pgm"):
            run.digest(name, os.path.join(out, name))


# Seven curves of the double parabola: (name, period, kind, free parameter
# guess (Y, M2), fixed parameters (M1, M2)).  The first five are the fold and
# flip skeleton of acceptance criterion 3; the last two are higher-period flips.
CURVES = (
    ("sn_pos", 1, SN, (0.9, 1.0), (0.9, 0.0)),
    ("sn_neg", 1, SN, (-0.5, -0.25), (0.0, 0.0)),
    ("pd_pos", 1, PD, (1.0, 1.06), (0.75, 0.0)),
    ("pd_neg", 1, PD, (-0.31, 0.34), (0.9, 0.0)),
    ("sn2", 2, SN, (-1.21, 0.377), (1.4, 0.0)),
    ("pd3", 3, PD, (0.0631, 0.775), (1.400787401574803, 0.0)),
    ("pd4", 4, PD, (-0.0414, 0.521), (1.1692913385826773, 0.0)),
)
CONTINUE = dict(step=0.015, max_points=900, bounds=5.0, max_step=0.02)
# Seeded guesses of the five criterion-3 curves move by at most this much in Y
# and in M2; each Newton solve converges to the same start point from anywhere
# in that box.  The period-3 and period-4 flips keep their guesses: a start
# that differs from seed 0's only in the last bits (1e-15) changes their
# continuation work by up to 25%, which would drown every other change.
GUESS_JITTER = 0.005
JITTERED = {"sn_pos", "sn_neg", "pd_pos", "pd_neg", "sn2"}


class Continuation:
    """Library continuation of seven fold/flip curves, both directions, to CSV."""

    def setup(self, run):
        cfg = load_config(None, ["model.family=double_parabola"])
        self.ymap = FamilyYMap(build_model(cfg).family)
        self.curves = []
        for name, period, kind, guess, params in CURVES:
            if run.seed != DEFAULT_SEED and name in JITTERED:
                guess = tuple(g + GUESS_JITTER * (2.0 * run.rng.random() - 1.0) for g in guess)
            self.curves.append((name, period, kind, guess, params))

    def _curve(self, name, period, kind, guess, params, path):
        start = bifurcation.solve_codim1(self.ymap, period, kind, 1, guess, params)
        fwd = bifurcation.continue_codim1(self.ymap, start, (0, 1), start.orbit.params, **CONTINUE)
        back = bifurcation.continue_codim1(self.ymap, start, (0, 1), start.orbit.params,
                                           direction=-1.0, **CONTINUE)
        curve = BifCurve(
            kind=kind, period=period, plane=(0, 1),
            points=back.points[::-1] + fwd.points,
            y_values=back.y_values[::-1] + fwd.y_values,
            multipliers=back.multipliers[::-1] + fwd.multipliers,
            test_values=back.test_values[::-1] + fwd.test_values,
            codim2_hits=back.codim2_hits + fwd.codim2_hits,
        )
        bifurcation.curve_to_csv(curve, path, ("M1", "M2"), header_lines=[f"curve = {name}"])
        return curve

    def rep(self, run):
        paths = [run.path("continuation", f"{c[0]}.csv") for c in self.curves]
        t0 = perf_counter()
        done = [run.call(c[0], self._curve, *c, path) for c, path in zip(self.curves, paths)]
        elapsed = perf_counter() - t0
        run.timings["wall_s"] = run.timings["cont.curves_s"] = elapsed
        self.last = (done, paths)

    def check(self, run):
        done, paths = self.last
        points = hits = 0
        cusp = False
        for (name, *_), curve, path in zip(self.curves, done, paths):
            if curve is None:
                continue
            run.check(name, len(curve.points) > 100, f"only {len(curve.points)} points")
            points += len(curve.points)
            hits += len(curve.codim2_hits)
            cusp |= any(
                h.kind == "cusp" and abs(h.orbit.params[0] - 0.75) < 1e-6
                and abs(h.orbit.params[1] - 0.75) < 1e-6
                for h in curve.codim2_hits
            )
            run.digest(f"{name}.csv", path)
        run.check("sn_pos", cusp, "no cusp at (0.75, 0.75)")
        run.counts = {"bifurcation.curve_points": points, "bifurcation.codim2_hits": hits}


class RescaleMix:
    """Rescaling checks, prediction, plans and two small sweeps, all via the CLI."""

    SADDLE = "benchmark_saddle.cfg"
    FOCUS = "benchmark_saddle_focus.cfg"

    def setup(self, run):
        self.saddle, self.focus = run.config(self.SADDLE), run.config(self.FOCUS)
        cfg = load_config(self.saddle)
        build_return_config(cfg)
        self.rescaled_sets = ["sweep.target=rescaled_return"] + _shifted_plane(
            cfg, *run.window_shift())
        self.family_sets = _shifted_plane(load_config(None), *run.window_shift())
        build_sweep_spec(load_config(None, self.rescaled_sets))

    def commands(self, run):
        """(label, timing key, argv) in the order the workload runs them."""
        def sets(items):
            return [arg for item in items for arg in ("--set", item)]

        return [
            ("rescale-verify saddle", "cmd.rescale-verify_s",
             ["rescale-verify", "--config", self.saddle, "--out", run.path("verify_saddle", "")]),
            ("rescale-verify saddle_focus", "cmd.rescale-verify_s",
             ["rescale-verify", "--config", self.focus, "--out", run.path("verify_focus", "")]),
            ("rescale-verify test_cubic", "cmd.rescale-verify_s",
             ["rescale-verify", "--config", self.saddle, "--out", run.path("verify_cubic", ""),
              "--set", "local.nonlinearity=test_cubic"]),
            ("shrimp-predict", None, ["shrimp-predict", "--out", run.path("predict", "")]),
            ("sequence-plan saddle", None,
             ["sequence-plan", "--out", run.path("plan_saddle", ""), "--set", "plan.kind=saddle"]),
            ("sequence-plan saddle_focus", None,
             ["sequence-plan", "--out", run.path("plan_focus", "")]
             + sets(["plan.kind=saddle_focus", "plan.gamma=2.0", "plan.lambda=0.4"])),
            ("sweep rescaled_return", "cmd.sweep_s",
             ["sweep", "--out", run.path("sweep_rescaled", ""), "--workers", "1"]
             + sets(self.rescaled_sets)),
            ("sweep family workers=2", "cmd.sweep_s",
             ["sweep", "--out", run.path("sweep_pool", ""), "--workers", "2"]
             + sets(self.family_sets)),
        ]

    def rep(self, run):
        sums = {"cmd.sweep_s": 0.0, "cmd.rescale-verify_s": 0.0}
        t0 = perf_counter()
        for label, key, argv in self.commands(run):
            t1 = perf_counter()
            run.cli(label, argv + ["--force"])
            if key:
                sums[key] += perf_counter() - t1
        run.timings["wall_s"] = perf_counter() - t0
        run.timings.update(sums)

    def check(self, run):
        out = run.out
        rows = self._rows(run, "rescale-verify saddle", os.path.join(out, "verify_saddle", "rescale.csv"))
        if rows:
            last = next((r for r in rows if r["k"] == "14"), None)
            run.check("rescale-verify saddle", last is not None
                      and float(last["err_three_param"]) < 1e-3, "err_three_param(14,14) >= 1e-3")
            run.check("rescale-verify saddle", all(
                abs(float(r["linear_coeff_measured"]) / float(r["linear_coeff"]) - 1.0) <= 0.01
                for r in rows), "measured linear coefficient off by more than 1%")
        skipped = 0
        for sub in ("verify_saddle", "verify_focus", "verify_cubic"):
            rows = self._rows(run, None, os.path.join(out, sub, "rescale.csv"))
            skipped += sum(int(r["skipped"]) for r in rows)
        rows = self._rows(run, "shrimp-predict", os.path.join(out, "predict", "predict.csv"))
        if rows:
            run.check("shrimp-predict", all(
                r["relative_offset"] and float(r["relative_offset"]) <= 0.10 for r in rows),
                "a relative_offset is missing or above 0.10")
        pool_csv = os.path.join(out, "sweep_pool", "grid.csv")
        if os.path.exists(pool_csv):
            pool = [_read_bytes(os.path.join(out, "sweep_pool", n)) for n in ("grid.csv", "grid.pgm")]
            run.check("sweep family workers=2", pool == self._serial_reference(run),
                      "the 2-worker grid differs from a serial sweep")
        run.counts = {"rescale.skipped_points": skipped}
        csv_bytes = 0
        for sub in ("sweep_rescaled", "sweep_pool"):
            path = os.path.join(out, sub, "grid.csv")
            if os.path.exists(path):
                grid = gridio.import_grid_csv(path)
                _label_counts(run, grid)
                csv_bytes += os.path.getsize(path)
        run.counts["gridio.csv_bytes"] = csv_bytes
        for sub, name in (("verify_saddle", "rescale.csv"), ("verify_focus", "rescale.csv"),
                          ("verify_cubic", "rescale.csv"), ("predict", "predict.csv"),
                          ("plan_saddle", "plan.csv"), ("plan_focus", "plan.csv"),
                          ("sweep_rescaled", "grid.csv"), ("sweep_rescaled", "grid.pgm"),
                          ("sweep_pool", "grid.csv"), ("sweep_pool", "grid.pgm")):
            path = os.path.join(out, sub, name)
            if os.path.exists(path):
                run.digest(f"{sub}/{name}", path)

    def _rows(self, run, label, path):
        if not os.path.exists(path):
            return []
        rows = _read_table(path)
        if label:
            run.check(label, bool(rows), f"{path} has no rows")
        return rows

    def _serial_reference(self, run):
        """Grid bytes of the same family sweep with one worker (untimed)."""
        out = run.path("sweep_serial", "")
        argv = ["sweep", "--out", out, "--workers", "1", "--force"]
        for item in self.family_sets:
            argv += ["--set", item]
        if cli.main(argv) != 0:
            return None
        return [_read_bytes(os.path.join(out, n)) for n in ("grid.csv", "grid.pgm")]


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {
    "window512": Window512,
    "continuation": Continuation,
    "rescale_mix": RescaleMix,
}
