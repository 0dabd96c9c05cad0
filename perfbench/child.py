"""One workload in one fresh interpreter; started by run.py, not by hand.

    child.py --root DIR --workload NAME --seed N --trace 0|1 --out DIR --result FILE
    child.py --root DIR --workload NAME --seed N --setup-only

With --setup-only the child imports the CLI, builds the workload's config and
specs, prints "ready" and exits: run.py times that as set-up.  Otherwise it
makes one pass of the workload, with every layer traced under --trace 1,
times the reference kernel next to the pass (see reference.py), checks the
outputs and writes its result as JSON to FILE.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import shrimplab.cli  # noqa: F401  (part of the set-up being measured)
    from workloads import WORKLOADS, Run

    out = args.out or os.path.join(args.root, ".perfbench", "setup")
    run = Run(args.root, out, args.seed)
    workload = WORKLOADS[args.workload]()
    workload.setup(run)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    from reference import SCALED, slowdown
    from spans import Tracer

    scaled = args.workload in SCALED
    before = slowdown() if scaled else 1.0
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload.rep(run)
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "timings": run.timings,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "slowdown": (before + slowdown()) / 2.0 if scaled else 1.0,
    }
    workload.check(run)
    result.update(attempted=len(run.calls), failed=len(run.failed), failures=run.failures,
                  counts=run.counts, digests=run.digests)
    if tracer:
        trace_dir = os.path.join(args.root, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json.gz"))
        result["layers"] = layer_metrics(tracer.summary(), run.counts)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def layer_metrics(spans, counts):
    """The per-layer table of BENCHMARK.json from span totals and output counts."""
    def row(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "cells": 0, "cells_s": 0.0, "max_cells": 0})

    def total(*names):
        return sum(row(n)["total_s"] for n in names)

    def calls(*names):
        return sum(row(n)["calls"] for n in names)

    sweep, f, df = row("sweep.plane_sweep"), row("families.target_f"), row("families.target_df")
    cells = sweep["cells"]
    points = counts.get("bifurcation.curve_points", 0)
    csv_mb = counts.get("gridio.csv_bytes", 0) / 1e6
    export_csv_s = total("gridio.export_grid_csv")
    return {
        "sweep.plane_sweep_s": sweep["total_s"],
        "sweep.us_per_cell": 1e6 * sweep["cells_s"] / cells if cells else 0.0,
        "sweep.self_s": sweep["self_s"],
        "sweep.map_evals_per_cell": f["cells"] / cells if cells else 0.0,
        "sweep.deriv_evals_per_cell": df["cells"] / cells if cells else 0.0,
        "sweep.max_call_cells": max(f["max_cells"], df["max_cells"]),
        "sweep.shrimp_locate_s": total("sweep.shrimp_locate"),
        "sweep.period_cells": counts.get("sweep.period_cells", 0),
        "sweep.chaotic_cells": counts.get("sweep.chaotic_cells", 0),
        "sweep.escaped_cells": counts.get("sweep.escaped_cells", 0),
        "sweep.stray_cells": counts.get("sweep.stray_cells", 0),
        "families.map_s": f["total_s"],
        "families.deriv_s": df["total_s"],
        "families.jet_calls": calls("families.jet", "families.value"),
        "families.jet_s": total("families.jet", "families.value"),
        "bifurcation.solve_codim1_s": total("bifurcation.solve_codim1"),
        "bifurcation.continue_codim1_s": total("bifurcation.continue_codim1"),
        "bifurcation.detect_codim2_s": total("bifurcation.detect_codim2"),
        "bifurcation.curve_points": points,
        "bifurcation.jets_per_point": (
            calls("families.jet", "families.value") / points if points else 0.0),
        "bifurcation.codim2_hits": counts.get("bifurcation.codim2_hits", 0),
        "bifurcation.curve_to_csv_s": total("bifurcation.curve_to_csv"),
        "rescale.rescale_frame_s": total("rescale.rescale_frame"),
        "rescale.rescale_frame_calls": calls("rescale.rescale_frame"),
        "rescale.limit_map_deviation_s": total("rescale.limit_map_deviation"),
        "rescale.lattice_points": row("rescale.limit_map_deviation")["cells"],
        "rescale.skipped_points": counts.get("rescale.skipped_points", 0),
        "rescale.measured_coeff_s": total("rescale.measured_y_linear_coeff"),
        "rescale.locate_fold_s": total("rescale.locate_fold"),
        "rescale.predict_s": total("rescale.predict_shrimp_location"),
        "local.cross_form_solve_calls": calls("local.cross_form_solve"),
        "local.cross_form_solve_s": total("local.cross_form_solve"),
        "local.local_iterate_calls": calls("local.local_iterate"),
        "local.local_iterate_s": total("local.local_iterate"),
        "global_map.apply_global_calls": calls("global_map.apply_global"),
        "global_map.apply_global_s": total("global_map.apply_global"),
        "gridio.export_csv_s": export_csv_s,
        "gridio.export_pgm_s": total("gridio.export_grid_pgm"),
        "gridio.import_csv_s": total("gridio.import_grid_csv"),
        "gridio.csv_mb": csv_mb,
        "gridio.csv_mb_per_s": csv_mb / export_csv_s if export_csv_s else 0.0,
        "sequences.plan_s": total("sequences.plan_modulus_sequence",
                                  "sequences.plan_rotation_sequence"),
        "config.load_s": total("config.load_config"),
        "cli.self_s": row("cli.main")["self_s"],
    }


if __name__ == "__main__":
    sys.exit(main())
