"""shrimplab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a shrimplab checkout; the package is imported from
`src/` of that checkout, nothing is installed.  Workloads: window512,
continuation, rescale_mix (why each exists: NOTES.md).

--trace 0 times set-up in fresh interpreters, then runs passes of the
workload, each in a fresh child process, as many as fit in S seconds (at
least one), and reports the end-to-end metrics over them.  For the
continuation workload, wall_s is in reference seconds: each pass's time is
divided by the machine's slowdown, measured next to it by reference.py.
Every pass thus starts cold, as a CLI command does.  --trace 1 runs one
untraced pass and one pass traced layer by layer, and reports the per-layer
metrics.  At most one child runs at a time; the rescale_mix pool sweep adds
its two workers while its parent waits.  Both modes print a table, then as
the last line one JSON object {"correct", "attempted", "failed", "metrics"}.
Output digests of the default seed are compared with golden.json and
reported as a diagnostic only.

Everything the run writes goes under .perfbench/ of the checkout; the
per-run output directory is removed at the end, the span files stay in
.perfbench/traces/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("window512", "continuation", "rescale_mix")
DEFAULT_SEED = 0

# Fresh interpreters timed per run for setup_s; the run reports their median.
SETUP_PROBES = 7
# A run must end within 180 s; a child that is still running by then is killed.
DEADLINE_S = 170.0

# (name, unit, workloads) of the end-to-end table.  The JSON line carries
# those of BENCHMARK.json; the rest exist on some workloads only and are
# printed in the table.
END_TO_END = (
    ("wall_s", "s", WORKLOADS),
    ("setup_s", "s", WORKLOADS),
    ("peak_rss_mb", "MB", WORKLOADS),
    ("failed_frac", "ratio", WORKLOADS),
    ("cmd.sweep_s", "s", ("window512", "rescale_mix")),
    ("cmd.rescale-verify_s", "s", ("rescale_mix",)),
    ("cont.curves_s", "s", ("continuation",)),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's output digests as the golden ones")
    args = parser.parse_args(argv)
    # A terminated run still stops and waits for its child (see wait()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "shrimplab", "cli.py")):
        print(f"perfbench: no shrimplab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result, metrics = traced_run(args, work, deadline, bench)
        else:
            result, metrics = end_to_end_run(args, work, deadline, bench)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    report_digests(args, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def child_args(args, extra):
    return [sys.executable, CHILD, "--root", ROOT, "--workload", args.workload,
            "--seed", str(args.seed)] + extra


def setup_probe(args, deadline):
    """Seconds from starting a fresh interpreter until the workload is ready to call."""
    t0 = perf_counter()
    with subprocess.Popen(child_args(args, ["--setup-only"]), stdout=subprocess.PIPE,
                          env=child_env(), text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rc = wait(proc, deadline)
    if line.strip() != "ready" or rc != 0:
        raise ChildFailed(f"set-up probe exited with code {rc}")
    return elapsed


def run_child(args, work, deadline, name, trace=0):
    result_path = os.path.join(work, f"{name}.json")
    extra = ["--trace", str(trace), "--out", os.path.join(work, name), "--result", result_path]
    with open(os.path.join(work, f"{name}.log"), "w") as log:
        with subprocess.Popen(child_args(args, extra), stdout=log, env=child_env()) as proc:
            rc = wait(proc, deadline)
    if rc != 0:
        raise ChildFailed(f"{name} {args.workload} child exited with code {rc}")
    with open(result_path) as fh:
        return json.load(fh)


def wait(proc, deadline):
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{os.path.basename(proc.args[1])} ran past {DEADLINE_S:.0f} s") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def end_to_end_run(args, work, deadline, bench):
    setup = [setup_probe(args, deadline) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_child(args, work, deadline, f"pass{len(passes)}"))
        elapsed = time.monotonic() - start
        # Start another pass only if a pass of the mean length ends in time.
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "digests": passes[0]["digests"],
    }
    samples = {"setup_s": setup, "peak_rss_mb": [p["maxrss_mb"] for p in passes],
               "failed_frac": [result["failed"] / max(1, result["attempted"])]}
    for p in passes:
        for name, value in p["timings"].items():
            samples.setdefault(name, []).append(value)
    # Scaled workloads report wall_s in reference seconds (see reference.py).
    reported = {
        "wall_s": statistics.median(p["timings"]["wall_s"] / p["slowdown"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    slow = [p["slowdown"] for p in passes]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"passes {len(passes)}  setup probes {len(setup)}  "
          f"machine slowdown {min(slow):.3f}-{max(slow):.3f}")
    print(f"{'metric':<22}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'n':>4}")
    for name, unit, workloads in END_TO_END:
        if args.workload not in workloads:
            print(f"{name:<22}{unit:<7}{'n/a':>12}")
            continue
        values = samples[name]
        q1, med, q3 = quartiles(values)
        print(f"{name:<22}{unit:<7}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{min(values):>12.6g}"
              f"{len(values):>4}")
    print("reported: " + "  ".join(f"{k} {v:.6g}" for k, v in reported.items()))
    metrics = {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
               for m in bench["end_to_end"]}
    return result, metrics


def traced_run(args, work, deadline, bench):
    untraced = run_child(args, work, deadline, "untraced")
    traced = run_child(args, work, deadline, "traced", trace=1)
    layers = traced["layers"]
    # Both passes ran in a fresh process, so they pay the same cold start.
    layers["trace.overhead_frac"] = (
        traced["timings"]["wall_s"] / traced["slowdown"]
        / (untraced["timings"]["wall_s"] / untraced["slowdown"]) - 1.0)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  traced pass vs untraced pass")
    print(f"{'layer metric':<34}{'unit':<7}{'value':>16}")
    for name, value in layers.items():
        print(f"{name:<34}{units.get(name, ''):<7}{value:>16.6g}")
    result = {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "failures": untraced["failures"] + traced["failures"],
        "digests": traced["digests"],
    }
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    return result, metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def report_digests(args, result):
    digests = result["digests"]
    if args.write_golden:
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN) as fh:
                golden = json.load(fh)
        golden[args.workload] = digests
        with open(GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.seed != DEFAULT_SEED or not os.path.exists(GOLDEN):
        return
    with open(GOLDEN) as fh:
        golden = json.load(fh).get(args.workload, {})
    changed = sorted(n for n in golden if digests.get(n) != golden[n])
    print(f"digests: {len(changed)} of {len(golden)} outputs differ from golden.json "
          f"(diagnostic, not a failure){': ' + ', '.join(changed) if changed else ''}")


if __name__ == "__main__":
    sys.exit(main())
