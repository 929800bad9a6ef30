"""Tracker benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload track --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the tracker from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics of an untraced run.
With ``--trace 1`` it makes an untraced run and then a traced run, each of
half of ``--seconds``, and prints the per-layer metrics of the traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, the environment
and (traced runs) the spans go to ``.bench_out/``.  The exit code is 0 only
when every check passed.

``--record-reference`` rewrites ``bench/reference.npz`` from the current
tracker and exits; do that only when a change to the tracker's outputs is
intended.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# One BLAS thread.  On a host of few shared cores a second BLAS thread ties
# each frame's time to the neighbours' load (the p50 of one run swung by a
# third from second to second); one thread keeps it within a few percent.
# Set before numpy loads OpenBLAS, which reads these only at load time.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

import numpy as np  # noqa: E402

from tracing import Tracer, dump, min_samples, percentile, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 15  # setup_s is the median of this many set-ups
GAP_TOL_PCT = 5.0  # traced layer spans must cover the frame or step within this

# Frame and step times are gated in ref_ms (see harness.reference_ms); the
# same timings in wall ms are printed and saved beside them, ungated.
REF_TIMINGS = ("fps_ref", "frame_ref_ms_p50", "frame_ref_ms_p90",
               "step_ref_ms_p50", "step_ref_ms_p90")
WALL_TIMINGS = ("fps", "frame_ms_p50", "frame_ms_p90", "step_ms_p50", "step_ms_p90")
END_TO_END_UNITS = {"fps_ref": "1/ref_s", "frame_ref_ms_p50": "ref_ms",
                    "frame_ref_ms_p90": "ref_ms", "step_ref_ms_p50": "ref_ms",
                    "step_ref_ms_p90": "ref_ms", "setup_s": "s", "peak_rss_mb": "MB"}
# traced spans reported as mean inclusive ms per frame or step
STAGE_SPANS = ("model.crop", "backbone.extract", "attention.enhance", "memory.readout",
               "memory.update", "head.predict", "head.decode", "train.batch",
               "train.forward", "train.loss", "train.backward", "train.sgd")
FLOP_STAGES = (("backbone", "backbone.extract"), ("attention", "attention.enhance"),
               ("memory", "memory.readout"), ("head", "head.predict"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("track", "track_deep", "train"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_tracker():
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "gatetrack" / "__init__.py").is_file():
        sys.exit(f"bench: no tracker sources at {src / 'gatetrack'}")
    sys.path.insert(0, str(src))


def blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: v for k, v in os.environ.items()
                            if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def timings(per_step, frames_per_step):
    """Frames per time unit, then p50 and p90 per frame and per step."""
    f = frames_per_step
    p50, p90 = percentile(per_step, 50), percentile(per_step, 90)
    return f * len(per_step) / (sum(per_step) / 1e3), p50 / f, p90 / f, p50, p90


def end_to_end(run, setup_s):
    values = dict(zip(REF_TIMINGS, timings(run.step_ref, run.frames_per_step)))
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def wall_clock(run, setup_wall_s):
    """The run's timings in wall ms, its set-up in wall s and the reference
    kernel's median ms."""
    values = dict(zip(WALL_TIMINGS, timings(run.step_ms, run.frames_per_step)))
    values["setup_s"] = setup_wall_s
    values["reference_kernel_ms"] = statistics.median(run.reference_ms)
    return values


def per_layer(workload, setup_ms, untraced, traced, spans):
    """Per-layer metrics of a traced run, as ``{name: (value, unit)}``."""
    import harness
    from gatetrack import metrics

    by_name, roots = summarize(spans)
    n = len(roots)
    zero = {"total_ns": 0, "self_ns": 0, "calls": 0}
    m = {}
    for key in ("model.init", "model.checkpoint", "scenes.generate"):
        m[f"{key}_ms"] = (statistics.median(t[key] for t in setup_ms), "ms")
    for name in STAGE_SPANS:
        m[f"{name}_ms"] = (by_name.get(name, zero)["total_ns"] / 1e6 / n, "ms")
    flops = harness.stage_flops(workload, traced)
    for stage, span in FLOP_STAGES:
        mflops = flops[stage] / 1e6
        ms = m[f"{span}_ms"][0]
        m[f"{stage}.mflops"] = (mflops, "MFLOP")
        m[f"{stage}.gflops_per_s"] = (mflops / ms if ms else 0.0, "GFLOP/s")
    c = traced.counters
    for branch in ("identity", "se", "ca", "cbam"):
        m[f"gate.share.{branch}"] = (c[f"gate.{branch}"] / c["decisions"], "fraction")
    readouts = c.get("readouts", 0.0)
    attempts = c.get("memory.attempts", 0.0)
    m["memory.depth_mean"] = (c["memory.depth"] / readouts if readouts else 0.0, "frames")
    m["memory.write_rate"] = (c["memory.writes"] / attempts if attempts else 0.0, "fraction")
    for op in harness.TENSOR_OPS:
        row = by_name.get(f"tensor.{op}", zero)
        m[f"tensor.{op}_ms"] = (row["self_ns"] / 1e6 / n, "ms")
        m[f"tensor.{op}_calls"] = (row["calls"] / n, "count")
    results = traced.results
    k = len(results)
    m["metrics.eval_ms"] = (statistics.fmean(traced.eval_ms) if k else 0.0, "ms")
    m["metrics.ao"] = (metrics.got10k_ao_sr(results)[0] if k else 0.0, "fraction")
    m["metrics.auc"] = (c["metrics.auc"] / k if k else 0.0, "fraction")
    m["metrics.precision_20"] = (c["metrics.precision_20"] / k if k else 0.0, "fraction")
    m["metrics.vot_failures"] = (c["metrics.vot_failures"] / k if k else 0.0, "count")
    root_ns = sum(roots)
    root_self_ns = sum(by_name[r]["self_ns"] for r in harness.ROOT_SPANS if r in by_name)
    m["trace.step_ms"] = (root_ns / 1e6 / n, "ms")
    m["trace.gap_pct"] = (100.0 * root_self_ns / root_ns, "%")
    m["trace.overhead_pct"] = (
        100.0 * (statistics.fmean(traced.step_ref) / statistics.fmean(untraced.step_ref) - 1.0),
        "%")
    return m


def main(argv=None):
    args = parse_args(argv)
    import_tracker()
    import harness

    if args.record_reference:
        keys = harness.record_reference()
        print(f"wrote {len(keys)} maps to {harness.REFERENCE_PATH}")
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args)
    workload, seed = args.workload, args.seed
    checks = {}
    setup_ms = []  # keep only the last set-up's scenes, so they count once in peak_rss_mb
    setup_ref = []  # each set-up's wall ms over the kernel's mean ms around it
    for _ in range(SETUP_REPEATS):
        before = harness.reference_ms()
        state = harness.setup(workload, seed, OUT_DIR)
        after = harness.reference_ms()
        setup_ms.append(state.times_ms)
        setup_ref.append(sum(state.times_ms.values()) / ((before + after) / 2))
        if not state.checkpoint_equal:
            checks["checkpoint_round_trip"] = checks.get("checkpoint_round_trip", 0) + 1
    # setup_s is in seconds of a host on which the kernel takes REFERENCE_NOMINAL_MS
    setup_s = statistics.median(setup_ref) * harness.REFERENCE_NOMINAL_MS / 1e3
    setup_wall_s = statistics.median(sum(t.values()) for t in setup_ms) / 1e3
    reference = harness.reference_error(workload)
    if not reference <= 1.0:
        checks["reference_maps"] = 1

    min_steps = min_samples(90)
    # a traced run splits its time between an untraced and a traced half
    seconds = args.seconds / 2 if args.trace else args.seconds
    harness.warm_up(workload, state, seed)
    untraced = harness.measure(workload, harness.new_model(workload), state, seed,
                               seconds, min_steps)
    runs = [untraced]
    spans = []
    if args.trace:
        tracer = Tracer()
        model = harness.new_model(workload)
        with tracer.patch(harness.trace_targets()):
            traced = harness.measure(workload, model, state, seed, seconds, min_steps)
        runs.append(traced)
        spans = tracer.spans
        layer = per_layer(workload, setup_ms, untraced, traced, spans)
        if any(s[3] < 0 and s[0] not in harness.ROOT_SPANS for s in spans):
            checks["span_outside_root"] = 1
        if layer["trace.gap_pct"][0] > GAP_TOL_PCT:
            checks["trace_gap"] = 1
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = end_to_end(untraced, setup_s)

    for run in runs:
        for name, count in run.failures.items():
            checks[name] = checks.get(name, 0) + count
    attempted = sum(len(r.step_ms) for r in runs)
    failed = sum(r.failed_steps for r in runs)
    correct = not checks
    unit = "training steps" if workload == "train" else "frames"
    env["samples"] = [len(r.step_ms) for r in runs]

    print(f"workload {workload}  seed {seed}  trace {args.trace}  "
          f"{attempted} {unit} attempted, {failed} failed")
    print(f"reference maps: worst error {reference:.3g} of tolerance "
          f"(atol {harness.REFERENCE_ATOL}, rtol {harness.REFERENCE_RTOL})")
    for name, count in sorted(checks.items()):
        print(f"FAILED check {name}: {count}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    wall = wall_clock(untraced, setup_wall_s)
    print("wall clock, untraced, ungated: "
          + "  ".join(f"{name} {value:.6g}" for name, value in wall.items()))
    print("env " + json.dumps(env))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stem = f"BENCH_{workload}_seed{seed}_trace{args.trace}"
    detail = dict(result, env=env, checks=checks, reference_error=reference,
                  setup_ms=setup_ms, wall_clock=wall)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans:
        (OUT_DIR / f"spans_{workload}_seed{seed}.json").write_text(json.dumps(dump(spans)))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
