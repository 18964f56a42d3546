"""qybe benchmark: end-to-end metrics, or a per-layer trace.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; qybe is imported from ``src/``.
One process generates all load; BLAS/OpenMP are pinned to one thread and
no worker pool is started.

The first repetition runs the inputs the seed draws and is not timed;
the inputs it failed on are tallied and drawn again for the timed
repetitions (see :mod:`workloads`).  After a warm-up, ``--trace 0``
measures the end-to-end metrics with tracing off, over repetitions that
replay the same inputs:

* ``setup_s``                fresh interpreter importing qybe and qybe.cli
                             (median of spawns spread over the run);
* ``wall_s``                 one repetition: the sum of its units' times;
                             outputs are checked outside the timed units;
* ``ops_per_s``              operations of a repetition over ``wall_s``;
* ``op_p50_ms``/``op_p99_ms`` operation latency: median and 99th percentile
                             over units (below 1,000 units, the highest
                             latency with 10 beyond it); a unit's operation
                             latency is its time over its operations;
* ``ops_ok_frac``            share of the first repetition's operations that
                             neither raised a QybeError nor gave a failing or
                             non-finite residual;
* ``residual_headroom_dec``  mean over the first repetition's results of
                             log10(tolerance / residual);
* ``peak_rss_mb``            peak resident memory of this process.

Times are given in reference seconds.  On a shared host, co-tenants slow
the same work 1.0-1.7x for seconds to minutes at a time, in CPU time as
much as in wall time, so a short pure-Python calibration loop, which never
touches qybe, runs just before each repetition and each set-up spawn.
Each measured time is multiplied by ``CALIB_REF_S`` over the calibration
time next to it: the time it would have taken at the speed where the loop
takes ``CALIB_REF_S``.  A change to qybe moves the measured times and not
the loop, so it moves the figures; a slower or busier host moves both.
The metrics are medians over the repetitions (per unit, for latencies);
raw times and calibrations are in the details line.

``--trace 1`` traces the first repetition (its failures give the
``rop.assemble_R.failed*`` counts), then alternates untraced and traced
repetitions and reports the other per-layer metrics of :mod:`layertrace`
from the traced ones; the spans of the last are written under
``.perfbench/``.

The last line of standard output is the JSON result; the line before it
records the environment, the failures by kind and other details.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

PINNED_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                       "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_REPS = 8
SETUP_SPAWNS = 25
CALIB_LOOPS = 30_000
CALIB_REF_S = 0.0045  # median time of the loop on a shared 2-vCPU x86-64 VM, CPython 3.11
SETUP_CODE = "import qybe, qybe.cli"

END_TO_END_METRICS = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"), ("ops_ok_frac", "ratio"), ("residual_headroom_dec", "decades"),
    ("peak_rss_mb", "MB"),
)


def tail_latency(values) -> float:
    """The 99th percentile, or below 1,000 latencies the highest one that
    still has 10 beyond it; the maximum of 10 or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1]
    return ordered[min(math.ceil(0.99 * n), n - 10) - 1]


def calibrate() -> float:
    """Wall time of a fixed loop of interpreter work, in seconds; the
    reference time of a measurement taken next to it is ``CALIB_REF_S``."""
    t0 = time.perf_counter()
    acc, slots = 0, {}
    for i in range(CALIB_LOOPS):
        acc += (i * i) % 7
        slots[i & 255] = acc
    return time.perf_counter() - t0


def unit_times(reps, scales) -> list[float]:
    """Each unit's median reference time over the repetitions, which replay
    the same units in the same order."""
    return [statistics.median(t * scale for t, scale in zip(times, scales))
            for times in zip(*(rep.unit_s for rep in reps))]


def spawn_setup() -> float:
    """Wall time of a fresh interpreter that imports qybe and qybe.cli."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pinned_threads": PINNED_THREADS,
        "platform": platform.platform(),
    }


def repeat(workload, name: str, seed: int, seconds: float, traced: bool):
    """The first repetition on the drawn inputs, then repetitions on the
    inputs ``workload.timed`` gives, for ``seconds``.

    Without ``traced``, set-up spawns are spread evenly over the run.  With
    ``traced`` the first repetition is traced on its own, and every untraced
    repetition is followed by a traced one, whose per-layer values are kept;
    the spans of the last are written out.
    """
    workdir = OUT / f"{name}-{seed}"
    inputs = workload.prepare(seed)
    first_tracer = layertrace.Tracer() if traced else None
    with first_tracer.installed() if traced else contextlib.nullcontext():
        first = workload.run(inputs, workdir)
    first_layers = layertrace.layer_metrics(first_tracer) if traced else {}
    inputs = workload.timed(seed, inputs, first)
    workload.run(inputs, workdir)  # warm-up on the kept inputs
    if not traced:
        spawn_setup()  # writes the bytecode caches
    plain, traced_reps, layers, scales, setup_times = [], [], [], [], []
    tracer = None
    t_start = time.perf_counter()
    while len(plain) < MIN_REPS or time.perf_counter() - t_start < seconds:
        due = (time.perf_counter() - t_start) * SETUP_SPAWNS / seconds
        if not traced and len(setup_times) < min(due, SETUP_SPAWNS):
            scale = CALIB_REF_S / calibrate()
            setup_times.append(scale * spawn_setup())
        scales.append(CALIB_REF_S / calibrate())
        plain.append(workload.run(inputs, workdir))
        if traced:
            tracer = layertrace.Tracer()
            with tracer.installed():
                traced_reps.append(workload.run(inputs, workdir))
            layers.append(layertrace.layer_metrics(tracer))
            layers[-1]["cli.bytes_written"] = float(traced_reps[-1].bytes_written)
    while not traced and len(setup_times) < SETUP_SPAWNS:
        scale = CALIB_REF_S / calibrate()
        setup_times.append(scale * spawn_setup())
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{name}-{seed}.jsonl")
    problems = [p for rep in [first, *plain, *traced_reps] for p in rep.problems]
    if any(rep.digest != plain[0].digest for rep in plain + traced_reps):
        problems.append("repetitions on the same inputs gave different outputs")
    return first, first_layers, plain, traced_reps, layers, scales, setup_times, problems


def end_to_end(first, reps, scales, setup_times) -> dict[str, float]:
    """``scales`` turn each repetition's measured seconds into reference
    seconds; ``setup_times`` are in reference seconds already."""
    walls = [rep.wall_s * scale for rep, scale in zip(reps, scales)]
    latencies = [t / n for t, n in zip(unit_times(reps, scales), reps[0].unit_ops)]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(rep.attempted / wall for rep, wall in zip(reps, walls)),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p99_ms": 1e3 * tail_latency(latencies),
        "ops_ok_frac": 1.0 - first.failed / first.attempted,
        "residual_headroom_dec": statistics.fmean(first.headrooms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(first_layers, plain, traced_reps, layers, problems) -> dict[str, float]:
    """Median of each time over the traced repetitions; counts and ratios
    must repeat exactly.  Assembly failures are those of the first
    repetition, the only one that runs the inputs the library fails on."""
    metrics = {}
    for metric, _unit in layertrace.PER_LAYER_METRICS:
        if metric == "trace.overhead_frac":
            continue
        values = [layer[metric] for layer in layers]
        if metric.startswith("rop.assemble_R.failed"):
            values = [first_layers[metric]]
        if metric.endswith("_s"):
            metrics[metric] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{metric} differs between traced repetitions: {values}")
            metrics[metric] = values[0]
    untraced = statistics.median(rep.wall_s for rep in plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(rep.wall_s for rep in traced_reps) - untraced) / untraced
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_THREADS)  # before numpy loads its BLAS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qybe" / "__init__.py").is_file():
        print(f"error: no qybe sources under {SRC}; run from a qybe checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import qybe
    if Path(qybe.__file__).resolve().parent != SRC / "qybe":
        print(f"error: imported qybe from {qybe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    first, first_layers, plain, traced_reps, layers, scales, setup_times, problems = repeat(
        workload, args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(first_layers, plain, traced_reps, layers, problems)
        units = dict(layertrace.PER_LAYER_METRICS)
    else:
        metrics = end_to_end(first, plain, scales, setup_times)
        units = dict(END_TO_END_METRICS)
    reps = plain + traced_reps
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "repetition_wall_s": [rep.wall_s for rep in plain],
        "traced_wall_s": [rep.wall_s for rep in traced_reps],
        "reference_scale": scales, "setup_ref_s": setup_times,
        "ops_per_repetition": plain[0].attempted,
        "first_repetition_ops": first.attempted,
        "ops_failed_frac": first.failed / first.attempted,
        "failures_left_out": dict(sorted(first.failures.items())),
        "units_per_repetition": len(plain[0].unit_s),
        "min_headroom_dec": min(first.headrooms, default=None),
        "problems": problems[:20],
        "environment": environment(),
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
