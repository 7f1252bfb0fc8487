"""dsmcf benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are in ``workloads.py`` and described in ``NOTES.md``.  The
package is imported from ``src/`` of the checkout (nothing is installed),
with every BLAS/OpenMP pool held to one thread.

A run first times ``SETUP_PROBES`` fresh processes that import dsmcf,
load the workload's config and build its initial state (``setup_s`` is
their median), then runs one smaller warm-up job in this process.

* ``--trace 0`` runs whole workload iterations while the next one is
  expected to end within ``--seconds`` (at least one), and reports the
  end-to-end metrics: medians over the iterations, plus peak RSS.
* ``--trace 1`` runs one untraced and one traced iteration and reports
  the per-layer metrics from the spans (see ``tracing.py``), including
  the tracing overhead.

Every iteration is checked by its workload's gates; a non-zero exit, an
exception or a failed gate counts as a failed attempt.  Spans and a
results file with the environment record go to ``perfbench/out/``.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

POOL_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5
MODULES = ("cli", "experiments", "flow", "geometry", "grids", "oracles",
           "reporting", "snapshots")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_dsmcf():
    """Import the checkout's dsmcf modules, or exit 2 when there are none."""
    if not (SRC / "dsmcf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dsmcf sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import importlib

    modules = SimpleNamespace(
        **{name: importlib.import_module(f"dsmcf.{name}") for name in MODULES}
    )
    package = Path(sys.modules["dsmcf"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        sys.exit(f"perfbench: imported dsmcf from {package}, not from {SRC}")
    return modules


def measure_setup(config_path: Path) -> list:
    """Set-up seconds of fresh processes; one extra unrecorded probe first."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)]
    times = []
    for k in range(SETUP_PROBES + 1):
        started = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        if k:
            times.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return times


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = _cache_sizes()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pools": {var: os.environ[var] for var in THREAD_VARS},
    }


def attempt(workload, warmup=False):
    """One iteration; an exception is a failed attempt, not a crash."""
    started = time.perf_counter()
    try:
        return workload.iterate(warmup=warmup)
    except Exception:
        traceback.print_exc()
        return Outcome(
            wall_s=time.perf_counter() - started,
            failed_gates=["exception (see stderr)"],
        )


def run_end_to_end(workload, seconds, setup_times, outcomes):
    measured = []
    started = time.perf_counter()
    while True:
        outcome = attempt(workload)
        outcomes.append(outcome)
        measured.append(outcome)
        elapsed = time.perf_counter() - started
        typical = statistics.median(o.wall_s for o in measured)
        if not outcome.ok or elapsed + typical > seconds:
            break
    rates = [o.flow_time / o.stepping_s for o in measured if o.stepping_s > 0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(o.wall_s for o in measured), "s"),
        "flow_time_per_s": (statistics.median(rates) if rates else 0.0, "flow_s/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(workload, modules, outcomes, trace_path):
    from tracing import Tracer, layer_metrics

    untraced = attempt(workload)
    outcomes.append(untraced)
    with Tracer(modules) as tracer:
        traced = attempt(workload)
    outcomes.append(traced)
    totals = tracer.totals()
    missing = [label for label in workload.must_run if totals[label][0] == 0]
    if missing:
        print(f"perfbench: COVERAGE FAILURE on {workload.name}: no calls to {missing}",
              file=sys.stderr)
        traced.failed_gates.append(f"coverage: no calls to {missing}")
    tracer.write(trace_path)
    overhead = (traced.wall_s - untraced.wall_s) / untraced.wall_s
    return layer_metrics(tracer, traced.checks_failed, overhead)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = POOL_THREADS
    modules = import_dsmcf()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work_dir = OUT / args.workload
    workload = WORKLOADS[args.workload](args.seed, work_dir, modules)
    workload.write_configs()

    setup_times = measure_setup(workload.config_path())
    outcomes = [attempt(workload, warmup=True)]
    if args.trace:
        metrics = run_traced(workload, modules, outcomes, work_dir / "trace.npz")
    else:
        metrics = run_end_to_end(workload, args.seconds, setup_times, outcomes)

    failed = sum(1 for o in outcomes if not o.ok)
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_times_s": setup_times,
        "iterations": [
            {"warmup": k == 0, "wall_s": o.wall_s, "flow_time": o.flow_time,
             "stepping_s": o.stepping_s, "exit_code": o.exit_code,
             "failed_gates": o.failed_gates}
            for k, o in enumerate(outcomes)
        ],
        "failed_fraction": failed / len(outcomes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (work_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"environment: {json.dumps(env)}")
    for k, o in enumerate(outcomes):
        label = "warm-up" if k == 0 else f"iteration {k}"
        status = "ok" if o.ok else f"FAILED {o.failed_gates}"
        print(f"{label}: wall {o.wall_s:.3f} s, flow time {o.flow_time:.6g} "
              f"in {o.stepping_s:.3f} s of stepping, {status}")
    print(f"failed_fraction: {failed}/{len(outcomes)} = {failed / len(outcomes):g}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
