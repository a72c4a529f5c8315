"""Benchmark entry point for the repository.

    python3 perfbench/run.py --workload grid-baselines --seed 1 \
        --seconds 45 --trace 0

Run it from the repository root.  It imports ``repro`` from ``src/`` of
the same checkout (and refuses to run without it), keeps every file it
writes under the build directory (``$CARGO_TARGET_DIR``, default
``.bench_build``), including the native kernel cache, and selects the
``native`` kernel backend.

Workloads (see ``grids.py`` and ``churn.py`` for why each exists):

``grid-baselines``  the quick Table 1 grid, all five paper algorithms
``grid-meta``       METAVP and METAHVP on a 64-host, 250/500-service grid
``serve-churn``     open-loop admits and departs against ``repro serve``

``BENCHMARK.json`` registers the two grids only; ``serve-churn`` runs
the same way but its latencies are too noisy to gate (see ``churn.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, and
the report above it includes a self-time tree.  Above the last line the
report lists every metric with its unit and sample count, the operation
counts, the output checks and the host fingerprint; the same record is
written to ``<build>/results/``, and traced runs write their spans to
``<build>/traces/``.

Every result line carries every end-to-end metric, so each has a meaning
on every workload: on the grids a "request" is one instance solved by
all of the workload's algorithms, and on ``serve-churn`` an "instance"
is the live set that each answered request re-solves.  The share of
admits refused (``admit_reject_share``) exists on ``serve-churn`` only;
it is reported in the table and as the per-layer
``service.admit_reject_share`` instead.

``setup_s`` is measured with the native kernel cache already built: the
first run in a checkout compiles it before any set-up is timed.  For the
grids it is the median over several fresh processes of the time from
process start until the first pass could begin; for ``serve-churn`` it
is the median over several daemon start-ups of the time from spawn to a
healthy ``/healthz``.
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: One BLAS thread: the matrices are small, and this way the solver's own
#: thread pool is the only one competing for the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOADS = ("grid-baselines", "grid-meta", "serve-churn")
#: Fresh processes timed per grid run; setup_s is their median.
GRID_SETUP_PROBES = 5
READY = "perfbench: ready"

sys.path.insert(0, HERE)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build_dir() -> str:
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    os.makedirs(path, exist_ok=True)
    return path


def child_env(build: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_NATIVE_CACHE"] = os.path.join(build, "native")
    env["REPRO_KERNEL_BACKEND"] = "native"
    env["PYTHONUNBUFFERED"] = "1"
    env.update(BLAS_ENV)
    return env


def import_repro(build: str):
    """Import ``repro`` from this checkout's ``src/`` only."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}; run "
                         "from the root of a full checkout")
    os.environ.update({k: v for k, v in child_env(build).items()
                       if k.startswith("REPRO_") or k in BLAS_ENV})
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {SRC}")
    return repro


def grid_setup_s(args: argparse.Namespace, build: str) -> list[float]:
    """Spawn fresh processes that run the grid set-up and report ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(2 if args.smoke else GRID_SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(build),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or not line.startswith(READY):
            raise RuntimeError(f"set-up probe failed ({code}): {line!r}")
        times.append(ready - start)
    return times


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop the daemons.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    build = build_dir()
    import_repro(build)
    import grids

    if args.setup_probe:
        prep = grids.prepare(args.workload, args.seed, build, args.smoke)
        print(READY, flush=True)
        os.rmdir(prep.tmp)
        return 0

    from layers import PER_LAYER_UNITS
    from record import (END_TO_END_UNITS, Metric, host_fingerprint, report,
                        result_line, write_record)
    from repro import kernels

    kernels.use_backend("native")  # builds the cache before any timing
    print("perfbench: native kernel cache ready; setup_s is measured with "
          "it built", file=sys.stderr, flush=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    traces = os.path.join(build, "traces")
    os.makedirs(traces, exist_ok=True)
    tracer_path = os.path.join(traces, f"{tag}.jsonl")

    if args.workload == "serve-churn":
        import churn

        out = churn.run(args.seed, args.seconds, bool(args.trace), build,
                        args.smoke, tracer_path, ROOT, child_env(build))
    else:
        out = grids.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), build, args.smoke, tracer_path)
        if not args.trace:
            setups = grid_setup_s(args, build)
            out.put("setup_s", statistics.median(setups), "s", len(setups))

    wanted = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    chosen = {}
    for name, unit in wanted.items():
        # A layer this workload never calls did no work: 0, no samples.
        metric = out.metrics.pop(name, None) or Metric(0.0, unit, 0)
        metric.unit = unit
        chosen[name] = metric
    out.extra.update(out.metrics)
    out.metrics = chosen

    fingerprint = host_fingerprint()
    run_args = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "smoke": args.smoke}
    results = os.path.join(build, "results")
    os.makedirs(results, exist_ok=True)
    write_record(os.path.join(results, f"{tag}.json"), out, fingerprint,
                 run_args)
    print(report(out, fingerprint, run_args))
    print(result_line(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
