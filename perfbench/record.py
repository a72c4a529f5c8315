"""Result records: metrics with units and sample counts, operation
counts, output checks and the host fingerprint, plus their printing."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import shutil
import subprocess
from dataclasses import dataclass, field

#: End-to-end metrics in output order: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "mean_min_yield": "yield",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Metrics shown in the report but not part of the result line.
    extra: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    #: Output-check failures; an empty list means every check passed.
    check_failures: list[str] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    tree: str = ""

    def put(self, name: str, value: float, unit: str, samples: int,
            extra: bool = False) -> None:
        (self.extra if extra else self.metrics)[name] = Metric(
            float(value), unit, int(samples))

    def check(self, name: str, ok: bool, message: str) -> None:
        self.checks_run.append(name)
        if not ok:
            self.check_failures.append(f"{name}: {message}")

    @property
    def correct(self) -> bool:
        return not self.check_failures


def compiler_id() -> str:
    cc = os.environ.get("CC", "cc")
    if shutil.which(cc) is None:
        return f"{cc} (not found)"
    proc = subprocess.run([cc, "--version"], capture_output=True,
                          text=True, timeout=30)
    lines = proc.stdout.splitlines()
    return lines[0].strip() if lines else f"{cc} (no version banner)"


def host_fingerprint() -> dict:
    """Where a record was measured: enough to explain two walls of the
    same code that disagree."""
    import numpy
    import scipy

    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiler": compiler_id(),
        "kernel_backend": kernels.current_backend_name(),
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def result_line(outcome: Outcome) -> str:
    """The last stdout line: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in outcome.metrics.items()},
    })


def report(outcome: Outcome, fingerprint: dict, args: dict) -> str:
    """Human-readable report printed above the result line."""
    lines = [f"== perfbench {outcome.workload} "
             f"(seed {args['seed']}, trace {args['trace']})",
             "host: " + ", ".join(f"{k}={v}" for k, v in
                                  fingerprint.items())]
    lines.append(f"{'metric':<36} {'value':>14} {'unit':<7} samples")
    for group in (outcome.metrics, outcome.extra):
        for name, m in group.items():
            lines.append(f"{name:<36} {m.value:>14.6g} {m.unit:<7} "
                         f"{m.samples}")
    lines.append(f"operations: attempted={outcome.attempted} "
                 f"succeeded={outcome.succeeded} failed={outcome.failed}")
    for key, value in outcome.details.items():
        lines.append(f"{key}: {value}")
    lines.append(f"checks: {len(outcome.checks_run)} run, "
                 f"{len(outcome.check_failures)} failed "
                 f"({', '.join(outcome.checks_run)})")
    lines.extend(f"CHECK FAILED {msg}" for msg in outcome.check_failures)
    if outcome.tree:
        lines.append("self-time tree:")
        lines.append(outcome.tree)
    return "\n".join(lines)


def write_record(path: str, outcome: Outcome, fingerprint: dict,
                 args: dict) -> None:
    record = {
        "workload": outcome.workload,
        "args": args,
        "host": fingerprint,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "succeeded": outcome.succeeded,
        "failed": outcome.failed,
        "metrics": {name: vars(m) for name, m in outcome.metrics.items()},
        "extra": {name: vars(m) for name, m in outcome.extra.items()},
        "checks": outcome.checks_run,
        "check_failures": outcome.check_failures,
        "details": outcome.details,
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, default=str)
        fh.write("\n")

