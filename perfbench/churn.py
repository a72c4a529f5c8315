"""The ``serve-churn`` workload: open-loop admits and departs against a
``repro serve`` daemon.

The daemon runs as a subprocess (16 hosts, METAHVPLIGHT, an fsynced
``--journal``) on a platform fixed by ``PLATFORM_SEED``; ``--seed``
seeds the service stream.  Untimed, the stream pre-fills the daemon to
``PREFILL`` services.  Then events are sent open loop at ``RATE`` per
second, one request in flight at a time, and each request is timed from
when it was due, not from when it was sent.  A single client fixes the
event order, so the daemon's answers can be replayed exactly, and it
leaves the second core to the daemon.

Each request opens its own connection.  Over one keep-alive connection
a request that follows its predecessor's reply stalls about 40 ms: the
daemon writes the headers and the body in two sends with Nagle's
algorithm on, and the client delays its ACK of the headers.  That caps
a keep-alive client near 18 requests per second, against about 90 with
a connection per request, so keep-alive load at any useful rate only
measures the stall.

The stream is balanced around the pre-fill size: below it the next event
is an admit, above it a depart, and at it a seeded coin decides.  A
depart removes the oldest live service, so the live set stays at about
``PREFILL`` services and is replaced whole every ``2 * PREFILL`` events
or so: a run averages over many live sets, not over the few services
that a random choice would leave in place for the whole run.

This workload is not registered in ``BENCHMARK.json``.  On the shared
2-core reference host, request_p50_ms and request_p99_ms spread
(interquartile range over median, ten seeds) 0.17 and 0.21 in a quiet
hour but 0.21 and 0.32 to 0.65 in a noisy one: millisecond requests feel
every stall of the host, and the open loop queues behind them.  That is
more than the largest bound a gated metric may have (0.25).  Run it by
hand for the service layers: its checks and per-layer metrics hold.

After the run the recorded stream is replayed in-process through
``AllocationController.admit``/``depart`` with a journal; every answer
and the final certified yield must match the daemon's byte for byte.
The traced run replays it a second time with the layer wrappers on.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from record import Outcome
from spans import Tracer, format_tree, percentile, self_time_tree

HOSTS = 16
COV = 0.5
PLATFORM_SEED = 7
STRATEGY = "METAHVPLIGHT"
CPU_NEED_SCALE = 0.05
PREFILL = 100
#: Offered load, requests per second: about 28% of the closed-loop
#: capacity (about 90 per second) on the 2-core reference box.  Higher
#: loads let host noise queue up: at 40 per second a slow stretch of the
#: shared host doubled request_p99_ms, and at 55 one stall pushed it from
#: 20 to 260 ms.
RATE = 25.0
#: Daemon start-ups per run; setup_s is their median.
SETUP_SPAWNS = 3
REQUEST_TIMEOUT_S = 30.0

PORT_LINE = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Daemon:
    """One ``repro serve`` subprocess."""

    def __init__(self, root: str, tmp: str, tag: str, env: dict):
        self.journal = os.path.join(tmp, f"{tag}.journal")
        self.log_path = os.path.join(tmp, f"{tag}.log")
        cmd = [sys.executable, "-m", "repro.cli",
               "--seed", str(PLATFORM_SEED), "--kernel-backend", "native",
               "serve", "--port", "0", "--hosts", str(HOSTS),
               "--cov", str(COV), "--strategy", STRATEGY,
               "--cpu-need-scale", str(CPU_NEED_SCALE),
               "--journal", self.journal]
        self._log = open(self.log_path, "w")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self.host, self.port = self._await_port(60.0)
        self.healthy_after = self._await_health(60.0) - self.start

    def _await_port(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                match = PORT_LINE.search(line)
                if match:
                    return match.group(1), int(match.group(2))
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"daemon did not announce a port; see "
                           f"{self.log_path}")

    def _await_health(self, timeout: float) -> float:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return time.perf_counter()
            except OSError:
                time.sleep(0.005)
        self.stop()
        raise RuntimeError("daemon never reported healthy")

    def request(self, method: str, path: str, body: dict | None = None
                ) -> tuple[int, dict]:
        """One JSON request on its own connection."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def _platform():
    from repro.workloads import generate_platform

    return generate_platform(hosts=HOSTS, cov=COV, rng=PLATFORM_SEED)


class Stream:
    """The seeded event stream; picks each event from the live set."""

    def __init__(self, seed: int, target: int):
        from repro.service import AllocationController

        self.sampler = AllocationController(
            _platform(), strategy=STRATEGY, cpu_need_scale=CPU_NEED_SCALE,
            rng=seed)
        self.rng = np.random.default_rng([seed, 1])
        self.target = target
        self.active: dict[str, None] = {}

    def admit(self) -> tuple[str, str, dict, object]:
        spec = self.sampler.sample_spec()
        body = {"id": spec.sid, "req_elem": list(spec.req_elem),
                "req_agg": list(spec.req_agg),
                "need_elem": list(spec.need_elem),
                "need_agg": list(spec.need_agg)}
        return "POST", "/alloc", body, spec

    def next(self) -> tuple[str, str, dict | None, object]:
        live = len(self.active)
        if live < self.target or (live == self.target
                                  and self.rng.random() < 0.5):
            return self.admit()
        sid = next(iter(self.active))  # the oldest live service
        return "DELETE", f"/alloc/{sid}", None, sid

    def observe(self, method: str, target, status: int) -> None:
        if status != 200:
            return
        if method == "POST":
            self.active[target.sid] = None
        else:
            del self.active[target]


def _event(method: str, target, status: int, body: dict) -> dict:
    return {"op": "admit" if method == "POST" else "depart",
            "target": target, "status": status, "body": body}


def prefill(daemon: Daemon, stream: Stream, events: list) -> None:
    rejected = 0
    while len(stream.active) < stream.target and rejected < 20:
        method, path, body, spec = stream.admit()
        status, answer = daemon.request(method, path, body)
        if status >= 500:
            raise RuntimeError(f"pre-fill admit answered {status}: {answer}")
        rejected += status == 409
        stream.observe(method, spec, status)
        events.append(_event(method, spec, status, answer))


def drive(daemon: Daemon, stream: Stream, n: int, rate: float,
          events: list) -> list[dict]:
    """Send *n* events open loop at *rate*; one timing row per event."""
    rows: list[dict] = []
    t0 = time.perf_counter() + 0.05
    done = t0
    for i in range(n):
        method, path, body, target = stream.next()
        due = t0 + i / rate
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        row = {"due": due, "sent": sent, "ready": max(due, done),
               "method": method}
        try:
            status, answer = daemon.request(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            row.update(recv=time.perf_counter(), status=None,
                       error=f"{type(exc).__name__}: {exc}")
            rows.append(row)
            # Whether the daemon committed the event is unknown, so the
            # replay could not match it: end the stream here.
            break
        row.update(recv=time.perf_counter(), status=status)
        if status < 500:
            stream.observe(method, target, status)
            events.append(_event(method, target, status, answer))
        row["answer"] = answer
        rows.append(row)
        done = time.perf_counter()
    return rows


def _same(a, b) -> bool:
    return json.dumps(a) == json.dumps(b)


def replay(events: list, journal_path: str) -> tuple[object, list[str]]:
    """Replay *events* in-process; returns the controller and every
    divergence from the daemon's answers."""
    from repro.service import (AllocationController, EventJournal,
                               ServiceError)

    ctl = AllocationController(_platform(), strategy=STRATEGY,
                               cpu_need_scale=CPU_NEED_SCALE)
    ctl.attach_journal(EventJournal(journal_path))
    diverged: list[str] = []
    for i, ev in enumerate(events):
        try:
            if ev["op"] == "admit":
                answer = ctl.admit(ev["target"])
            else:
                answer = ctl.depart(ev["target"])
            status = 200
        except ServiceError as err:
            answer, status = err.payload, err.status
        want = ev["body"]
        if status != ev["status"]:
            diverged.append(f"event {i}: daemon {ev['status']}, "
                            f"replay {status}")
        elif status == 200 and not all(
                _same(answer.get(k), want.get(k))
                for k in ("minimum_yield", "certified_yield", "active")):
            diverged.append(f"event {i}: daemon {want.get('certified_yield')!r}"
                            f", replay {answer.get('certified_yield')!r}")
        if len(diverged) >= 5:
            break
    ctl.quiesce()
    return ctl, diverged


def run(seed: int, seconds: float, trace: bool, build: str, smoke: bool,
        tracer_path: str | None, root: str, env: dict) -> Outcome:
    tmp = tempfile.mkdtemp(prefix="serve-churn-", dir=build)
    try:
        return _run(seed, seconds, trace, smoke, tracer_path, root, env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(seed: int, seconds: float, trace: bool, smoke: bool,
         tracer_path: str | None, root: str, env: dict, tmp: str) -> Outcome:
    out = Outcome("serve-churn")
    stream = Stream(seed, 10 if smoke else PREFILL)
    events: list = []
    n = max(1, int(RATE * seconds))
    setups: list[float] = []
    daemon: Daemon | None = None
    try:
        for k in range(2 if smoke else SETUP_SPAWNS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(root, tmp, f"daemon{k}", env)
            setups.append(daemon.healthy_after)
        out.put("setup_s", statistics.median(setups), "s", len(setups))
        prefill(daemon, stream, events)
        prefilled = len(events)
        rows = drive(daemon, stream, n, RATE, events)
        _, state = daemon.request("GET", "/state")
        out.put("peak_rss_mb", daemon.peak_rss_mb(), "MB", 1)
    finally:
        if daemon is not None:
            daemon.stop()

    out.attempted = n
    ok = [r for r in rows if r["status"] is not None and r["status"] < 500]
    failures = [r.get("error") or r["status"] for r in rows
                if r["status"] is None or r["status"] >= 500]
    out.succeeded = len(ok)
    out.failed = n - len(ok)
    out.details["prefilled_events"] = prefilled
    out.details["active_after"] = len(stream.active)
    answered = [r for r in ok if r["status"] == 200]
    admits = [r for r in ok if r["method"] == "POST"]
    rejected = sum(r["status"] == 409 for r in admits)
    latency = [1e3 * (r["recv"] - r["due"]) for r in ok]
    yields = [r["answer"]["minimum_yield"] for r in answered
              if r["answer"].get("minimum_yield") is not None]
    if ok:
        span = max(r["recv"] for r in ok) - rows[0]["due"]
        out.put("instances_per_s", len(ok) / span, "1/s", len(ok))
        out.put("request_p50_ms", percentile(latency, 50), "ms",
                len(latency))
        out.put("request_p99_ms", percentile(latency, 99), "ms",
                len(latency))
    if yields:
        out.put("mean_min_yield", statistics.fmean(yields), "yield",
                len(yields))
    out.put("admit_reject_share", rejected / len(admits) if admits else 0.0,
            "share", len(admits), extra=True)

    bad_yield = [y for r in answered for y in
                 (r["answer"].get("minimum_yield"), r["answer"].get("yield"))
                 if y is not None and not 0.0 <= y <= 1.0]
    out.check("yields_in_unit_interval", not bad_yield,
              f"{len(bad_yield)} yields outside [0, 1]")
    out.check("no_failed_requests", out.failed == 0,
              f"{out.failed} requests failed or were never sent, first: "
              f"{failures[:1]}")

    start = time.perf_counter()
    ctl, diverged = replay(events, os.path.join(tmp, "replay.journal"))
    replay_wall = time.perf_counter() - start
    out.check("daemon_equals_replay", not diverged, "; ".join(diverged))
    out.check("final_certified_identical",
              _same(state["certified_yield"], ctl.state.certified),
              f"daemon {state['certified_yield']!r}, "
              f"replay {ctl.state.certified!r}")
    certified = ctl.state.certified
    out.details["final_certified_yield"] = (
        None if certified is None else repr(float(certified)))

    if trace:
        _trace(out, ok, events, tmp, replay_wall, tracer_path)
    return out


def _trace(out: Outcome, ok: list, events: list, tmp: str,
           replay_wall: float, tracer_path: str | None) -> None:
    from layers import instrument, layer_metrics

    solved = [r for r in ok if "latency_ms" in r["answer"]]
    solve_ms = [r["answer"]["latency_ms"] for r in solved]
    overhead_ms = [1e3 * (r["recv"] - r["sent"]) - r["answer"]["latency_ms"]
                   for r in solved]
    queue_ms = [1e3 * (r["sent"] - r["due"]) for r in ok]
    lag_ms = [1e3 * (r["sent"] - r["ready"]) for r in ok]
    if solved:
        out.put("service.solve_ms", percentile(solve_ms, 50), "ms",
                len(solve_ms))
        out.put("service.overhead_ms", percentile(overhead_ms, 50), "ms",
                len(overhead_ms))
        out.put("service.probes_per_request",
                statistics.fmean(r["answer"].get("probes", 0)
                                 for r in solved), "count", len(solved))
        out.put("service.warm_share",
                statistics.fmean(bool(r["answer"].get("warm"))
                                 for r in solved), "share", len(solved))
    if ok:
        out.put("service.queue_ms", percentile(queue_ms, 99), "ms",
                len(queue_ms))
        out.put("loadgen.lag_ms", percentile(lag_ms, 99), "ms", len(lag_ms))
    share = out.extra["admit_reject_share"]
    out.put("service.admit_reject_share", share.value, "share",
            share.samples)

    tracer = Tracer()
    stats = instrument(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("replay"):
            _, diverged = replay(events, os.path.join(tmp, "traced.journal"))
        traced_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    out.check("traced_replay_equals_daemon", not diverged,
              "; ".join(diverged))
    for name, (value, samples) in layer_metrics(tracer, stats).items():
        if name not in out.metrics:
            out.put(name, value, "", samples)
    out.put("trace.overhead_share", traced_wall / replay_wall - 1.0, "",
            1)
    out.tree = format_tree(self_time_tree(tracer.spans))
    if tracer_path:
        tracer.write_jsonl(tracer_path)
