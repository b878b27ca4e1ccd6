"""The ``serve`` workload: load on a resident ``repro.cli serve`` process.

The service runs as its own process (``serve --no-cache``) on a warm
small Brite instance (120 paths).  The benchmark is the client: one
process with two connections, replaying a fixed localization/what-if
mix that cycles over a seeded set of query bodies.

* **closed loop** — two clients, each sending its next query when the
  previous answer arrives;
* **open loop** — a seeded Poisson schedule at each rate of a fixed
  ladder, independent of how fast the server answers.  Each request is
  timed from its due time, and the generator's own lateness
  (``generator_lag_ms``) is reported; a rate whose p90 lag exceeds
  ``LAG_LIMIT_MS`` is marked invalid instead of reported as a latency.

Every answer is compared with in-process ``run_query`` on the same body,
computed once before the service starts.  Failures are counted by cause:
wrong answer, error, timeout, shed (429/503).
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
import threading
import time

import common

GENERATOR = {
    "kind": "brite",
    "n_ases": 40,
    "routers_per_as": 5,
    "n_paths": 120,
    "seed": 7,
}
WINDOW = {"n_snapshots": 60, "packets_per_path": 400}
N_LOCALIZATION = 6
N_WHATIF = 2
CLIENTS = 2
#: Open-loop ladder (queries per second) and the limits it is judged by.
LADDER_QPS = (10.0, 20.0, 30.0)
#: Share of the load time spent in the closed loop; the ladder splits the rest.
CLOSED_SHARE = 0.5
LATENCY_LIMIT_MS = 150.0
LAG_LIMIT_MS = 50.0
REQUEST_TIMEOUT_S = 30.0


def query_bodies(seed: int) -> list[dict]:
    """The fixed body set, rotated by the workload seed.

    Six localizations and two what-if forecasts, drawn once from the
    pool seed: query cost differs a lot between bodies (MAP search,
    flow count), so a seeded body set would make the spread between runs
    a property of the seeds.  The seed picks where the cycle starts; it
    also draws the open-loop arrivals (:func:`poisson_schedule`).
    """
    import numpy as np

    rng = np.random.default_rng([common.POOL_SEED, 1])
    bodies = [
        dict(
            WINDOW,
            kind="localization",
            loc_snapshots=4,
            seed=int(rng.integers(2**31)),
        )
        for _ in range(N_LOCALIZATION)
    ]
    for _ in range(N_WHATIF):
        flows = []
        for flow in range(3):
            paths = sorted(
                int(p) for p in rng.choice(GENERATOR["n_paths"], 2, replace=False)
            )
            flows.append(
                {
                    "name": f"f{flow}",
                    "rate": round(float(rng.uniform(2.0, 6.0)), 3),
                    "paths": paths,
                }
            )
        bodies.append(
            dict(
                WINDOW,
                kind="whatif",
                seed=int(rng.integers(2**31)),
                demand={
                    "flows": flows,
                    "capacities": {"default": 10.0},
                    "shifts": [{"name": "surge", "scale": 1.6}],
                },
            )
        )
    # Interleave so any window of the cycle carries both kinds.
    order = [0, 1, 2, 6, 3, 4, 5, 7]
    start = seed % len(order)
    return [bodies[i] for i in order[start:] + order[:start]]


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def reference_answers(bodies) -> tuple[list[str], object]:
    """In-process ``run_query`` answers, encoded as the service encodes."""
    from repro.serve.queries import encode_vectors, run_query
    from repro.serve.registry import instance_from_payload

    instance = instance_from_payload({"generator": GENERATOR})
    answers = [
        canonical(encode_vectors(run_query(instance, body))) for body in bodies
    ]
    return answers, instance


class Server:
    """One ``repro.cli serve`` process, started and made warm."""

    def __init__(self, bodies) -> None:
        from repro.serve.client import ServiceClient

        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--no-cache"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=common.ROOT,
            env=common.program_env(),
        )
        watchdog = threading.Timer(120.0, self.process.kill)
        watchdog.start()
        try:
            banner = self.process.stdout.readline().strip()
            if not banner.startswith("serving on "):
                raise RuntimeError(f"unexpected service banner {banner!r}")
            self.port = int(banner.rsplit(":", 1)[1])
            with ServiceClient(port=self.port, timeout=120.0) as client:
                self.fingerprint = client.load_topology(generator=GENERATOR)
                # First warm query of each kind: lazy imports and
                # OpenBLAS's first call land in set-up.
                for kind in ("localization", "whatif"):
                    body = next(b for b in bodies if b["kind"] == kind)
                    client.query(self.fingerprint, body)
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - started
        self.path = f"/topologies/{self.fingerprint}/query"

    def stats(self) -> dict:
        from repro.serve.client import ServiceClient

        with ServiceClient(port=self.port, timeout=REQUEST_TIMEOUT_S) as client:
            stats = client.stats()
        batcher = stats["batchers"][self.fingerprint]
        registry = stats["prep_registry"]
        return {
            "serve.batcher.queries": batcher["queries"],
            "serve.batcher.batches": batcher["batches"],
            "serve.batcher.max_batch": batcher["max_batch"],
            "serve.batcher.shed": batcher["shed"],
            "serve.batcher.failed": batcher["failed"],
            "core.prepared.registry_hits": registry["hits"],
            "core.prepared.registry_misses": registry["misses"],
        }

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb_of(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()


def _stats_delta(before: dict, after: dict) -> dict:
    delta = {name: after[name] - before[name] for name in after}
    delta["serve.batcher.max_batch"] = after["serve.batcher.max_batch"]
    return delta


class Phase:
    """Outcomes of one load phase."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.lags_ms: list[float] = []
        self.failures = {"wrong": 0, "error": 0, "timeout": 0, "shed": 0}
        self.attempted = 0
        self.errors: list[str] = []
        self.elapsed_s = 0.0
        self.stats: dict = {}
        self._lock = threading.Lock()

    def record(self, latency_ms, cause=None, detail="", lag_ms=None) -> None:
        with self._lock:
            self.attempted += 1
            if lag_ms is not None:
                self.lags_ms.append(lag_ms)
            if cause is None:
                self.latencies_ms.append(latency_ms)
            else:
                self.failures[cause] += 1
                if detail and len(self.errors) < 5:
                    self.errors.append(detail)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _send(client, server, body, expected):
    """One query; returns the failure cause (``None`` when answered right)."""
    from repro.serve.client import ServiceError

    try:
        response = client.request("POST", server.path, body)
    except ServiceError as exc:
        if exc.status in (429, 503):
            return "shed", f"{exc.status}: {exc}"
        if exc.status == 0:
            return "timeout", str(exc)
        return "error", f"{exc.status}: {exc}"
    except OSError as exc:
        return "error", repr(exc)
    if canonical(response["result"]) != expected:
        return "wrong", f"answer differs for {body.get('kind')} seed {body.get('seed')}"
    return None, ""


def closed_loop(server, bodies, answers, seconds: float) -> Phase:
    from repro.serve.client import ServiceClient

    phase = Phase()
    counter = itertools.count()
    lock = threading.Lock()
    before = server.stats()
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop():
        with ServiceClient(port=server.port, timeout=REQUEST_TIMEOUT_S) as client:
            while time.perf_counter() < deadline:
                with lock:
                    index = next(counter) % len(bodies)
                sent = time.perf_counter()
                cause, detail = _send(client, server, bodies[index], answers[index])
                phase.record((time.perf_counter() - sent) * 1e3, cause, detail)

    _run_threads(client_loop, CLIENTS)
    phase.elapsed_s = time.perf_counter() - start
    phase.stats = _stats_delta(before, server.stats())
    return phase


def poisson_schedule(seed: int, rung: int, rate: float, seconds: float):
    """Seeded arrival offsets (seconds) for one open-loop rate."""
    import numpy as np

    rng = np.random.default_rng([seed, 2, rung])
    offsets, now = [], 0.0
    while True:
        now += float(rng.exponential(1.0 / rate))
        if now >= seconds:
            return offsets
        offsets.append(now)


def open_loop(server, bodies, answers, offsets) -> Phase:
    """Send each request at its due time; time it from that due time."""
    from repro.serve.client import ServiceClient

    phase = Phase()
    counter = iter(range(len(offsets)))
    lock = threading.Lock()
    before = server.stats()
    start = time.perf_counter() + 0.05

    def sender():
        with ServiceClient(port=server.port, timeout=REQUEST_TIMEOUT_S) as client:
            while True:
                with lock:
                    index = next(counter, None)
                if index is None:
                    return
                due = start + offsets[index]
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                body_index = index % len(bodies)
                cause, detail = _send(
                    client, server, bodies[body_index], answers[body_index]
                )
                phase.record(
                    (time.perf_counter() - due) * 1e3,
                    cause,
                    detail,
                    lag_ms=(sent - due) * 1e3,
                )

    _run_threads(sender, CLIENTS)
    phase.elapsed_s = time.perf_counter() - start
    phase.stats = _stats_delta(before, server.stats())
    return phase


def _run_threads(target, count: int) -> None:
    failures = []

    def guarded():
        try:
            target()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S * 4)
        if thread.is_alive():
            raise RuntimeError("load thread did not finish")
    if failures:
        raise failures[0]


def summarize_rung(phase: Phase, rate: float, seconds: float) -> dict:
    """Latency at one rate, or why it is not reported."""
    summary = {
        "rate_qps": rate,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "generator_lag_p90_ms": common.percentile(phase.lags_ms, 0.9)
        if phase.lags_ms
        else 0.0,
        "completed_qps": len(phase.latencies_ms) / seconds,
    }
    summary["valid"] = summary["generator_lag_p90_ms"] <= LAG_LIMIT_MS
    if summary["valid"] and phase.latencies_ms:
        latencies = phase.latencies_ms
        summary["latency_p50_ms"] = statistics.median(latencies)
        summary["latency_p90_ms"] = common.percentile(latencies, 0.9)
        summary["samples"] = len(latencies)
        # Ten samples beyond the percentile make it a reported number;
        # below that it still judges the limit but is marked as thin.
        summary["p90_reported"] = len(latencies) >= 100
        # A growing backlog shows as the last answer arriving long after
        # the last request was due.
        summary["backlog_ok"] = phase.elapsed_s <= seconds + LATENCY_LIMIT_MS / 1e3
        summary["meets_slo"] = (
            summary["latency_p90_ms"] <= LATENCY_LIMIT_MS
            and summary["backlog_ok"]
            and phase.failed == 0
        )
    else:
        summary["meets_slo"] = False
    return summary
