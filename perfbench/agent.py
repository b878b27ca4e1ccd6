"""Program-side process of the ``sweep``, ``stream`` and ``remote`` workloads.

Run by ``run.py`` as a fresh interpreter, so that its set-up time covers
what a user's process pays: imports, OpenBLAS's first call, instance
generation, the prepared-topology and template builds, worker launch
and one warm operation.  It reads the generated inputs from
``--inputs``, runs operations for ``--seconds`` and prints one JSON
object as its last line.  ``--setup-only`` stops after set-up.

In ``--trace 1`` the timed phase alternates untraced operations with
operations traced by spans around the program's public functions (see
``spans.py``); the two sets give the tracing overhead.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
import spans as tracing  # noqa: E402


# ----------------------------------------------------------------------
# Span targets
# ----------------------------------------------------------------------
def _count_probe_draws(recorder, args, kwargs, run):
    if run.config.packets_per_path is not None:
        recorder.count(
            "simulate.probe_draws",
            run.observations.n_snapshots * run.observations.n_paths,
        )


def _count_rows(recorder, args, kwargs, system):
    recorder.count("core.equations.rows_accepted", len(system.rows))


SETUP_TARGETS = [
    ("repro.topogen.brite", "generate_brite", "topogen.generate", None),
    ("repro.core.prepared", "PreparedTopology.build", "core.prepared.build", None),
    (
        "repro.core.streaming",
        "EquationTemplate.build",
        "core.streaming.template_build",
        None,
    ),
]
TRIAL_TARGETS = [
    ("repro.eval.parallel", "run_scenario_tasks", "eval.parallel.sweep", None),
    ("repro.eval.runner", "run_comparison", "eval.runner.trial", None),
    (
        "repro.simulate.experiment",
        "run_experiment",
        "simulate.run_experiment",
        _count_probe_draws,
    ),
    (
        "repro.simulate.observations",
        "PathObservations.joint_good_gram",
        "simulate.observations.gram",
        None,
    ),
    ("repro.core.equations", "build_equations", "core.equations.build", _count_rows),
    (
        "repro.core.correlation_algorithm",
        "infer_congestion",
        "core.infer_correlation",
        None,
    ),
    (
        "repro.core.independence_algorithm",
        "infer_congestion_independent",
        "core.infer_independence",
        None,
    ),
    ("repro.core.solvers", "solve", "core.solvers.solve", None),
]
STREAM_TARGETS = [
    (
        "repro.simulate.observations",
        "PathObservations.append_window",
        "simulate.observations.append",
        None,
    ),
    (
        "repro.simulate.observations",
        "PathObservations.evict_oldest",
        "simulate.observations.evict",
        None,
    ),
    (
        "repro.core.streaming",
        "StreamingTomography.update",
        "core.streaming.update",
        None,
    ),
    ("repro.core.streaming", "EquationTemplate.values", "core.streaming.values", None),
    ("repro.core.solvers", "solve", "core.solvers.solve", None),
]
REMOTE_TARGETS = [
    ("repro.eval.parallel", "run_scenario_tasks", "eval.parallel.sweep", None),
    (
        "repro.eval.dist.codec",
        "encode_tasks",
        "eval.dist.codec.encode_tasks",
        None,
    ),
]


def _chunk_roundtrip_patches(patches, recorder) -> None:
    """Spans from each chunk frame the coordinator sends to its result.

    The coordinator's per-worker threads call the framing functions of
    ``repro.eval.dist.protocol`` by name; wrapping them there sees every
    chunk leave and every result arrive, whatever the transport, so
    the span covers framing, transport and the worker's compute.
    """
    from repro.eval.dist import coordinator

    sent: dict[int, float] = {}

    def wrap_send(original):
        def send(sock, header, *args, **kwargs):
            if header.get("type") == "chunk":
                sent[header["chunk"]] = time.perf_counter()
            return original(sock, header, *args, **kwargs)

        return send

    def wrap_recv(original):
        def recv(*args, **kwargs):
            header, payload = original(*args, **kwargs)
            started = sent.pop(header.get("chunk"), None)
            if header.get("type") == "result" and started is not None:
                recorder.add_span(
                    "eval.dist.chunk_roundtrip", started, time.perf_counter()
                )
            return header, payload

        return recv

    for name in ("send_message", "send_json_message"):
        patches.add(coordinator, name, wrap_send(getattr(coordinator, name)))
    for name in ("recv_message", "recv_json_message"):
        patches.add(coordinator, name, wrap_recv(getattr(coordinator, name)))


def _import_targets(targets) -> None:
    for module_name, *_ in targets:
        importlib.import_module(module_name)


class Tracer:
    """Switches the span wrappers on and off around phases."""

    def __init__(self, enabled: bool, targets, extra_patches=None) -> None:
        self.enabled = enabled
        self.recorder = tracing.SpanRecorder()
        self._patches = None
        if enabled:
            _import_targets(targets)
            self._patches = tracing.instrument(self.recorder, targets)
            if extra_patches is not None:
                extra_patches(self._patches, self.recorder)

    @property
    def active(self) -> bool:
        return self._patches is not None and self._patches.applied

    def on(self) -> None:
        if self._patches is not None:
            self._patches.apply()

    def off(self) -> None:
        if self._patches is not None:
            self._patches.undo()


# ----------------------------------------------------------------------
# Timed loop
# ----------------------------------------------------------------------
class Tally:
    """Latencies and failures by cause for one phase."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.failures = {"wrong": 0, "error": 0, "timeout": 0, "shed": 0}
        self.attempted = 0
        self.errors: list[str] = []

    def fail(self, cause: str, detail: str = "") -> None:
        self.failures[cause] += 1
        if detail and len(self.errors) < 5:
            self.errors.append(detail)


def run_phase(seconds: float, step, tally: Tally) -> float:
    """Call ``step(index, tally)`` until ``seconds`` have passed."""
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        step(index, tally)
        index += 1
    return time.perf_counter() - start


def run_traced_phase(seconds: float, step, tracer: Tracer):
    """Alternate untraced and traced operations for ``seconds``.

    Alternating, rather than tracing one half of the run, keeps drift
    over the run (allocator growth, a warming cache) out of the tracing
    overhead.  Spans opened during a traced operation are attributed to
    it.  Returns ``(traced tally, untraced tally, wall seconds)``.
    """
    traced, untraced = Tally(), Tally()
    recorder = tracer.recorder
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        if index % 2:
            tracer.on()
            recorder.op = f"op{index}"
            try:
                step(index, traced)
            finally:
                recorder.op = None
                tracer.off()
        else:
            step(index, untraced)
        index += 1
    return traced, untraced, time.perf_counter() - start


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Sweep:
    """Serial Figure-3(a,b) trials on the medium instance, one per op."""

    targets = SETUP_TARGETS + TRIAL_TARGETS

    def __init__(self, inputs: dict, tracer: Tracer) -> None:
        from repro.core.prepared import PreparedRegistry, get_prepared
        from repro.eval.parallel import SerialExecutor

        common.warm_blas()
        self.instance, self.config, self.tasks = common.pool("sweep")
        self.registry = PreparedRegistry()
        get_prepared(
            self.instance.topology,
            self.instance.correlation,
            registry=self.registry,
        )
        self.executor = SerialExecutor()
        self.digests = common.load_digests("sweep")
        self.schedule = inputs["schedule"]
        self.cursor = 0
        warm = Tally()
        self.step(0, warm)
        if warm.attempted != 1 or any(warm.failures.values()):
            raise RuntimeError(f"warm-up trial failed: {warm.errors}")

    def step(self, _index: int, tally: Tally) -> None:
        from repro.eval.parallel import run_scenario_tasks

        task_index = self.schedule[self.cursor % len(self.schedule)]
        self.cursor += 1
        tally.attempted += 1
        start = time.perf_counter()
        try:
            (errors,) = run_scenario_tasks(
                self.instance,
                [self.tasks[task_index]],
                config=self.config,
                executor=self.executor,
                registry=self.registry,
            )
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            tally.fail("error", f"trial {task_index}: {exc!r}")
            return
        tally.latencies_ms.append((time.perf_counter() - start) * 1e3)
        if common.digest(errors) != self.digests[task_index]:
            tally.fail("wrong", f"trial {task_index}: digest mismatch")

    def finish(self, tally: Tally) -> dict:
        return {"peak_rss_mb": common.own_peak_rss_mb(), "checks": {}}

    def layers(self, recorder) -> dict:
        return {
            **_setup_layers(recorder),
            **_trial_layers(recorder),
            "eval.parallel.self_ms": recorder.median_ms(
                "eval.parallel.sweep", self_time=True
            ),
        }


class Stream:
    """Sliding-window streaming inference on the medium instance."""

    targets = SETUP_TARGETS + STREAM_TARGETS

    def __init__(self, inputs: dict, tracer: Tracer) -> None:
        import numpy as np

        from repro.core.prepared import PreparedRegistry
        from repro.core.streaming import StreamingTomography
        from repro.eval.figures import default_instance
        from repro.simulate.observations import PathObservations

        loaded = time.perf_counter()
        rows = np.load(inputs["windows"])
        self.input_load_s = time.perf_counter() - loaded
        size = common.STREAM_WINDOW
        self.windows = [
            rows[start : start + size] for start in range(0, len(rows), size)
        ]
        common.warm_blas()
        self.instance = default_instance(
            "brite", scale="medium", seed=common.INSTANCE_SEED
        )
        self.engine = StreamingTomography(
            self.instance.topology,
            self.instance.correlation,
            registry=PreparedRegistry(),
        )
        self.engine.prepare()
        self.engine.template()
        self.fed: list[int] = [0]
        self.observations = PathObservations(
            self.windows[0], max_window=common.STREAM_MAX_WINDOW
        )
        self.verdict = self.engine.update(self.observations)

    def step(self, index: int, tally: Tally) -> None:
        window_index = (index + 1) % len(self.windows)
        tally.attempted += 1
        start = time.perf_counter()
        try:
            self.observations.append_window(self.windows[window_index])
            self.verdict = self.engine.update(self.observations)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            tally.fail("error", f"window {index}: {exc!r}")
            return
        tally.latencies_ms.append((time.perf_counter() - start) * 1e3)
        self.fed.append(window_index)

    def finish(self, tally: Tally) -> dict:
        """The final window must equal batch inference over its rows.

        The expected rows are rebuilt from the windows fed, not read
        back from the engine, so a wrong eviction shows up as well.
        """
        import numpy as np

        from repro.core.correlation_algorithm import infer_congestion
        from repro.simulate.observations import PathObservations

        peak = common.own_peak_rss_mb()
        fed = np.concatenate([self.windows[i] for i in self.fed], axis=0)
        expected_rows = fed[-common.STREAM_MAX_WINDOW :]
        batch = infer_congestion(
            self.instance.topology,
            self.instance.correlation,
            PathObservations(expected_rows.copy()),
        )
        final = self.verdict.result
        identical = (
            final.congestion_probabilities.tobytes()
            == batch.congestion_probabilities.tobytes()
            and final.log_good.tobytes() == batch.log_good.tobytes()
        )
        if not identical:
            tally.fail("wrong", "final window differs from batch inference")
        return {
            "peak_rss_mb": peak,
            "checks": {"final_window_equals_batch": identical},
            "input_load_s": self.input_load_s,
        }

    def layers(self, recorder) -> dict:
        return {
            **_setup_layers(recorder),
            "simulate.observations.append_ms": recorder.median_ms(
                "simulate.observations.append"
            ),
            "simulate.observations.evict_ms": recorder.median_ms(
                "simulate.observations.evict"
            ),
            "core.streaming.values_ms": recorder.median_ms(
                "core.streaming.values"
            ),
            "core.solvers.solve_ms": recorder.median_ms("core.solvers.solve"),
            "core.streaming.update_self_ms": recorder.median_ms(
                "core.streaming.update", self_time=True
            ),
        }


class Remote:
    """Small-scale Figure-3 trials through ``RemoteExecutor``.

    Two ``LocalLauncher`` workers of capacity 1 are launched in set-up
    and kept for the whole run.  Each sweep call carries two blocks of
    the pool walk (every fraction twice) as single-trial chunks that the
    workers claim as they free up, so a sweep's cost does not depend on
    how the seed pairs cheap and dear trials.  A trial's latency is the
    time its chunk holds a worker slot (see :class:`_SettleClock`).
    """

    trials_per_sweep = 2 * len(common.FRACTIONS)

    targets = SETUP_TARGETS + REMOTE_TARGETS
    extra_patches = staticmethod(_chunk_roundtrip_patches)

    def __init__(self, inputs: dict, tracer: Tracer) -> None:
        from repro.eval.dist import LocalLauncher, RemoteExecutor

        self.tracer = tracer
        common.warm_blas()
        self.instance, self.config, self.tasks = common.pool("remote")
        self.digests = common.load_digests("remote")
        self.schedule = inputs["schedule"]
        self.cursor = 0
        self.launcher = LocalLauncher(n_workers=2, capacities=1)
        self.stats_totals: dict[str, int] = {}
        self.decode_ms: list[float] = []
        span = tracer.recorder.span if tracer.enabled else _no_span
        with span("eval.dist.launch"):
            specs = self.launcher.launch()
        self.pids = [worker.pid for worker in self.launcher.workers]
        self.slots = len(specs)  # capacity 1 each
        self.executor = RemoteExecutor(
            hosts=specs, chunks_per_worker=self.trials_per_sweep // len(specs)
        )
        warm = Tally()
        self.step(0, warm)
        if warm.attempted != self.trials_per_sweep or any(warm.failures.values()):
            self.launcher.shutdown()
            raise RuntimeError(f"warm-up sweep failed: {warm.errors}")
        self.stats_totals = {}

    def step(self, _index: int, tally: Tally) -> None:
        from repro.eval.parallel import run_scenario_tasks

        indices = [
            self.schedule[(self.cursor + k) % len(self.schedule)]
            for k in range(self.trials_per_sweep)
        ]
        self.cursor += self.trials_per_sweep
        tally.attempted += self.trials_per_sweep
        clock = _SettleClock(self.executor, self.tracer, self.slots)
        try:
            results = run_scenario_tasks(
                self.instance,
                [self.tasks[i] for i in indices],
                config=self.config,
                executor=clock,
            )
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            for index in indices:
                tally.fail("error", f"trial {index}: {exc!r}")
            return
        tally.latencies_ms.extend(clock.trial_latencies_ms)
        for index, errors in zip(indices, results):
            if common.digest(errors) != self.digests[index]:
                tally.fail("wrong", f"trial {index}: digest mismatch")
        stats = self.executor.last_sweep_stats
        for field in (
            "connect_retries",
            "worker_losses",
            "requeued_chunks",
            "serial_fallback_chunks",
        ):
            self.stats_totals[field] = self.stats_totals.get(field, 0) + int(
                getattr(stats, field)
            )
        if self.tracer.active:
            self._replay_decode(indices)

    def _replay_decode(self, indices) -> None:
        """Time ``decode_tasks`` in-process on this op's chunk payloads."""
        from repro.eval.dist.codec import decode_tasks, encode_tasks

        payloads = [encode_tasks([self.tasks[i]]) for i in indices]
        start = time.perf_counter()
        for payload in payloads:
            decode_tasks(payload)
        self.decode_ms.append((time.perf_counter() - start) * 1e3)

    def finish(self, tally: Tally) -> dict:
        peaks = [common.peak_rss_mb_of(pid) for pid in self.pids]
        self.launcher.shutdown()
        return {
            "peak_rss_mb": max(peaks),
            "checks": {},
            "worker_peak_rss_mb": peaks,
            "sweep_stats": dict(self.stats_totals),
        }

    def layers(self, recorder) -> dict:
        chunk = [
            (s["end"] - s["start"]) * 1e3
            for s in recorder.spans
            if s["name"] == "eval.dist.chunk_roundtrip" and s["op"] is not None
        ]
        return {
            **_setup_layers(recorder),
            "eval.dist.launch_s": recorder.setup_s("eval.dist.launch"),
            "eval.dist.codec.encode_tasks_ms": recorder.median_ms(
                "eval.dist.codec.encode_tasks"
            ),
            "eval.dist.codec.decode_tasks_ms": (
                statistics.median(self.decode_ms) if self.decode_ms else 0.0
            ),
            "eval.dist.chunk_roundtrip_ms": (
                statistics.median(chunk) if chunk else 0.0
            ),
            "eval.parallel.self_ms": recorder.median_ms(
                "eval.parallel.sweep", self_time=True
            ),
            **{
                f"eval.dist.sweep.{field}": value
                for field, value in self.stats_totals.items()
            },
        }


class _SettleClock:
    """Executor proxy timing how long each chunk holds a worker slot.

    ``run_scenario_tasks`` only calls ``plan`` and ``map_chunks``; the
    proxy forwards both and stamps each chunk as it settles.  Workers of
    capacity 1 claim chunks in order as they free up, so the first
    ``slots`` chunks start with the sweep call and chunk ``c`` after
    that starts when the ``c - slots``-th settle frees its slot.  A
    trial's latency runs from that start to its own settle: one trial's
    round trip through the coordinator, transport and worker, rather
    than its place in the sweep's queue (a quantity that jumps a whole
    trial at a time).  When tracing, a span from the sweep call to each
    settle marks the children that ``eval.parallel.self_ms`` subtracts.
    """

    def __init__(self, inner, tracer: Tracer, slots: int) -> None:
        self.inner = inner
        self.tracer = tracer
        self.slots = slots
        self.trial_latencies_ms: list[float] = []
        self._sizes: list[int] = []

    def plan(self, tasks):
        chunks = self.inner.plan(tasks)
        self._sizes = [len(chunk) for chunk in chunks]
        return chunks

    def map_chunks(self, context, chunks):
        dispatched = time.perf_counter()
        tracing_on = self.tracer.active
        settles: list[float] = []
        for chunk_index, errors_list in self.inner.map_chunks(context, chunks):
            settled = time.perf_counter()
            freed_by = chunk_index - self.slots
            # A requeued chunk (worker loss) can settle out of order.
            began = (
                settles[min(freed_by, len(settles) - 1)]
                if freed_by >= 0 and settles
                else dispatched
            )
            settles.append(settled)
            self.trial_latencies_ms.extend(
                [(settled - began) * 1e3] * self._sizes[chunk_index]
            )
            if tracing_on:
                self.tracer.recorder.add_span(
                    "eval.dist.settle", dispatched, settled
                )
            yield chunk_index, errors_list


def _no_span(_name):
    return contextlib.nullcontext()


def _setup_layers(recorder) -> dict:
    return {
        "topogen.generate_s": recorder.setup_s("topogen.generate"),
        "core.prepared.build_s": recorder.setup_s("core.prepared.build"),
        "core.streaming.template_build_s": recorder.setup_s(
            "core.streaming.template_build"
        ),
    }


def _trial_layers(recorder) -> dict:
    return {
        "simulate.run_experiment_ms": recorder.median_ms(
            "simulate.run_experiment"
        ),
        "simulate.probe_draws": recorder.median_count("simulate.probe_draws"),
        "simulate.observations.gram_ms": recorder.median_ms(
            "simulate.observations.gram"
        ),
        "core.equations.build_ms": recorder.median_ms("core.equations.build"),
        "core.equations.rows_accepted": recorder.median_count(
            "core.equations.rows_accepted"
        ),
        "core.infer_correlation_ms": recorder.median_ms(
            "core.infer_correlation"
        ),
        "core.infer_correlation_self_ms": recorder.median_ms(
            "core.infer_correlation", self_time=True
        ),
        "core.infer_independence_ms": recorder.median_ms(
            "core.infer_independence"
        ),
        "core.solvers.solve_ms": recorder.median_ms("core.solvers.solve"),
        "eval.runner.trial_self_ms": recorder.median_ms(
            "eval.runner.trial", self_time=True
        ),
    }


WORKLOADS = {"sweep": Sweep, "stream": Stream, "remote": Remote}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    common.use_source_tree()
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    workload = WORKLOADS[args.workload]
    tracer = Tracer(
        bool(args.trace), workload.targets, getattr(workload, "extra_patches", None)
    )
    tracer.on()
    work = workload(inputs, tracer)
    setup_s = time.perf_counter() - _STARTED - getattr(work, "input_load_s", 0.0)
    tracer.off()
    if args.setup_only:
        if isinstance(work, Remote):
            work.finish(Tally())
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    tally = Tally()
    try:
        if args.trace:
            tally, untraced, elapsed = run_traced_phase(
                args.seconds, work.step, tracer
            )
            result["untraced_p50_ms"] = statistics.median(untraced.latencies_ms)
            _merge(tally, untraced)
        else:
            elapsed = run_phase(args.seconds, work.step, tally)
    finally:
        extra = work.finish(tally)
    result.update(extra)
    result.update(
        elapsed_s=elapsed,
        latencies_ms=tally.latencies_ms,
        attempted=tally.attempted,
        failures=tally.failures,
        errors=tally.errors,
    )
    if args.trace:
        recorder = tracer.recorder
        layers = work.layers(recorder)
        result["layers"] = layers
        result["spans"] = len(recorder.spans)
        result["unbalanced_spans"] = recorder.unbalanced()
        recorder.dump(inputs["spans_path"])
    print(json.dumps(result))
    return 0


def _merge(tally: Tally, untraced: Tally) -> None:
    """Fold the untraced operations' failures into the run's tally.

    Latencies stay apart: the traced operations' are the run's.
    """
    tally.attempted += untraced.attempted
    for cause, count in untraced.failures.items():
        tally.failures[cause] += count
    tally.errors.extend(untraced.errors)


if __name__ == "__main__":
    sys.exit(main())
