"""Parallel scenario engine: fan simulate→infer→score trials across cores.

The paper's evaluation (Figures 3–5) is a bag of *independent*
experiments: each trial draws a scenario, simulates snapshots, runs both
inference algorithms, and scores them.  This module turns that bag into
an explicit work list of :class:`ScenarioTask` records and executes it
through a pluggable :class:`TaskExecutor`: :class:`SerialExecutor`
(in-process), :class:`LocalExecutor` (a
:class:`concurrent.futures.ProcessPoolExecutor` on this host), or
:class:`repro.eval.dist.RemoteExecutor` (a coordinator fanning chunks
out to socket-connected workers on other hosts).  Executors yield
chunks as they complete and settle every chunk before raising, so a
failed sweep keeps (and caches) everything that finished and reports
exactly which task indices were lost (:class:`ScenarioTaskError`).

Determinism is seed-structural, not schedule-structural: every task
carries its own pre-spawned child generators
(:func:`repro.utils.rng.spawn_children` in the *parent*), results are
returned in task order, and no randomness is consumed by the scheduler —
so ``workers=1`` and ``workers=N`` produce bit-identical figures for the
same top-level seed.

Tasks reference scenario factories *by name* (a registry of module-level
callables) so they pickle cheaply; the instance, simulation config and
algorithm options are shipped once per worker via the pool initializer
rather than once per task.  Task batches are submitted as *chunks* and
workers return each chunk's error vectors as one packed float buffer
plus a small shape descriptor — one array pickle per chunk instead of
one object pickle per trial.

:func:`run_scenario_tasks` optionally consults a persistent
:class:`repro.eval.cache.TrialCache`: the task list is partitioned into
hits (loaded from disk, zero compute) and misses (executed, then written
back atomically so concurrent sweeps can share one store).  Cached and
recomputed trials are bit-identical — the cache stores exactly what the
worker returned.

``resolve_workers(None)`` honours the ``REPRO_WORKERS`` environment
variable (same encoding as the ``--workers`` CLI flag: ``1`` = serial,
``0`` = one worker per CPU core), so CI and benchmarks can steer the
fan-out without threading a flag through every entry point.
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

import numpy as np

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.prepared import PreparedRegistry, use_registry
from repro.eval.mislabel import make_mislabeled_scenario
from repro.eval.runner import run_comparison
from repro.eval.scenario import make_clustered_scenario
from repro.eval.unidentifiable import make_unidentifiable_scenario
from repro.io import instance_fingerprint
from repro.simulate.experiment import ExperimentConfig
from repro.topogen.instance import TomographyInstance
from repro.utils.rng import clone_generator, spawn_children

__all__ = [
    "SCENARIO_FACTORIES",
    "TASK_RUNNERS",
    "register_task_runner",
    "ScenarioTask",
    "scenario_tasks",
    "resolve_workers",
    "run_scenario_tasks",
    "pool_errors",
    "TaskExecutor",
    "SerialExecutor",
    "LocalExecutor",
    "ChunkExecutionError",
    "ScenarioTaskError",
]

#: Picklable scenario constructors addressable from worker processes.
SCENARIO_FACTORIES = {
    "clustered": make_clustered_scenario,
    "unidentifiable": make_unidentifiable_scenario,
    "mislabeled": make_mislabeled_scenario,
}

#: Generalised task runners, addressable by name from worker processes.
#: A runner owns the *whole* trial — signature
#: ``runner(instance, config, options, task) -> dict[str, np.ndarray]``
#: with float64 vectors only (the packed chunk transport refuses other
#: dtypes) — whereas a scenario factory only builds the scenario for the
#: standard simulate→infer→score flow.  Names containing ``:`` are
#: dotted ``"module:attribute"`` specs resolved lazily on first use, so
#: they work unchanged in freshly spawned pool workers and remote dist
#: workers (the name carries its own import path) and ship through the
#: dist codec as ordinary factory strings.
TASK_RUNNERS: dict = {}


def register_task_runner(name: str, runner) -> None:
    """Register *runner* under *name* for :class:`ScenarioTask` dispatch.

    Explicit registration only helps in-process executors; prefer dotted
    ``"module:attribute"`` names for anything that crosses a process
    boundary.
    """
    if name in SCENARIO_FACTORIES:
        raise ValueError(f"{name!r} is already a scenario factory")
    if not callable(runner):
        raise TypeError(f"task runner {name!r} must be callable")
    TASK_RUNNERS[name] = runner


def _resolve_task_runner(name: str):
    runner = TASK_RUNNERS.get(name)
    if runner is not None:
        return runner
    module_name, separator, attribute = name.partition(":")
    if not separator or not module_name or not attribute:
        raise ValueError(
            f"unknown scenario factory {name!r}; available: "
            f"{sorted(SCENARIO_FACTORIES)}, a registered task runner "
            f"({sorted(TASK_RUNNERS)}), or a dotted 'module:attribute' "
            "runner spec"
        )
    module = importlib.import_module(module_name)
    try:
        runner = getattr(module, attribute)
    except AttributeError:
        raise ValueError(
            f"module {module_name!r} has no attribute {attribute!r} "
            f"(from task-runner spec {name!r})"
        ) from None
    if not callable(runner):
        raise ValueError(f"task-runner spec {name!r} is not callable")
    TASK_RUNNERS[name] = runner
    return runner


@dataclass(frozen=True)
class ScenarioTask:
    """One simulate→infer→score trial.

    Attributes:
        group: Caller-chosen bucket (e.g. the sweep-point index) used by
            :func:`pool_errors` to pool trial results.
        factory: Key into :data:`SCENARIO_FACTORIES`.
        factory_kwargs: Scenario parameters (picklable).
        scenario_seed: Child generator driving the scenario draw.
        run_seed: Child generator driving the snapshot simulation.
    """

    group: int
    factory: str
    factory_kwargs: dict = field(default_factory=dict)
    scenario_seed: object = None
    run_seed: object = None


def scenario_tasks(
    factory: str,
    factory_kwargs: dict,
    *,
    n_trials: int,
    seed,
    group: int = 0,
) -> list[ScenarioTask]:
    """Spawn the per-trial child seeds and wrap them as tasks.

    Child-generator layout matches the historical serial driver —
    ``spawn_children(seed, 2 * n_trials)`` with the even streams feeding
    scenario draws and the odd streams feeding simulations — so figures
    regenerated through the engine reproduce the serial results exactly.
    """
    if factory not in SCENARIO_FACTORIES:
        # Raises ValueError (with the available names listed) for
        # anything that is neither a factory nor a resolvable runner.
        _resolve_task_runner(factory)
    rngs = spawn_children(seed, 2 * n_trials)
    return [
        ScenarioTask(
            group=group,
            factory=factory,
            factory_kwargs=dict(factory_kwargs),
            scenario_seed=rngs[2 * trial],
            run_seed=rngs[2 * trial + 1],
        )
        for trial in range(n_trials)
    ]


def resolve_workers(workers: int | None) -> int:
    """Map the public ``workers`` knob to a process count.

    ``1`` means serial in-process execution, ``0`` means one worker per
    CPU, any other positive value is taken literally.  ``None`` defers
    to the ``REPRO_WORKERS`` environment variable (same encoding),
    defaulting to serial when it is unset or empty.

    Negative values — from either source — are rejected here with the
    source named, instead of surfacing later as an opaque
    ``ProcessPoolExecutor`` error deep inside the sweep.
    """
    source = "workers"
    if workers is None:
        source = "the REPRO_WORKERS environment variable"
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    if workers < 0:
        raise ValueError(
            f"{source} must be >= 0 (0 = one worker per CPU core), "
            f"got {workers}"
        )
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _execute_task(
    instance: TomographyInstance,
    config: ExperimentConfig | None,
    options: AlgorithmOptions | None,
    task: ScenarioTask,
) -> dict[str, np.ndarray]:
    if task.factory not in SCENARIO_FACTORIES:
        return _resolve_task_runner(task.factory)(
            instance, config, options, task
        )
    # Generators are stateful: draw from clones so a task list can be
    # executed more than once (serial, parallel, and cache-miss runs
    # then consume identical states and produce identical results).
    scenario = SCENARIO_FACTORIES[task.factory](
        instance,
        seed=clone_generator(task.scenario_seed),
        **task.factory_kwargs,
    )
    comparison = run_comparison(
        instance.topology,
        scenario,
        config=config,
        options=options,
        seed=clone_generator(task.run_seed),
    )
    return comparison.errors


# ----------------------------------------------------------------------
# Packed result transport
# ----------------------------------------------------------------------
def _pack_error_dicts(
    dicts: list[dict[str, np.ndarray]],
) -> tuple[list[list[tuple[str, int]]], np.ndarray]:
    """Flatten per-trial error dicts into one float64 buffer + shapes.

    The descriptor records, per trial, the algorithm names and vector
    lengths in insertion order; the buffer is their concatenation.  One
    ndarray pickle then carries a whole chunk across the process
    boundary (pickle protocol 5 ships it as a single byte buffer)
    instead of one dict-of-arrays pickle per trial.

    Inputs must already be float64: a silent cast here would let the
    pooled transport diverge from what the serial path (and the cache)
    returns, so any other dtype fails loudly instead.
    """
    descriptor = [
        [(name, int(vector.size)) for name, vector in errors.items()]
        for errors in dicts
    ]
    vectors = [
        np.asarray(vector).ravel()
        for errors in dicts
        for vector in errors.values()
    ]
    for vector in vectors:
        if vector.dtype != np.float64:
            raise TypeError(
                "packed transport requires float64 error vectors, got "
                f"{vector.dtype}"
            )
    if vectors:
        buffer = np.concatenate(vectors)
    else:
        buffer = np.empty(0, dtype=np.float64)
    return descriptor, buffer


def _unpack_error_dicts(
    descriptor: list[list[tuple[str, int]]],
    buffer: np.ndarray,
    *,
    copy: bool = True,
) -> list[dict[str, np.ndarray]]:
    """Inverse of :func:`_pack_error_dicts`.

    Per-trial vectors are copied out of the chunk buffer by default: a
    view would pin the whole chunk transport buffer in memory for the
    lifetime of every result that references it (and read-only buffers,
    e.g. ones wrapped from socket bytes, would leak their immutability
    into the results).  Pass ``copy=False`` only when the results are
    consumed before the buffer is dropped.
    """
    dicts: list[dict[str, np.ndarray]] = []
    offset = 0
    for entry in descriptor:
        errors: dict[str, np.ndarray] = {}
        for name, size in entry:
            vector = buffer[offset : offset + size]
            errors[name] = vector.copy() if copy else vector
            offset += size
        dicts.append(errors)
    return dicts


# Worker-process state installed once by the pool initializer: the
# instance/config/options triple is shipped a single time per worker and
# shared read-only by every chunk that worker executes.
_WORKER_STATE: tuple | None = None


def _init_worker(instance, config, options) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (instance, config, options)


def _run_in_worker(task: ScenarioTask) -> dict[str, np.ndarray]:
    """Single-task entry point (the PR-1 per-trial-pickle transport).

    Kept for benchmark baselines; the engine itself submits chunks.
    """
    instance, config, options = _WORKER_STATE
    return _execute_task(instance, config, options, task)


def _run_chunk_in_worker(
    chunk: list[ScenarioTask],
) -> tuple[list[list[tuple[str, int]]], np.ndarray]:
    instance, config, options = _WORKER_STATE
    return _pack_error_dicts(
        [_execute_task(instance, config, options, task) for task in chunk]
    )


def _chunk_tasks(
    tasks: list[ScenarioTask],
    n_workers: int,
    *,
    chunks_per_worker: int = 4,
) -> list[list[ScenarioTask]]:
    """Split the task list into contiguous chunks (~4 per worker).

    Contiguity preserves task order after concatenating chunk results;
    several chunks per worker keep the pool load-balanced when trial
    durations vary (and bound what a dead remote worker can lose).
    """
    chunk_size = max(1, -(-len(tasks) // (chunks_per_worker * n_workers)))
    return [
        tasks[start : start + chunk_size]
        for start in range(0, len(tasks), chunk_size)
    ]


# ----------------------------------------------------------------------
# Executor interface
# ----------------------------------------------------------------------
class ChunkExecutionError(RuntimeError):
    """One or more chunks failed after every chunk settled.

    Raised by an executor's :meth:`TaskExecutor.map_chunks` *after* all
    successful chunks have been yielded, so callers keep (and cache)
    every completed chunk.  ``failures`` maps each failed chunk index to
    the exception (or exception description) that killed it.
    """

    def __init__(
        self, message: str, failures: list[tuple[int, BaseException]]
    ) -> None:
        super().__init__(message)
        self.failures = failures

    @property
    def chunk_indices(self) -> list[int]:
        return [index for index, _ in self.failures]


class ScenarioTaskError(RuntimeError):
    """A sweep lost tasks; ``task_indices`` names them.

    Raised by :func:`run_scenario_tasks` once every chunk has settled:
    results for every *other* chunk were already written back to the
    cache (when one is attached), so a crashed sweep loses at most the
    failing chunks — rerunning it recomputes only those.
    """

    def __init__(self, message: str, task_indices: list[int]) -> None:
        super().__init__(message)
        self.task_indices = task_indices


class TaskExecutor:
    """Strategy for executing chunks of :class:`ScenarioTask` lists.

    ``plan`` splits a task list into the chunks the backend wants to
    schedule.  Chunks must be **contiguous, in-order slices** of the
    input (``chunks[0] + chunks[1] + ... == tasks``): the engine maps
    chunk results back to task indices positionally, so a plan that
    reorders or rebalances tasks would silently mis-assign results
    (``run_scenario_tasks`` verifies the slicing and raises otherwise).
    ``map_chunks`` executes the chunks and yields
    ``(chunk_index, results)`` pairs *as chunks complete*, in any order.
    Implementations must settle every chunk before raising, and raise
    :class:`ChunkExecutionError` listing the chunks that failed — this
    is what lets :func:`run_scenario_tasks` write completed chunks back
    to the cache even when the sweep ultimately errors.
    """

    def plan(self, tasks: list[ScenarioTask]) -> list[list[ScenarioTask]]:
        raise NotImplementedError

    def map_chunks(self, context: tuple, chunks: list[list[ScenarioTask]]):
        raise NotImplementedError


class SerialExecutor(TaskExecutor):
    """In-process execution, one task per chunk (finest write-back)."""

    def plan(self, tasks):
        return [[task] for task in tasks]

    def map_chunks(self, context, chunks):
        instance, config, options = context
        failures: list[tuple[int, BaseException]] = []
        for index, chunk in enumerate(chunks):
            try:
                computed = [
                    _execute_task(instance, config, options, task)
                    for task in chunk
                ]
            except Exception as exc:
                failures.append((index, exc))
                continue
            yield index, computed
        if failures:
            raise ChunkExecutionError(
                f"{len(failures)} of {len(chunks)} serial chunks failed",
                failures,
            ) from failures[0][1]


class LocalExecutor(TaskExecutor):
    """:class:`ProcessPoolExecutor`-backed execution on this host.

    Chunks are submitted as individual futures and yielded as they
    complete (not in submission order), so the caller can write each
    chunk's cache entries back while others are still running; a chunk
    that raises — or a worker process that dies, which breaks the pool
    and fails every still-pending future — costs only the chunks that
    had not completed.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers

    def plan(self, tasks):
        return _chunk_tasks(tasks, self.n_workers)

    def map_chunks(self, context, chunks):
        failures: list[tuple[int, BaseException]] = []
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(chunks)),
            initializer=_init_worker,
            initargs=context,
        ) as pool:
            futures = {
                pool.submit(_run_chunk_in_worker, chunk): index
                for index, chunk in enumerate(chunks)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    descriptor, buffer = future.result()
                except Exception as exc:
                    failures.append((index, exc))
                else:
                    yield index, _unpack_error_dicts(descriptor, buffer)
        if failures:
            failures.sort(key=lambda entry: entry[0])
            raise ChunkExecutionError(
                f"{len(failures)} of {len(chunks)} pooled chunks failed",
                failures,
            ) from failures[0][1]


def _default_executor(workers: int | None, n_tasks: int) -> TaskExecutor:
    """Map the legacy ``workers`` knob onto an executor."""
    n_workers = min(resolve_workers(workers), n_tasks)
    if n_workers <= 1 or n_tasks <= 1:
        return SerialExecutor()
    return LocalExecutor(n_workers)


def run_scenario_tasks(
    instance: TomographyInstance,
    tasks: list[ScenarioTask],
    *,
    config: ExperimentConfig | None = None,
    options: AlgorithmOptions | None = None,
    workers: int | None = None,
    cache=None,
    executor: TaskExecutor | None = None,
    registry: PreparedRegistry | None = None,
) -> list[dict[str, np.ndarray]]:
    """Execute tasks, preserving task order in the result list.

    Each result is the per-algorithm absolute-error dict of one trial
    (:attr:`repro.eval.runner.ComparisonResult.errors`).

    ``executor`` picks the backend: :class:`SerialExecutor`,
    :class:`LocalExecutor`, or
    :class:`repro.eval.dist.RemoteExecutor`.  When omitted, the legacy
    ``workers`` knob resolves to serial or local execution.  Executors
    only change *where* chunks run, never what they return: results are
    bit-identical across backends for the same task list.

    With ``cache`` (a :class:`repro.eval.cache.TrialCache`), tasks whose
    key is already stored load from disk without executing; the rest run
    and are written back atomically *as each chunk completes*, so a
    sweep that dies mid-flight keeps everything it finished.  When a
    chunk fails, the remaining chunks still settle (and are cached)
    before a :class:`ScenarioTaskError` naming the lost task indices is
    raised.

    The cache is also the crash-safe resume path: :meth:`TrialCache.put`
    fsyncs each entry before the chunk counts as settled, so a run whose
    *coordinator* died mid-sweep (SIGKILL, OOM, power loss) reruns
    against the same cache without recomputing settled work and
    finishes bit-identically.

    ``registry`` scopes the prepared-state registry the equation builder
    resolves against for in-process execution (serial chunks); pool and
    dist workers keep their own per-process default registry.  Either
    way results are bit-identical — the registry only changes where the
    measurement-independent prep is cached.
    """
    results: list[dict[str, np.ndarray] | None] = [None] * len(tasks)
    keys: list[str | None] | None = None
    if cache is not None:
        fingerprint = instance_fingerprint(instance)
        # Tasks with a None seed draw fresh entropy on every execution:
        # they are irreproducible, and distinct trials would collide on
        # one key, so they bypass the cache entirely.
        keys = [
            cache.task_key(
                fingerprint, task, config=config, options=options
            )
            if task.scenario_seed is not None and task.run_seed is not None
            else None
            for task in tasks
        ]
        miss_indices = []
        for index, key in enumerate(keys):
            hit = cache.get(key) if key is not None else None
            if hit is None:
                miss_indices.append(index)
            else:
                results[index] = hit
    else:
        miss_indices = list(range(len(tasks)))

    if miss_indices:
        miss_tasks = [tasks[index] for index in miss_indices]
        if executor is None:
            executor = _default_executor(workers, len(miss_tasks))
        chunks = executor.plan(miss_tasks)
        # Chunks must be contiguous in-order slices of miss_tasks; the
        # positional mapping below silently mis-assigns results for any
        # other plan shape, so verify task identity per chunk.
        chunk_to_indices: list[list[int]] = []
        cursor = 0
        for chunk in chunks:
            if any(
                cursor + offset >= len(miss_tasks)
                or chunk[offset] is not miss_tasks[cursor + offset]
                for offset in range(len(chunk))
            ):
                raise ValueError(
                    "executor.plan() must return contiguous in-order "
                    "slices of the task list"
                )
            chunk_to_indices.append(
                miss_indices[cursor : cursor + len(chunk)]
            )
            cursor += len(chunk)
        if cursor != len(miss_tasks):
            raise ValueError(
                "executor.plan() must partition the task list"
            )

        def _settle(chunk_index: int, errors_list) -> None:
            for index, errors in zip(
                chunk_to_indices[chunk_index], errors_list
            ):
                results[index] = errors
                if cache is not None and keys[index] is not None:
                    cache.put(keys[index], errors)

        context = (instance, config, options)
        try:
            with use_registry(registry):
                for chunk_index, errors_list in executor.map_chunks(
                    context, chunks
                ):
                    _settle(chunk_index, errors_list)
        except ChunkExecutionError as exc:
            lost = sorted(
                index
                for chunk_index in exc.chunk_indices
                for index in chunk_to_indices[chunk_index]
            )
            raise ScenarioTaskError(
                f"sweep lost {len(lost)} of {len(tasks)} tasks "
                f"(indices {lost}); completed chunks were retained"
                + (" in the cache" if cache is not None else "")
                + f": {exc}",
                lost,
            ) from exc
    return results


def pool_errors(
    tasks: list[ScenarioTask],
    results: list[dict[str, np.ndarray]],
    n_groups: int,
) -> list[dict[str, np.ndarray]]:
    """Concatenate per-trial error vectors per task group.

    Trials pool in task order within each group, matching the historical
    serial accumulation: a stable sort by group index yields the
    group-major trial order, and each algorithm's vectors concatenate
    once and split at the per-group boundaries — no per-trial Python
    appends.
    """
    if n_groups < 0:
        raise ValueError(f"n_groups must be >= 0, got {n_groups}")
    pooled: list[dict[str, np.ndarray]] = [{} for _ in range(n_groups)]
    if not tasks:
        return pooled
    groups = np.fromiter(
        (task.group for task in tasks), dtype=np.int64, count=len(tasks)
    )
    # Out-of-range groups would either crash deep inside the bincount /
    # split plumbing (negative) or silently drop trials past the last
    # group (>= n_groups); reject them up front with the offending
    # values named.
    out_of_range = (groups < 0) | (groups >= n_groups)
    if out_of_range.any():
        bad = sorted(set(groups[out_of_range].tolist()))
        raise ValueError(
            f"task group indices must lie in [0, {n_groups}); "
            f"got out-of-range group(s) {bad}"
        )
    order = np.argsort(groups, kind="stable")
    names: list[str] = []
    seen: set[str] = set()
    for errors in results:
        for name in errors:
            if name not in seen:
                seen.add(name)
                names.append(name)
    for name in names:
        indices = np.array(
            [index for index in order if name in results[index]],
            dtype=np.int64,
        )
        if indices.size == 0:
            continue
        lengths = np.fromiter(
            (results[index][name].size for index in indices),
            dtype=np.int64,
            count=indices.size,
        )
        per_group = np.bincount(
            groups[indices], weights=lengths, minlength=n_groups
        ).astype(np.int64)
        trials_per_group = np.bincount(
            groups[indices], minlength=n_groups
        )
        values = np.concatenate(
            [results[index][name] for index in indices]
        )
        pieces = np.split(values, np.cumsum(per_group)[:-1])
        for group, piece in enumerate(pieces):
            if trials_per_group[group]:
                pooled[group][name] = piece
    return pooled
