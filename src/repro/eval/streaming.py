"""Detection latency vs probe rate: the streaming-tomography figure.

The new scenario family unlocked by the streaming engine: a scripted
congestion *onset* fires partway through a probe stream, and the question
is how quickly the per-window verdicts catch it.  The probe rate sets the
snapshots collected per unit time; the estimator re-infers once per time
unit (one window), so higher rates mean better-conditioned windows — the
figure plots mean detection latency (in windows since onset) against the
probe rate.

Each ``(probe rate, trial)`` pair is one :class:`ScenarioTask` executed
through the existing :class:`~repro.eval.parallel.TaskExecutor` backends
via the dotted task-runner spec :data:`DETECTION_RUNNER`, so the sweep
parallelises (and caches, distributes) exactly like the batch
figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.prepared import PreparedRegistry
from repro.core.streaming import StreamingTomography
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.eval.scenario import make_clustered_scenario, resolve_per_set_range
from repro.model.loss import LossModel
from repro.simulate.observations import PathObservations
from repro.simulate.probes import PathProber, ProbeConfig
from repro.simulate.stream import LinkStateTimeline, SnapshotStream, StreamEvent
from repro.topogen.instance import TomographyInstance
from repro.utils.rng import clone_generator, spawn_children
from repro.utils.tables import format_table

__all__ = [
    "DETECTION_RUNNER",
    "DetectionPoint",
    "DetectionLatencyResult",
    "run_detection_task",
    "detection_latency_tasks",
    "detection_latency_sweep",
    "render_detection_latency",
]

#: Dotted runner spec for the scenario engine (resolved on workers too).
DETECTION_RUNNER = "repro.eval.streaming:run_detection_task"


def run_detection_task(instance, config, options, task) -> dict:
    """One streaming trial: scripted onset, per-window detection scoring.

    ``factory_kwargs``: ``probe_rate`` (snapshots per window),
    ``n_windows``, ``onset_after`` (quiet windows before the onset),
    ``packets_per_path``, ``congested_fraction`` / ``per_set_range``
    (background scenario), ``n_onset_links``, ``threshold``.

    Returns float64 vectors only (executor-transport requirement):
    the chosen onset link ids, a 0/1 detected flag and the per-link
    latency in windows (NaN when never detected), plus a false-alarm
    count over links outside both the background scenario and the onset
    set.
    """
    kwargs = dict(task.factory_kwargs)
    probe_rate = int(kwargs.pop("probe_rate"))
    n_windows = int(kwargs.pop("n_windows"))
    onset_after = int(kwargs.pop("onset_after"))
    packets = kwargs.pop("packets_per_path")
    packets = None if packets is None else int(packets)
    congested_fraction = float(kwargs.pop("congested_fraction"))
    per_set_range = resolve_per_set_range(kwargs.pop("per_set_range"))
    n_onset_links = int(kwargs.pop("n_onset_links"))
    threshold = float(kwargs.pop("threshold"))
    if kwargs:
        raise ValueError(
            f"unexpected detection task parameters {sorted(kwargs)}"
        )
    if not 0 <= onset_after < n_windows:
        raise ValueError(
            f"onset_after {onset_after} outside 0..{n_windows - 1}"
        )

    scenario = make_clustered_scenario(
        instance,
        congested_fraction=congested_fraction,
        per_set_range=per_set_range,
        seed=clone_generator(task.scenario_seed),
    )
    rng = clone_generator(task.run_seed)

    # Onset targets: quiet links the background scenario never congests,
    # so any detection is attributable to the scripted event.
    quiet = np.array(
        sorted(
            set(range(instance.topology.n_links)) - scenario.congested_links
        ),
        dtype=np.int64,
    )
    if quiet.size < n_onset_links:
        raise ValueError(
            f"scenario leaves only {quiet.size} quiet links; cannot "
            f"script an onset on {n_onset_links}"
        )
    onset_links = np.sort(
        rng.choice(quiet, size=n_onset_links, replace=False)
    )
    onset_snapshot = onset_after * probe_rate
    timeline = LinkStateTimeline(
        [
            StreamEvent(
                kind="onset",
                at=onset_snapshot,
                links=tuple(int(k) for k in onset_links),
            )
        ]
    )
    stream = SnapshotStream(
        scenario.truth_model,
        LossModel(),
        PathProber(
            instance.topology, ProbeConfig(packets_per_path=packets)
        ),
        window_size=probe_rate,
        timeline=timeline,
        rng=rng,
    )
    engine = StreamingTomography(
        instance.topology,
        scenario.algorithm_correlation,
        options=options,
        threshold=threshold,
    )

    background = np.zeros(instance.topology.n_links, dtype=bool)
    background[sorted(scenario.congested_links)] = True
    targets = np.zeros(instance.topology.n_links, dtype=bool)
    targets[onset_links] = True

    latency = np.full(n_onset_links, np.nan, dtype=np.float64)
    false_alarms = 0.0
    observations = None
    for window in stream.windows(n_windows):
        if observations is None:
            observations = PathObservations(window.path_states)
        else:
            observations.append_window(window.path_states)
        verdict = engine.update(observations)
        if window.index >= onset_after:
            undetected = np.isnan(latency)
            hit = verdict.congested[onset_links] & undetected
            latency[hit] = window.index - onset_after + 1
        false_alarms += float(
            (verdict.congested & ~background & ~targets).sum()
        )
    detected = (~np.isnan(latency)).astype(np.float64)
    return {
        "probe_rate": np.array([float(probe_rate)]),
        "onset_links": onset_links.astype(np.float64),
        "detected": detected,
        "latency_windows": latency,
        "false_alarm_link_windows": np.array([false_alarms]),
    }


def detection_latency_tasks(
    probe_rates,
    *,
    n_windows: int,
    onset_after: int,
    packets_per_path,
    congested_fraction: float,
    per_set_range,
    n_onset_links: int,
    threshold: float,
    n_trials: int,
    seed,
) -> list:
    """The sweep's task list: one group per probe rate."""
    sweep_rngs = spawn_children(seed, len(probe_rates))
    tasks = []
    for group, (rate, rng) in enumerate(zip(probe_rates, sweep_rngs)):
        tasks.extend(
            scenario_tasks(
                DETECTION_RUNNER,
                dict(
                    probe_rate=int(rate),
                    n_windows=n_windows,
                    onset_after=onset_after,
                    packets_per_path=packets_per_path,
                    congested_fraction=congested_fraction,
                    per_set_range=per_set_range,
                    n_onset_links=n_onset_links,
                    threshold=threshold,
                ),
                n_trials=n_trials,
                seed=rng,
                group=group,
            )
        )
    return tasks


@dataclass(frozen=True)
class DetectionPoint:
    """One probe rate's pooled detection statistics.

    Attributes:
        probe_rate: Snapshots per window at this x-axis point.
        detection_fraction: Fraction of (trial, onset link) pairs ever
            detected within the stream.
        mean_latency: Mean windows-to-detect over the detected pairs
            (NaN when nothing was detected).
        p90_latency: 90th-percentile windows-to-detect.
        false_alarm_rate: Mean false-alarm link-windows per window.
    """

    probe_rate: int
    detection_fraction: float
    mean_latency: float
    p90_latency: float
    false_alarm_rate: float


@dataclass(frozen=True)
class DetectionLatencyResult:
    """The detection-latency-vs-probe-rate series plus metadata."""

    points: tuple[DetectionPoint, ...]
    metadata: dict


def detection_latency_sweep(
    instance: TomographyInstance,
    *,
    probe_rates=(10, 20, 40, 80),
    n_windows: int = 12,
    onset_after: int = 4,
    packets_per_path=800,
    congested_fraction: float = 0.05,
    per_set_range="high",
    n_onset_links: int = 2,
    threshold: float = 0.5,
    n_trials: int = 3,
    options: AlgorithmOptions | None = None,
    seed=0,
    workers: int | None = None,
    cache=None,
    executor=None,
    registry: PreparedRegistry | None = None,
) -> DetectionLatencyResult:
    """The streaming figure: detection latency vs probe rate.

    Every ``(rate, trial)`` pair is one task; backends and caching
    compose exactly as for the batch figures.
    """
    tasks = detection_latency_tasks(
        probe_rates,
        n_windows=n_windows,
        onset_after=onset_after,
        packets_per_path=packets_per_path,
        congested_fraction=congested_fraction,
        per_set_range=per_set_range,
        n_onset_links=n_onset_links,
        threshold=threshold,
        n_trials=n_trials,
        seed=seed,
    )
    results = run_scenario_tasks(
        instance,
        tasks,
        options=options,
        workers=workers,
        cache=cache,
        executor=executor,
        registry=registry,
    )
    points = []
    for group, rate in enumerate(probe_rates):
        latencies, detected, alarms = [], [], []
        for task, result in zip(tasks, results):
            if task.group != group:
                continue
            latencies.append(result["latency_windows"])
            detected.append(result["detected"])
            alarms.append(
                float(result["false_alarm_link_windows"][0]) / n_windows
            )
        latency = np.concatenate(latencies)
        hit = np.concatenate(detected) > 0
        detected_latency = latency[hit]
        points.append(
            DetectionPoint(
                probe_rate=int(rate),
                detection_fraction=float(hit.mean()),
                mean_latency=(
                    float(detected_latency.mean()) if hit.any() else float("nan")
                ),
                p90_latency=(
                    float(np.percentile(detected_latency, 90))
                    if hit.any()
                    else float("nan")
                ),
                false_alarm_rate=float(np.mean(alarms)),
            )
        )
    return DetectionLatencyResult(
        points=tuple(points),
        metadata={
            "n_windows": n_windows,
            "onset_after": onset_after,
            "n_trials": n_trials,
            "n_onset_links": n_onset_links,
            "threshold": threshold,
            "congested_fraction": congested_fraction,
            "packets_per_path": packets_per_path,
            "n_links": instance.n_links,
            "n_paths": instance.n_paths,
        },
    )


def render_detection_latency(
    result: DetectionLatencyResult, *, title: str = ""
) -> str:
    """Render the detection-latency series as an aligned table."""
    rows = [
        [
            point.probe_rate,
            point.detection_fraction,
            point.mean_latency,
            point.p90_latency,
            point.false_alarm_rate,
        ]
        for point in result.points
    ]
    return format_table(
        [
            "probe rate",
            "detected",
            "mean latency",
            "p90 latency",
            "false alarms/win",
        ],
        rows,
        title=title
        or "Streaming figure: detection latency (windows) vs probe rate",
    )
