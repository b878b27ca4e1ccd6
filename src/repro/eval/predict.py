"""Risk vs shift magnitude: the what-if figure.

How does predicted congestion risk grow as a demand shift scales up?
Each ``(scale, trial)`` pair is one :class:`ScenarioTask` executed
through the existing :class:`~repro.eval.parallel.TaskExecutor`
backends via the dotted runner spec
:data:`repro.predict.tasks.WHATIF_RUNNER` — the same runner the
``predict`` CLI command and the service ``/whatif`` endpoint execute —
so the sweep parallelises (and caches, distributes) exactly
like the batch figures.  The figure plots, per scale: how many links
cross the risk threshold, and the maximum / mean combined risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.prepared import PreparedRegistry
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.predict.demand import DemandMatrix
from repro.predict.tasks import WHATIF_RUNNER
from repro.topogen.instance import TomographyInstance
from repro.utils.rng import spawn_children
from repro.utils.tables import format_table

__all__ = [
    "RiskShiftPoint",
    "RiskShiftResult",
    "risk_shift_tasks",
    "risk_shift_sweep",
    "render_risk_shift",
]


def risk_shift_tasks(
    scales,
    *,
    demand: dict,
    utilization_threshold: float,
    exact_max_flows: int,
    mc_samples: int,
    congested_fraction: float,
    per_set_range,
    n_snapshots: int,
    packets_per_path,
    n_trials: int,
    seed,
) -> list:
    """The sweep's task list: one group per shift scale.

    Every task carries a single uniform shift (``scale-<x>``) so the
    runner's ``shift0_*`` vectors are that scale's forecast.
    """
    sweep_rngs = spawn_children(seed, len(scales))
    tasks = []
    for group, (scale, rng) in enumerate(zip(scales, sweep_rngs)):
        tasks.extend(
            scenario_tasks(
                WHATIF_RUNNER,
                dict(
                    demand=demand,
                    shifts=[
                        {"name": f"scale-{float(scale):g}", "scale": float(scale)}
                    ],
                    utilization_threshold=utilization_threshold,
                    exact_max_flows=exact_max_flows,
                    mc_samples=mc_samples,
                    congested_fraction=congested_fraction,
                    per_set_range=per_set_range,
                    n_snapshots=n_snapshots,
                    packets_per_path=packets_per_path,
                ),
                n_trials=n_trials,
                seed=rng,
                group=group,
            )
        )
    return tasks


@dataclass(frozen=True)
class RiskShiftPoint:
    """One scale's pooled risk statistics.

    Attributes:
        scale: The uniform demand multiplier at this x-axis point.
        links_at_risk: Mean number of links whose combined risk crosses
            ``risk_threshold``.
        max_risk: Mean (over trials) of the maximum combined risk.
        mean_risk: Mean combined risk over all links and trials.
        mean_predicted: Mean predicted-only (demand) risk, isolating
            the shift's contribution from the inferred current state.
    """

    scale: float
    links_at_risk: float
    max_risk: float
    mean_risk: float
    mean_predicted: float


@dataclass(frozen=True)
class RiskShiftResult:
    """The risk-vs-shift-magnitude series plus metadata."""

    points: tuple[RiskShiftPoint, ...]
    metadata: dict


def risk_shift_sweep(
    instance: TomographyInstance,
    demand,
    *,
    scales=(1.0, 1.25, 1.5, 2.0),
    risk_threshold: float = 0.5,
    utilization_threshold: float = 0.85,
    exact_max_flows: int = 16,
    mc_samples: int = 20_000,
    congested_fraction: float = 0.10,
    per_set_range="high",
    n_snapshots: int = 120,
    packets_per_path=400,
    n_trials: int = 3,
    options: AlgorithmOptions | None = None,
    seed=0,
    workers: int | None = None,
    cache=None,
    executor=None,
    registry: PreparedRegistry | None = None,
) -> RiskShiftResult:
    """The what-if figure: combined congestion risk vs shift magnitude.

    ``demand`` is a :class:`~repro.predict.demand.DemandMatrix` or its
    payload dict; its own named shifts are ignored — the sweep imposes
    one uniform ``scale-<x>`` shift per x-axis point.  Every
    ``(scale, trial)`` pair is one task; backends and caching
    compose exactly as for the batch figures.
    """
    if isinstance(demand, DemandMatrix):
        demand = demand.to_payload()
    demand = dict(demand)
    demand.pop("shifts", None)
    # Resolve early so binding errors surface here, not inside workers.
    DemandMatrix.from_payload(demand).resolve(instance.topology)
    tasks = risk_shift_tasks(
        scales,
        demand=demand,
        utilization_threshold=utilization_threshold,
        exact_max_flows=exact_max_flows,
        mc_samples=mc_samples,
        congested_fraction=congested_fraction,
        per_set_range=per_set_range,
        n_snapshots=n_snapshots,
        packets_per_path=packets_per_path,
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
    for group, scale in enumerate(scales):
        at_risk, max_risk, mean_risk, mean_predicted = [], [], [], []
        for task, result in zip(tasks, results):
            if task.group != group:
                continue
            combined = result["shift0_combined"]
            at_risk.append(float((combined > risk_threshold).sum()))
            max_risk.append(float(combined.max()))
            mean_risk.append(float(combined.mean()))
            mean_predicted.append(float(result["shift0_predicted"].mean()))
        points.append(
            RiskShiftPoint(
                scale=float(scale),
                links_at_risk=float(np.mean(at_risk)),
                max_risk=float(np.mean(max_risk)),
                mean_risk=float(np.mean(mean_risk)),
                mean_predicted=float(np.mean(mean_predicted)),
            )
        )
    return RiskShiftResult(
        points=tuple(points),
        metadata={
            "risk_threshold": risk_threshold,
            "utilization_threshold": utilization_threshold,
            "exact_max_flows": exact_max_flows,
            "mc_samples": mc_samples,
            "n_trials": n_trials,
            "n_snapshots": n_snapshots,
            "packets_per_path": packets_per_path,
            "congested_fraction": congested_fraction,
            "n_links": instance.n_links,
            "n_paths": instance.n_paths,
            "n_flows": len(demand.get("flows", [])),
        },
    )


def render_risk_shift(result: RiskShiftResult, *, title: str = "") -> str:
    """Render the risk-vs-shift series as an aligned table."""
    rows = [
        [
            f"{point.scale:g}",
            f"{point.links_at_risk:.1f}",
            f"{point.max_risk:.4f}",
            f"{point.mean_risk:.4f}",
            f"{point.mean_predicted:.4f}",
        ]
        for point in result.points
    ]
    return format_table(
        [
            "shift scale",
            "links at risk",
            "max risk",
            "mean risk",
            "mean shift risk",
        ],
        rows,
        title=title
        or (
            "What-if figure: combined congestion risk vs demand shift "
            f"magnitude (risk > {result.metadata['risk_threshold']:g})"
        ),
    )
