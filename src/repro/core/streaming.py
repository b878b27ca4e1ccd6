"""The equation template and the window-incremental streaming engine.

With the paper's ``"independent"`` selection (and with ``"all"``),
*which* Section-4 rows are accepted depends only on the topology, the
correlation structure and the options — acceptance is decided by rank
tracking over rows derived from path link-id sets, never by the
measured values.  The accepted row **structure** is therefore built
once and every inference pays only for its values:

* :class:`EquationTemplate` runs the rank-tracked row selection a single
  time, caches the assembled CSR matrix and the per-row value sources
  (path id for Eq.-9 rows, path pair for Eq.-10 rows), and thereafter
  gathers only the right-hand-side vector ``y`` from fresh measurements
  plus one solve.  :class:`~repro.core.prepared.PreparedTopology` caches
  one template per :class:`AlgorithmOptions`, and every consumer —
  :func:`~repro.core.correlation_algorithm.infer_congestion`,
  :func:`~repro.core.equations.build_equations`, the tomographer front
  ends and the streaming engine below — reads through it.
* :class:`StreamingTomography` wraps the template with per-window change
  detection: boolean verdicts against a probability threshold, onset /
  clear diffs between consecutive windows with their event timestamps,
  and optional MAP localization of the newest snapshot.

Used by the ``stream`` CLI subcommand, the ``/stream`` service endpoint,
and the detection-latency evaluation in :mod:`repro.eval.streaming`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.correlation import CorrelationStructure
from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.interfaces import PathGoodProvider, batch_provider
from repro.core.localization import LocalizationResult, localize_map
from repro.core.prepared import (
    PreparedRegistry,
    PreparedTopology,
    _incidence_matrix,
    _row_vector,
    get_prepared,
)
from repro.core.results import InferenceResult
from repro.core.solvers import solve
from repro.core.topology import Topology
from repro.exceptions import SolverError
from repro.utils.rng import as_generator

__all__ = ["EquationTemplate", "WindowVerdict", "StreamingTomography"]


def _accepted_pairs(
    prep: PreparedTopology, options: AlgorithmOptions
) -> tuple[list[tuple[int, int]], list[frozenset], int]:
    """The Eq.-10 rows the selection keeps, their link sets and the
    final rank (paper Section 4, rank-tracked pair examination)."""
    topology = prep.topology
    n_links = topology.n_links
    keep_all = options.selection == "all"
    tracker = prep.clone_tracker()
    pairs: list[tuple[int, int]] = []
    link_sets: list[frozenset] = []
    if tracker.rank >= n_links and not keep_all:
        return pairs, link_sets, tracker.rank
    cap = options.max_pair_candidates
    candidates = prep.candidates
    pair_eligible = prep.pair_eligible
    # The prefilter is skipped when the candidate cap binds (dropped rows
    # would otherwise still count as "examined") and in "all" mode, which
    # keeps dependent rows.
    use_prefilter = not keep_all and 0 < candidates.shape[0] <= cap
    keep = ~prep.dependent_mask() if use_prefilter else None
    if options.pair_order_seed is not None:
        # Permute the FULL candidate list, then drop the provably
        # dependent rows: skipping them leaves the tracker unchanged, so
        # acceptance matches examining every candidate in this order.
        order = as_generator(options.pair_order_seed).permutation(
            candidates.shape[0]
        )
        candidates = candidates[order]
        pair_eligible = pair_eligible[order]
        if keep is not None:
            keep = keep[order]
    if keep is not None:
        candidates = candidates[keep]
        pair_eligible = pair_eligible[keep]
    for index in range(min(candidates.shape[0], cap)):
        if not keep_all and tracker.rank >= n_links:
            break
        if not pair_eligible[index]:
            continue
        path_a, path_b = int(candidates[index, 0]), int(candidates[index, 1])
        link_ids = frozenset(topology.paths[path_a].link_ids) | frozenset(
            topology.paths[path_b].link_ids
        )
        added = tracker.try_add(_row_vector(link_ids, n_links))
        if keep_all or added:
            pairs.append((path_a, path_b))
            link_sets.append(link_ids)
    return pairs, link_sets, tracker.rank


@dataclass(frozen=True)
class EquationTemplate:
    """The measurement-independent half of one equation system.

    Rows are the accepted Eq.-9 single-path rows (in eligible-path order)
    followed by the accepted Eq.-10 pair rows (in acceptance order).
    Build once per ``(topology, correlation, options)`` — normally
    through :meth:`PreparedTopology.template`, which caches it — then
    :meth:`infer` gathers only the ``y`` vector and solves.
    """

    topology: Topology
    options: AlgorithmOptions
    matrix: object  # scipy.sparse.csr_matrix, rows × links
    single_paths: np.ndarray
    pair_array: np.ndarray
    link_sets: tuple[frozenset, ...]
    rank: int
    eligible_paths: tuple[int, ...]
    uncovered_links: frozenset[int]

    @classmethod
    def build(
        cls,
        topology: Topology,
        correlation: CorrelationStructure,
        *,
        options: AlgorithmOptions | None = None,
        prepared: PreparedTopology | None = None,
        registry: PreparedRegistry | None = None,
    ) -> "EquationTemplate":
        """Select the accepted rows for this instance (uncached)."""
        options = options or AlgorithmOptions()
        prep = get_prepared(
            topology, correlation, registry=registry, prepared=prepared
        )
        keep_all = options.selection == "all"
        singles = [
            (path_id, link_ids)
            for path_id, link_ids, added in prep.singles
            if keep_all or added
        ]
        pairs, pair_sets, rank = _accepted_pairs(prep, options)
        link_sets = tuple(link_ids for _, link_ids in singles) + tuple(
            pair_sets
        )
        n_links = topology.n_links
        covered = frozenset().union(*link_sets)
        return cls(
            topology=topology,
            options=options,
            matrix=_incidence_matrix(link_sets, n_links),
            single_paths=np.array(
                [path_id for path_id, _ in singles], dtype=np.int64
            ),
            pair_array=np.array(pairs, dtype=np.int64).reshape(-1, 2),
            link_sets=link_sets,
            rank=rank,
            eligible_paths=prep.eligible,
            uncovered_links=frozenset(range(n_links)) - covered,
        )

    @property
    def n_single(self) -> int:
        return int(self.single_paths.size)

    @property
    def n_pair(self) -> int:
        return int(self.pair_array.shape[0])

    @property
    def n_rows(self) -> int:
        return len(self.link_sets)

    @property
    def fully_determined(self) -> bool:
        """True when the accepted rows reach full column rank."""
        return self.rank >= self.topology.n_links

    def values(self, measurements: PathGoodProvider) -> np.ndarray:
        """The right-hand side ``y`` for one batch of measurements.

        One ``log_good_all`` gather for the single rows and one
        ``log_good_pairs`` call over the accepted pairs only.
        """
        n_paths = self.topology.n_paths
        provider = batch_provider(measurements, n_paths)
        singles = np.asarray(provider.log_good_all(), dtype=np.float64)
        if singles.shape != (n_paths,):
            raise ValueError(
                f"log_good_all returned shape {singles.shape}, expected "
                f"({n_paths},)"
            )
        y = singles[self.single_paths]
        if self.n_pair:
            pairs = provider.log_good_pairs(self.pair_array)
            y = np.concatenate([y, np.asarray(pairs, dtype=np.float64)])
        return y

    def infer(
        self,
        measurements: PathGoodProvider,
        *,
        algorithm_label: str = "correlation",
    ) -> InferenceResult:
        """One inference over the cached structure: gather ``y``, solve
        (exactly at full rank, by L1-error minimisation otherwise) and
        convert to congestion probabilities."""
        if not self.n_rows:
            raise SolverError(
                "no equations could be formed: every path involves "
                "correlated links"
            )
        values = self.values(measurements)
        solution, solver_used = solve(
            self.matrix, values, method=self.options.solver
        )
        # Solution entries are log-probabilities and the solver enforces
        # <= 0, but round-off can leave tiny positive values.
        solution = np.minimum(solution, 0.0)
        probabilities = np.clip(1.0 - np.exp(solution), 0.0, 1.0)
        return InferenceResult(
            algorithm=algorithm_label,
            congestion_probabilities=probabilities,
            log_good=solution,
            uncovered_links=self.uncovered_links,
            n_single_equations=self.n_single,
            n_pair_equations=self.n_pair,
            rank=self.rank,
            solver=solver_used,
            diagnostics={
                "n_eligible_paths": len(self.eligible_paths),
                "n_links": self.topology.n_links,
                "fully_determined": self.fully_determined,
            },
        )


@dataclass(frozen=True)
class WindowVerdict:
    """One window's re-emitted estimates plus the change-detection diff.

    Attributes:
        window_index: Sequence number of the update (0-based).
        timestamp: Global snapshot index just past the window (evicted
            history included), i.e. the event time of this verdict.
        n_snapshots: Surviving history size the estimate used.
        result: The full inference result (analog estimates).
        congested: Boolean per-link verdicts
            (``probability > threshold``).
        onsets: Link ids newly flagged congested this window.
        clears: Link ids newly flagged good this window.
        changed: Whether any verdict flipped since the last window.
        localization: MAP explanation of the newest snapshot, when
            requested.
    """

    window_index: int
    timestamp: int
    n_snapshots: int
    result: InferenceResult
    congested: np.ndarray
    onsets: tuple[int, ...]
    clears: tuple[int, ...]
    changed: bool
    localization: LocalizationResult | None = None

    @property
    def probabilities(self) -> np.ndarray:
        """Analog per-link estimates (alias into ``result``)."""
        return self.result.congestion_probabilities


class StreamingTomography:
    """Per-window incremental inference with change detection.

    Feed each window's accumulated observations to :meth:`update`; the
    equation structure is built once (reusing the
    :class:`PreparedTopology` prep) and each window pays only the value
    gather, the solve, and the verdict diff.

    Args:
        topology: The measurement topology.
        correlation: Known correlation structure.
        options: Algorithm knobs; defaults follow the paper.
        threshold: Probability above which a link is flagged congested.
        localize_last: Also MAP-localize the newest snapshot per window
            (requires observations with ``congested_mask_of_snapshot``).
        registry: Prepared-state registry; ``None`` uses the ambient one.
    """

    def __init__(
        self,
        topology: Topology,
        correlation: CorrelationStructure,
        *,
        options: AlgorithmOptions | None = None,
        threshold: float = 0.5,
        localize_last: bool = False,
        registry: PreparedRegistry | None = None,
        algorithm_label: str = "correlation",
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside [0, 1]")
        self._topology = topology
        self._correlation = correlation
        self._options = options or AlgorithmOptions()
        self._threshold = threshold
        self._localize_last = localize_last
        self._registry = registry
        self._algorithm_label = algorithm_label
        self._prepared: PreparedTopology | None = None
        self._previous: np.ndarray | None = None
        self._window_index = 0

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def window_index(self) -> int:
        """Number of windows consumed so far."""
        return self._window_index

    def prepare(self) -> PreparedTopology:
        """Warm (and pin) the measurement-independent prepared state."""
        if self._prepared is None:
            self._prepared = get_prepared(
                self._topology, self._correlation, registry=self._registry
            )
        return self._prepared

    def template(self) -> EquationTemplate:
        """The cached equation structure (built on first use)."""
        return self.prepare().template(self._options)

    def update(self, observations: PathGoodProvider) -> WindowVerdict:
        """Infer over the current history and diff against last window."""
        result = self.template().infer(
            observations, algorithm_label=self._algorithm_label
        )
        congested = result.congestion_probabilities > self._threshold
        congested.flags.writeable = False
        previous = self._previous
        if previous is None:
            previous = np.zeros_like(congested)
        onsets = tuple(int(k) for k in np.flatnonzero(congested & ~previous))
        clears = tuple(int(k) for k in np.flatnonzero(~congested & previous))
        localization = None
        if self._localize_last and hasattr(
            observations, "congested_mask_of_snapshot"
        ):
            mask = observations.congested_mask_of_snapshot(
                observations.n_snapshots - 1
            )
            localization = localize_map(
                self._topology,
                mask,
                result.congestion_probabilities,
                on_infeasible="trim",
            )
        timestamp = getattr(observations, "n_evicted", 0) + int(
            observations.n_snapshots
        )
        verdict = WindowVerdict(
            window_index=self._window_index,
            timestamp=timestamp,
            n_snapshots=int(observations.n_snapshots),
            result=result,
            congested=congested,
            onsets=onsets,
            clears=clears,
            changed=bool(onsets or clears),
            localization=localization,
        )
        self._previous = congested
        self._window_index += 1
        return verdict
