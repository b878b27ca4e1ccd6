"""The practical correlation algorithm (paper Section 4).

Pipeline: identify correlation-free paths and path pairs, form the linear
system over ``x_k = log P(X_ek = 0)`` (Eqs. 9–10), solve — exactly when
``N1 + N2 = |E|`` equations of full rank were gathered, by L1-error
minimisation otherwise — and convert to congestion probabilities
``P(X_ek = 1) = 1 − e^{x_k}``.

Unlike the theorem algorithm, the amount of computation depends only on
the number of links, never on ``|C̃|``; this is the algorithm evaluated in
the paper's Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.correlation import CorrelationStructure
from repro.core.interfaces import PathGoodProvider
from repro.core.prepared import PreparedRegistry, PreparedTopology, get_prepared
from repro.core.results import InferenceResult
from repro.core.solvers import SOLVERS
from repro.core.topology import Topology

__all__ = ["AlgorithmOptions", "CorrelationTomography", "infer_congestion"]


@dataclass(frozen=True)
class AlgorithmOptions:
    """Tuning knobs of the practical algorithm.

    The options are the cache key of the equation structure (see
    :meth:`~repro.core.prepared.PreparedTopology.template`), so they are
    validated here: an unknown value would otherwise be cached under a
    key that means nothing, and a ``Generator`` seed would be consumed
    differently on every build.

    Attributes:
        selection: ``"independent"`` keeps only rank-increasing equations
            (the paper's formulation); ``"all"`` keeps every eligible row
            for noise averaging.
        solver: ``"l1"`` (paper), ``"least_squares"``, ``"min_norm"``,
            or ``"auto"``.
        max_pair_candidates: Bound on examined path pairs.
        pair_order_seed: Integer shuffle seed for the pair examination
            order; ``None`` keeps generation order.
    """

    selection: str = "independent"
    solver: str = "l1"
    max_pair_candidates: int = 200_000
    pair_order_seed: int | None = 0

    def __post_init__(self) -> None:
        if self.selection not in ("independent", "all"):
            raise ValueError(
                "selection must be 'independent' or 'all', got "
                f"{self.selection!r}"
            )
        if self.solver != "auto" and self.solver not in SOLVERS:
            raise ValueError(
                f"unknown solver {self.solver!r}; available: "
                f"{sorted([*SOLVERS, 'auto'])}"
            )
        seed = self.pair_order_seed
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise TypeError(
                "pair_order_seed must be an int or None, got "
                f"{type(seed).__name__}"
            )


def infer_congestion(
    topology: Topology,
    correlation: CorrelationStructure,
    measurements: PathGoodProvider,
    *,
    options: AlgorithmOptions | None = None,
    algorithm_label: str = "correlation",
    prepared: PreparedTopology | None = None,
    registry: PreparedRegistry | None = None,
) -> InferenceResult:
    """Run the Section-4 algorithm end to end.

    The equation structure comes from the prepared state's cached
    :class:`~repro.core.streaming.EquationTemplate` for ``options``
    (built on first use); each call gathers the measured values and
    solves.

    Args:
        topology: The measurement topology.
        correlation: Known correlation sets.  Passing
            ``CorrelationStructure.trivial(topology)`` yields the
            independence baseline (see
            :mod:`repro.core.independence_algorithm`).
        measurements: Log-good probability provider (empirical estimator
            or exact oracle).
        options: Algorithm knobs; defaults follow the paper.
        algorithm_label: Recorded in the result for reporting.
        prepared: Pre-built measurement-independent state (skips the
            registry lookup entirely).
        registry: Prepared-state registry to resolve against; ``None``
            uses the ambient/default registry.
    """
    prep = get_prepared(
        topology, correlation, registry=registry, prepared=prepared
    )
    return prep.template(options or AlgorithmOptions()).infer(
        measurements, algorithm_label=algorithm_label
    )


class CorrelationTomography:
    """Object-style front-end binding a topology and correlation structure.

    Useful when many measurement batches are inferred against the same
    instance (e.g. the sweep drivers in :mod:`repro.eval.figures`).
    """

    def __init__(
        self,
        topology: Topology,
        correlation: CorrelationStructure,
        *,
        options: AlgorithmOptions | None = None,
    ) -> None:
        self._topology = topology
        self._correlation = correlation
        self._options = options or AlgorithmOptions()
        self._prepared: PreparedTopology | None = None

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def correlation(self) -> CorrelationStructure:
        return self._correlation

    def prepare(self) -> PreparedTopology:
        """Warm (and pin) the measurement-independent prepared state."""
        if self._prepared is None:
            self._prepared = get_prepared(self._topology, self._correlation)
        return self._prepared

    def infer(self, measurements: PathGoodProvider) -> InferenceResult:
        """Infer congestion probabilities from one measurement batch.

        Every call reuses the prepared state's cached equation template
        and pays only the value gather plus the solve, so this is also
        the window-incremental path.
        """
        return self.prepare().template(self._options).infer(measurements)

    #: Historical name of the window-incremental call; the same path.
    update = infer
