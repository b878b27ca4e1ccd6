"""Measurement-side protocols consumed by the inference algorithms.

The algorithms never touch raw packets; they consume *probabilities of
observable path events*.  Two protocols capture exactly what each algorithm
needs:

* :class:`PathGoodProvider` — what the practical algorithm (Section 4)
  needs: ``log P(Y_Pi = 0)`` for single paths and ``log P(Y_Pi = 0,
  Y_Pj = 0)`` for path pairs.
* :class:`PathStateProvider` — what the theorem algorithm (Appendix A)
  needs: the probability that the set of congested paths is *exactly* a
  given set, ``P(ψ(S) = F)``, including ``F = ∅``.

Both are implemented by the empirical estimator
(:class:`repro.simulate.observations.PathObservations`) and by the exact
oracle (:class:`repro.simulate.oracle.ExactPathStateDistribution`), so every
algorithm can run on noisy measurements or on ground truth unchanged.
Both also implement :class:`BatchPathGoodProvider`, the vectorised
``log_good_all`` / ``log_good_pairs`` pair the inference consumes;
:func:`batch_provider` adapts any other scalar-only provider to it.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "PathGoodProvider",
    "BatchPathGoodProvider",
    "PathStateProvider",
    "batch_provider",
]


@runtime_checkable
class PathGoodProvider(Protocol):
    """Log-probabilities of single and pairwise path-good events."""

    def log_good(self, path_id: int) -> float:
        """``log P(Y_Pi = 0)`` — the paper's ``y_i``."""
        ...

    def log_good_pair(self, path_a: int, path_b: int) -> float:
        """``log P(Y_Pi = 0, Y_Pj = 0)`` — the paper's ``y_ij``."""
        ...


@runtime_checkable
class BatchPathGoodProvider(Protocol):
    """The vectorised face of :class:`PathGoodProvider`.

    The Section-4 inference reads its right-hand side through these two
    calls only; both in-repo providers implement them natively.
    """

    def log_good_all(self) -> np.ndarray:
        """``y_i`` for every path, shape ``(n_paths,)``."""
        ...

    def log_good_pairs(self, pairs) -> np.ndarray:
        """``y_ij`` for each row of an ``(m, 2)`` path-id array."""
        ...


class _ScalarProviderAdapter:
    """Batch view of a provider that only speaks the scalar protocol."""

    def __init__(self, measurements: PathGoodProvider, n_paths: int) -> None:
        self._measurements = measurements
        self._n_paths = n_paths

    def log_good_all(self) -> np.ndarray:
        return np.array(
            [self._measurements.log_good(i) for i in range(self._n_paths)],
            dtype=np.float64,
        )

    def log_good_pairs(self, pairs) -> np.ndarray:
        pair_of = self._measurements.log_good_pair
        return np.array(
            [pair_of(int(a), int(b)) for a, b in pairs], dtype=np.float64
        )


def batch_provider(
    measurements: PathGoodProvider, n_paths: int
) -> BatchPathGoodProvider:
    """*measurements* as a :class:`BatchPathGoodProvider`.

    The one boundary between the two protocols: batch providers pass
    through, scalar-only ones are wrapped in a per-path/per-pair loop
    whose values are exactly the scalar calls' results.
    """
    if isinstance(measurements, BatchPathGoodProvider):
        return measurements
    return _ScalarProviderAdapter(measurements, n_paths)


@runtime_checkable
class PathStateProvider(Protocol):
    """Exact-congested-path-set probabilities."""

    def p_congested_mask(self, mask: int) -> float:
        """``P(ψ(S) = F)`` for the path set encoded by ``mask``.

        ``mask = 0`` is the all-paths-good event ``P(ψ(S) = ∅)``.
        """
        ...
