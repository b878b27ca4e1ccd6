"""Exact path-state oracle: noise-free measurements from the model.

For enumerable ground-truth models, :class:`ExactPathStateDistribution`
computes the exact distribution of the congested-path set
``P(ψ(S) = F)`` by enumerating the model's product support and projecting
each network state through the coverage function.  It implements *both*
measurement protocols, so every inference algorithm can be run in the
noise-free limit:

* the theorem algorithm consumes ``p_congested_mask`` directly (this is
  the construction in the paper's proof, Section 3.2 "Setup");
* the practical algorithm's ``y`` values come from the identity
  ``P(Y_i = 0) = Σ_{F: i ∉ F} P(ψ(S) = F)`` and its pairwise analogue.

Tests use the oracle to validate that the theorem algorithm is *exact* and
that the practical algorithm's only error sources are rank deficiency and
sampling noise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.topology import Topology
from repro.exceptions import MeasurementError
from repro.model.network import NetworkCongestionModel

__all__ = ["ExactPathStateDistribution"]

#: Probability floor under the log (a path that is *never* good has
#: log-probability −∞, which the LP cannot digest).
_LOG_FLOOR = 1e-300


class ExactPathStateDistribution:
    """The exact distribution of the congested-path set.

    Build with :meth:`from_model`; direct construction takes a ready map
    ``{path mask: probability}`` (useful in tests) and, for the batch
    calls, the path count — paths above the highest congested bit are
    invisible in the map (default: that bit's position + 1).

    Every good probability is a sum over the masks in map order, one
    addition at a time, in the scalar and the batch calls alike, so the
    two agree bit for bit.
    """

    def __init__(
        self,
        mask_probabilities: dict[int, float],
        *,
        n_paths: int | None = None,
    ) -> None:
        total = sum(mask_probabilities.values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise MeasurementError(
                f"path-state probabilities must sum to 1, got {total}"
            )
        self._masks = dict(mask_probabilities)
        if n_paths is None:
            n_paths = max(mask.bit_length() for mask in self._masks)
        self._n_paths = n_paths
        self._congested: np.ndarray | None = None

    @classmethod
    def from_model(
        cls,
        topology: Topology,
        network_model: NetworkCongestionModel,
        *,
        max_states: int = 1_000_000,
    ) -> "ExactPathStateDistribution":
        """Enumerate the model's states and project through ψ."""
        masks: dict[int, float] = {}
        for state, probability in network_model.iter_states(
            max_states=max_states
        ):
            mask = topology.coverage_of(state)
            masks[mask] = masks.get(mask, 0.0) + probability
        return cls(masks, n_paths=topology.n_paths)

    # ------------------------------------------------------------------
    @property
    def masks(self) -> dict[int, float]:
        """``{congested-path mask: probability}`` (copy)."""
        return dict(self._masks)

    @property
    def n_paths(self) -> int:
        return self._n_paths

    def _p_good_where(self, bits) -> float:
        """Total probability of the masks sharing no bit with *bits*."""
        total = 0.0
        for mask, probability in self._masks.items():
            if not mask & bits:
                total += probability
        return total

    def _congested_matrix(self) -> np.ndarray:
        """``(n_masks, n_paths)`` congested-path indicators, map order."""
        if self._congested is None:
            n_bytes = max(1, (self._n_paths + 7) // 8)
            packed = np.frombuffer(
                b"".join(
                    mask.to_bytes(n_bytes, "little") for mask in self._masks
                ),
                dtype=np.uint8,
            ).reshape(len(self._masks), n_bytes)
            self._congested = np.unpackbits(
                packed, axis=1, bitorder="little"
            )[:, : self._n_paths].astype(bool)
        return self._congested

    def _p_good_columns(self, good: np.ndarray) -> np.ndarray:
        """Per column of the ``(n_masks, m)`` good indicator, the summed
        probability of its good masks, accumulated in map order."""
        totals = np.zeros(good.shape[1], dtype=np.float64)
        for row, probability in zip(good, self._masks.values()):
            totals[row] += probability
        return totals

    @staticmethod
    def _log(p_good: np.ndarray) -> np.ndarray:
        # math.log, not np.log: the scalar calls use it, and numpy's
        # vectorised log may round differently in the last bit.
        return np.array(
            [math.log(max(p, _LOG_FLOOR)) for p in p_good.tolist()],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # PathStateProvider protocol
    # ------------------------------------------------------------------
    def p_congested_mask(self, mask: int) -> float:
        """Exact ``P(ψ(S) = F)``."""
        return self._masks.get(mask, 0.0)

    # ------------------------------------------------------------------
    # PathGoodProvider protocol
    # ------------------------------------------------------------------
    def p_good(self, path_id: int) -> float:
        """Exact ``P(Y_i = 0)``."""
        return self._p_good_where(1 << path_id)

    def log_good(self, path_id: int) -> float:
        return math.log(max(self.p_good(path_id), _LOG_FLOOR))

    def p_good_pair(self, path_a: int, path_b: int) -> float:
        """Exact ``P(Y_i = 0, Y_j = 0)``."""
        return self._p_good_where((1 << path_a) | (1 << path_b))

    def log_good_pair(self, path_a: int, path_b: int) -> float:
        return math.log(max(self.p_good_pair(path_a, path_b), _LOG_FLOOR))

    # ------------------------------------------------------------------
    # Batch protocol (same sums as the scalar calls, vectorised per mask)
    # ------------------------------------------------------------------
    def log_good_all(self) -> np.ndarray:
        """``log P(Y_i = 0)`` for every path."""
        return self._log(self._p_good_columns(~self._congested_matrix()))

    def log_good_pairs(self, pairs) -> np.ndarray:
        """``log P(Y_i = 0, Y_j = 0)`` for each row of an ``(m, 2)``
        path-id array."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        congested = self._congested_matrix()
        good = ~(congested[:, pairs[:, 0]] | congested[:, pairs[:, 1]])
        return self._log(self._p_good_columns(good))

    def __repr__(self) -> str:
        return f"ExactPathStateDistribution(n_masks={len(self._masks)})"
