"""Linear-equation construction for the practical algorithm (Section 4).

The practical algorithm forms equations over the unknowns

    x_k = log P(X_ek = 0)

from two kinds of observable events:

* **Single paths** (paper Eq. 9): a path ``P_i`` that "does not involve
  correlated links" (no two of its links share a correlation set) satisfies
  ``y_i = Σ_{k: e_k ∈ P_i} x_k`` where ``y_i = log P(Y_Pi = 0)``.
* **Path pairs** (paper Eq. 10): a pair ``(P_i, P_j)`` whose *union* of
  links has no two distinct links in a common correlation set satisfies
  ``y_ij = Σ_{k: e_k ∈ P_i ∪ P_j} x_k``.

Only pairs that *share at least one link* are enumerated: for a disjoint
eligible pair the union row is the sum of the two single rows, hence never
linearly independent from the singles (both singles are always eligible
when the pair is).  This observation shrinks the candidate space from
``|P|²`` to roughly ``Σ_k |ψ({e_k})|²`` without losing any rank.

Two selection modes:

* ``"independent"`` (the paper's description): keep only rows that increase
  the rank, tracked by incremental Gaussian elimination, stopping at full
  column rank.
* ``"all"``: keep every eligible row and let the solver's L1/L2 objective
  reconcile redundancy — more robust under measurement noise, identical in
  the noise-free consistent case.

In both modes the accepted rows depend only on the topology, the
correlation structure and the options, never on the measured values.
:func:`build_equations` therefore reads the row structure from the
prepared state's cached :class:`~repro.core.streaming.EquationTemplate`
(candidate enumeration, eligibility and rank tracking run once per
options) and adds one value gather through the provider's vectorised
``log_good_all`` / ``log_good_pairs`` calls.  The dense
``|rows| × |E|`` matrix is only materialised on explicit request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.core.correlation import CorrelationStructure
from repro.core.correlation_algorithm import AlgorithmOptions
from repro.core.interfaces import PathGoodProvider
from repro.core.prepared import (  # noqa: F401  (re-exported for compat)
    PreparedRegistry,
    PreparedTopology,
    _incidence_matrix,
    _RankTracker,
    get_prepared,
)
from repro.core.topology import Topology
from repro.exceptions import SolverError

__all__ = ["EquationRow", "EquationSystem", "build_equations"]


@dataclass(frozen=True)
class EquationRow:
    """One linear equation ``value = Σ_{k ∈ link_ids} x_k``.

    Attributes:
        kind: ``"path"`` (Eq. 9) or ``"pair"`` (Eq. 10).
        paths: The observed path ids (one or two).
        link_ids: Links with coefficient 1 in the row.
        value: The measured log-good probability (``y_i`` or ``y_ij``).
    """

    kind: str
    paths: tuple[int, ...]
    link_ids: frozenset[int]
    value: float


@dataclass
class EquationSystem:
    """The assembled system ``R x = y`` plus diagnostics.

    Attributes:
        n_links: Number of unknowns (columns of R).
        rows: The accepted equations in acceptance order.
        n_single: Count of Eq.-9 rows (the paper's ``N1``).
        n_pair: Count of Eq.-10 rows (the paper's ``N2``).
        rank: Numerical rank of R at assembly time.
        eligible_paths: Paths that passed the correlation-free test.
        uncovered_links: Links appearing in no accepted row; their unknowns
            are unconstrained and the solver will leave them at the
            "never congested" default (Section 5 discusses the resulting
            error on unidentifiable links).
    """

    n_links: int
    rows: list[EquationRow] = field(default_factory=list)
    n_single: int = 0
    n_pair: int = 0
    rank: int = 0
    eligible_paths: tuple[int, ...] = ()
    uncovered_links: frozenset[int] = frozenset()

    def sparse_matrix(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """Assemble ``(R, y)`` with ``R`` as a CSR matrix (COO triplets;
        no dense intermediate)."""
        if not self.rows:
            raise SolverError(
                "no equations could be formed: every path involves "
                "correlated links"
            )
        matrix = _incidence_matrix(
            [row.link_ids for row in self.rows], self.n_links
        )
        values = np.array([row.value for row in self.rows], dtype=np.float64)
        return matrix, values

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialise ``(R, y)`` as dense numpy arrays."""
        matrix, values = self.sparse_matrix()
        return matrix.toarray(), values

    @property
    def is_fully_determined(self) -> bool:
        """True when ``N1 + N2`` reached ``|E|`` *and* rank is full."""
        return self.rank >= self.n_links


def build_equations(
    topology: Topology,
    correlation: CorrelationStructure,
    measurements: PathGoodProvider,
    *,
    selection: str = "independent",
    max_pair_candidates: int = 200_000,
    pair_order_seed=0,
    prepared: PreparedTopology | None = None,
    registry: PreparedRegistry | None = None,
) -> EquationSystem:
    """Assemble the Section-4 equation system.

    Args:
        topology: The measurement topology.
        correlation: Known correlation structure (pass the trivial
            structure to obtain the independence baseline's system).
        measurements: Provider of the measured ``y`` values.
        selection: ``"independent"`` (paper) or ``"all"`` (keep every
            eligible row).
        max_pair_candidates: Bound on examined shared-link pairs; beyond it
            the system is returned as-is (rank possibly deficient — the
            L1 solve then picks the minimum-error solution, Section 4).
        pair_order_seed: Integer seed for shuffling pair candidates so
            truncation is not biased toward low-id links; ``None`` keeps
            generation order.
        prepared: Pre-built measurement-independent state for this
            ``(topology, correlation)`` pair; skips the registry lookup.
        registry: Registry to resolve/cache the prepared state in;
            defaults to the ambient registry (see
            :func:`repro.core.prepared.use_registry`).
    """
    options = AlgorithmOptions(
        selection=selection,
        max_pair_candidates=max_pair_candidates,
        pair_order_seed=pair_order_seed,
    )
    template = get_prepared(
        topology, correlation, registry=registry, prepared=prepared
    ).template(options)
    kinds = ["path"] * template.n_single + ["pair"] * template.n_pair
    sources = [(int(p),) for p in template.single_paths] + [
        (int(a), int(b)) for a, b in template.pair_array
    ]
    return EquationSystem(
        n_links=topology.n_links,
        rows=[
            EquationRow(kind=kind, paths=paths, link_ids=links, value=value)
            for kind, paths, links, value in zip(
                kinds,
                sources,
                template.link_sets,
                template.values(measurements).tolist(),
            )
        ],
        n_single=template.n_single,
        n_pair=template.n_pair,
        rank=template.rank,
        eligible_paths=template.eligible_paths,
        uncovered_links=template.uncovered_links,
    )
