"""Predictive what-if layer: congestion probability under traffic shifts.

The tomography pipeline answers "which links are congested *now*"; this
package answers "which links *will* congest if this traffic shifts".  A
:class:`~repro.predict.demand.DemandMatrix` maps named flows (rates plus
endpoints or explicit ECMP split sets) onto topology paths, a
:class:`~repro.predict.model.CongestionModel` turns a demand into
per-link congestion probabilities — exact memoized enumeration for small
flow sets, seeded Monte Carlo above a configurable threshold — and a
:class:`~repro.predict.scenario.WhatIfScenario` chains inference (what
the probes say about the network now) with prediction (what a projected
demand shift would do to it), ranking links by combined risk.

Everything composes with the existing engine: what-if trials are
ordinary :class:`~repro.eval.parallel.ScenarioTask` records executed via
the dotted runner spec :data:`repro.predict.tasks.WHATIF_RUNNER`, so the
sweep caches, distributes, and serves exactly like the batch
figures — the ``predict`` CLI command and the service ``/whatif``
endpoint are bit-identical by construction.
"""

from repro.predict.demand import DemandMatrix, DemandShift, Flow, ResolvedDemand
from repro.predict.model import CongestionModel, Prediction
from repro.predict.scenario import ShiftRisk, WhatIfResult, WhatIfScenario
from repro.predict.tasks import WHATIF_RUNNER, run_whatif_task

__all__ = [
    "DemandMatrix",
    "DemandShift",
    "Flow",
    "ResolvedDemand",
    "CongestionModel",
    "Prediction",
    "ShiftRisk",
    "WhatIfResult",
    "WhatIfScenario",
    "WHATIF_RUNNER",
    "run_whatif_task",
]
