"""Record the golden digests of the ``sweep`` and ``remote`` trial pools.

Each pool is the Figure-3(a,b) task list of ``common.pool``, run
serially in-process with the benchmark's BLAS pin
(``common.BLAS_ENV``); ``digests.json`` stores one bit-exact digest per
trial.  The benchmark checks every trial it runs — serial or remote —
against these digests, so remote == serial is anchored in stored values
rather than in a second live run.

Run from the repository root after a change that is meant to alter the
figure data::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import common


def record(workload: str) -> dict:
    from repro.eval.parallel import SerialExecutor, run_scenario_tasks

    instance, config, tasks = common.pool(workload)
    results = run_scenario_tasks(
        instance, tasks, config=config, executor=SerialExecutor()
    )
    return {
        "scale": common.POOL_SCALES[workload],
        "instance_seed": common.INSTANCE_SEED,
        "pool_seed": common.POOL_SEED,
        "fractions": list(common.FRACTIONS),
        "trials_per_fraction": common.POOL_TRIALS_PER_FRACTION,
        "digests": [common.digest(errors) for errors in results],
    }


def main() -> int:
    common.pin_blas()
    common.use_source_tree()
    document = {workload: record(workload) for workload in common.POOL_SCALES}
    with open(common.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {common.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
