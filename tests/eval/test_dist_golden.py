"""Golden digests of a remote sweep over every fleet setup.

The distributed backend's contract is that a remote sweep returns the
serial sweep's error vectors to the last bit, whichever security
layer carries them.  These digests pin that answer in stored
values rather than in a live comparison against a second wire: they
were recorded from a *serial* run of :data:`TASKS` on the small
PlanetLab fixture, and each fleet below must reproduce them through
:class:`~repro.eval.dist.RemoteExecutor` — a plain socket, and a
shared secret over TLS.

Each digest is the sha256 of one trial's error vectors, in sorted name
order (name, then the float64 bytes).  Regenerate with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
tests/eval/test_dist_golden.py`` only when an output change is
intended, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading

import numpy as np
import pytest

from repro.eval.dist import (
    RemoteExecutor,
    WorkerServer,
    client_context,
    generate_self_signed,
    server_context,
)
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.simulate.experiment import ExperimentConfig

CONFIG = ExperimentConfig(n_snapshots=120, packets_per_path=200)

SECRET = b"golden-fleet-token"


def make_tasks():
    return scenario_tasks(
        "clustered", {"congested_fraction": 0.1}, n_trials=6, seed=2024
    )


#: sha256 per trial, in task order, of the serial run.
GOLDEN = [
    "fcca0d3ec449ce1ec69f695d3ff7ab3dbec17b949cb316d870c51918cc7ee099",
    "11b5b99faf460c38393a9ab61e5e057ddb2764b98fc15597970a3581d978dc3b",
    "1fdb3e83e23cb61979c7fb85ba2ad5416f5181db607ecaf5e90ea0226f021891",
    "72c3535aa488711c7d74f5735a87d1d3a785842e4c0d44fe645829567e45e76a",
    "356a4723600742c54b04b16a8f8069f0ee5690a063655282ad7a47d8a16b4c64",
    "dcdf016d109d6bcc80b5a2753d54a37fcf8b91965bd2c17b5c1e3f2aec342bcc",
]


def trial_digest(errors: dict) -> str:
    hasher = hashlib.sha256()
    for name in sorted(errors):
        hasher.update(name.encode("utf-8"))
        hasher.update(np.ascontiguousarray(errors[name], dtype="<f8").tobytes())
    return hasher.hexdigest()


@contextlib.contextmanager
def fleet(count=2, /, **kwargs):
    servers = [WorkerServer(max_sessions=1, **kwargs) for _ in range(count)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    try:
        yield [server.address for server in servers]
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=10)


@pytest.fixture(scope="module")
def tls_material(tmp_path_factory):
    return generate_self_signed(tmp_path_factory.mktemp("tls"))


def _fleet_setup(name, tls_material):
    """``(worker kwargs, executor kwargs)`` for one golden fleet."""
    if name == "socket":
        return {}, {}
    return (
        {
            "secret": SECRET,
            "ssl_context": server_context(
                tls_material.cert, tls_material.key
            ),
        },
        {
            "secret": SECRET,
            "ssl_context": client_context(cafile=tls_material.cert),
        },
    )


@pytest.mark.timeout(120)
@pytest.mark.parametrize("setup", ["socket", "secret-tls"])
def test_remote_sweep_matches_golden_digests(
    planetlab_small, tls_material, setup
):
    worker_kwargs, executor_kwargs = _fleet_setup(setup, tls_material)
    with fleet(2, **worker_kwargs) as addresses:
        executor = RemoteExecutor(addresses, **executor_kwargs)
        results = run_scenario_tasks(
            planetlab_small, make_tasks(), config=CONFIG, executor=executor
        )
    assert [trial_digest(errors) for errors in results] == GOLDEN


if __name__ == "__main__":  # regenerate the table above
    from repro.topogen import generate_planetlab

    instance = generate_planetlab(
        n_routers=120, n_vantages=20, n_paths=120, seed=102
    )
    serial = run_scenario_tasks(
        instance, make_tasks(), config=CONFIG, workers=1
    )
    for errors in serial:
        print(f'    "{trial_digest(errors)}",')
