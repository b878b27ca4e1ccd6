"""Golden digests of ``infer_congestion`` on the small fixtures.

The Section-4 pipeline has one contract above every internal layout:
at a fixed seed its answer is fixed to the last bit.  These digests
pin that answer for the small Brite and PlanetLab instances across the
option space the equation structure depends on — both selection
modes, unshuffled pair order, a binding pair-candidate cap and the
trivial (independence) correlation — so any restructuring of the
equation build or the value gather must reproduce them unchanged.

Each digest is the sha256 of the solution bytes (``log_good`` then the
probabilities) followed by ``n_single``, ``n_pair``, ``rank`` and the
sorted uncovered links.  Regenerate with ``python
tests/core/test_inference_golden.py`` only when an output change is
intended, and say so in the change log.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.correlation import CorrelationStructure
from repro.core.correlation_algorithm import (
    AlgorithmOptions,
    infer_congestion,
)
from repro.core.prepared import PreparedRegistry

#: A cap well below the fixtures' shared-link candidate counts, so the
#: capped systems stop examining pairs before reaching their rank.
BINDING_CAP = 20

CASES = {
    "default": ({}, False),
    "all": ({"selection": "all"}, False),
    "unshuffled": ({"pair_order_seed": None}, False),
    "capped": ({"max_pair_candidates": BINDING_CAP}, False),
    "trivial": ({}, True),
}

#: ``name/case -> (n_single, n_pair, rank, digest)``.
GOLDEN = {
    "brite/all": (
        93, 231, 84,
        "d8e399f49e74dc811878ab97e4275e788de925f5dc548af7e051cb8fd51d2f56",
    ),
    "brite/capped": (
        79, 2, 81,
        "e6f10d4a7590942d4c72d6ea5b75908df07e17d8f3eb3d848b2f606d65b8ed9f",
    ),
    "brite/default": (
        79, 5, 84,
        "38350a6b15f6a5c1b64331948ee50e0e1a95aebc9b4c0fd122fc9349c46958af",
    ),
    "brite/trivial": (
        98, 6, 104,
        "f1a2800d3172ed6bfc896b8d35ee53d3fc8b20aeade29ca847c3423d80b17bc0",
    ),
    "brite/unshuffled": (
        79, 5, 84,
        "6b5affd38c3668bc3a6da0e0573b534451cb2312f3901118040fa0e33ec6088c",
    ),
    "planetlab/all": (
        64, 97, 92,
        "5572b966a68771a07d987f09fd4027da08a93ced2fbd41757594c3ddad876265",
    ),
    "planetlab/capped": (
        62, 11, 73,
        "47262fa9c6d73f6e04d7674e4e2d05ab876da1c4d8873cddabec53aa1a9a7537",
    ),
    "planetlab/default": (
        62, 30, 92,
        "534ddd5e2bacb0ba1005a45d2df665b377efb226036dce7f2f3dca7dad60e9c7",
    ),
    "planetlab/trivial": (
        113, 58, 171,
        "04cf208f06a3297e5fc0293d845f321aef9ab01a7d66c57551a801cc14220c7d",
    ),
    "planetlab/unshuffled": (
        62, 30, 92,
        "2283a21ba9bb35a3c8c1a50ecfbd048698dc7b467cd95d63cf62f7306404c77b",
    ),
}


def observations_of(instance, seed):
    from repro.eval import make_clustered_scenario
    from repro.simulate import ExperimentConfig, run_experiment

    scenario = make_clustered_scenario(
        instance, congested_fraction=0.10, seed=seed
    )
    run = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=ExperimentConfig(n_snapshots=300, packets_per_path=200),
        seed=seed + 1,
    )
    return run.observations


def digest_of(result) -> str:
    summary = json.dumps(
        [
            result.n_single_equations,
            result.n_pair_equations,
            result.rank,
            sorted(result.uncovered_links),
        ]
    )
    hasher = hashlib.sha256()
    hasher.update(result.log_good.tobytes())
    hasher.update(result.congestion_probabilities.tobytes())
    hasher.update(summary.encode("ascii"))
    return hasher.hexdigest()


def run_case(instance, observations, case):
    options, trivial = CASES[case]
    correlation = (
        CorrelationStructure.trivial(instance.topology)
        if trivial
        else instance.correlation
    )
    return infer_congestion(
        instance.topology,
        correlation,
        observations,
        options=AlgorithmOptions(**options),
        registry=PreparedRegistry(),
    )


@pytest.fixture(scope="module")
def fixtures(brite_small, planetlab_small):
    return {
        "brite": (
            brite_small.instance,
            observations_of(brite_small.instance, seed=21),
        ),
        "planetlab": (
            planetlab_small,
            observations_of(planetlab_small, seed=22),
        ),
    }


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", ["brite", "planetlab"])
def test_inference_matches_golden_digest(fixtures, name, case):
    instance, observations = fixtures[name]
    result = run_case(instance, observations, case)
    expected = GOLDEN[f"{name}/{case}"]
    assert (
        result.n_single_equations,
        result.n_pair_equations,
        result.rank,
    ) == tuple(expected[:3])
    assert digest_of(result) == expected[3]


@pytest.mark.parametrize("name", ["brite", "planetlab"])
def test_cap_is_binding(fixtures, name):
    instance, observations = fixtures[name]
    capped = run_case(instance, observations, "capped")
    uncapped = run_case(instance, observations, "default")
    assert capped.n_pair_equations < uncapped.n_pair_equations


if __name__ == "__main__":  # regenerate the table above
    from repro.topogen import generate_brite, generate_planetlab

    instances = {
        "brite": generate_brite(
            n_ases=40, routers_per_as=5, n_paths=120, seed=101
        ).instance,
        "planetlab": generate_planetlab(
            n_routers=120, n_vantages=20, n_paths=120, seed=102
        ),
    }
    for name, seed in (("brite", 21), ("planetlab", 22)):
        instance = instances[name]
        observations = observations_of(instance, seed)
        for case in sorted(CASES):
            result = run_case(instance, observations, case)
            print(
                f'    "{name}/{case}": (\n'
                f"        {result.n_single_equations}, "
                f"{result.n_pair_equations}, {result.rank},\n"
                f'        "{digest_of(result)}",\n    ),'
            )
