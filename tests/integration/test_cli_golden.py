"""Golden digests of the ``localize`` and ``predict`` canonical JSON.

Both commands are the batch references the service must match byte for
byte, so their canonical-JSON answer on a small seeded instance is a
contract of its own.  The live CLI == service comparisons in
``tests/serve`` check the two sides against each other; these stored
digests pin the answer itself, so a change that moved both sides in
step would still be caught.

Each digest is the sha256 of the command's stdout.  Regenerate with
``python tests/integration/test_cli_golden.py`` only when an output
change is intended, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GENERATOR = json.dumps(
    {
        "kind": "brite",
        "n_ases": 12,
        "routers_per_as": 3,
        "n_paths": 30,
        "seed": 7,
    }
)
DEMAND = {
    "flows": [
        {"name": "f0", "rate": 6.0, "paths": [0, 1]},
        {"name": "f1", "rate": 5.0, "paths": [1, 2]},
        {"name": "f2", "rate": 4.0, "paths": [0, 2]},
    ],
    "capacities": {"default": 10.0},
    "shifts": [{"name": "surge", "scale": 1.6}],
}
LOCALIZE = [
    "localize", "--generator", GENERATOR, "--seed", "3",
    "--n-snapshots", "30", "--loc-snapshots", "2", "--no-cache",
]

#: ``case -> argv`` (``{demand}`` is replaced by the demand file path).
CASES = {
    "localize/localization": LOCALIZE,
    "localize/identifiability": [*LOCALIZE, "--kind", "identifiability"],
    "predict/whatif": [
        "predict", "--generator", GENERATOR, "--demand", "{demand}",
        "--seed", "3", "--n-snapshots", "30", "--packets-per-path", "200",
        "--format", "json", "--no-cache",
    ],
}

#: ``case -> sha256 of stdout``.
GOLDEN = {
    "localize/identifiability":
        "ec65ea92a85511de82f608fc962247edd9618a92ac5c3e9b3ba5252b8a04aee3",
    "localize/localization":
        "c5d28e45975de2dbc5dd237cfabd1685d7832240713529ea53c2e8b3e16e0122",
    "predict/whatif":
        "bd989d2a3ea8076eef247b83fb7ec8fbe7d5258fda15f64ec10b2c32ac84f874",
}


def digest_of(case: str, workdir: Path) -> str:
    demand = workdir / "demand.json"
    demand.write_text(json.dumps(DEMAND), encoding="utf-8")
    argv = [arg.replace("{demand}", str(demand)) for arg in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_digest(tmp_path, case):
    assert digest_of(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":  # regenerate the table above
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            digest = digest_of(case, Path(scratch))
            print(f'    "{case}":\n        "{digest}",')
