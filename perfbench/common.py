"""Shared constants and helpers for the benchmark's processes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: Figure-3(a,b) x-axis (congested-link fractions).
FRACTIONS = (0.05, 0.10, 0.15, 0.20, 0.25)
#: Brite instance seed for every workload's topology.
INSTANCE_SEED = 0
#: Seed of the recorded trial pools (see ``record_digests.py``).  The
#: workload seed picks the order in which a run walks its pool.
POOL_SEED = 2010
POOL_TRIALS_PER_FRACTION = 8
#: ``sweep`` runs the pool at medium scale, ``remote`` at small scale.
POOL_SCALES = {"sweep": "medium", "remote": "small"}

#: Sliding-window stream shape (medium instance).
STREAM_WINDOW = 200
STREAM_MAX_WINDOW = 2000
STREAM_WINDOWS = 30
STREAM_PACKETS = 1000


#: The program's BLAS pool is pinned to one thread in every process the
#: benchmark starts.  Float results depend on the pool size (reduction
#: order), so the pin makes the recorded digests independent of the
#: host's core count; it also keeps the two ``remote`` workers from
#: oversubscribing two cores.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_blas() -> None:
    """Apply :data:`BLAS_ENV`; call before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    os.environ.update(BLAS_ENV)


def program_env() -> dict[str, str]:
    """Child environment: the source tree importable, no ambient knobs.

    ``REPRO_WORKERS`` and ``REPRO_CACHE_DIR`` would silently turn a
    serial, uncached workload into a pooled or cached one.
    """
    env = dict(os.environ)
    for knob in ("REPRO_WORKERS", "REPRO_CACHE_DIR"):
        env.pop(knob, None)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def use_source_tree() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def warm_blas() -> None:
    """Pay OpenBLAS's first-call cost (thread pool start-up) now."""
    import numpy as np

    matrix = np.random.default_rng(0).random((120, 200))
    np.linalg.svd(matrix, full_matrices=False)


def digest(errors: dict) -> str:
    """Bit-exact digest of one trial's per-algorithm error vectors."""
    import numpy as np

    hasher = hashlib.sha256()
    for name in sorted(errors):
        vector = np.ascontiguousarray(errors[name], dtype=np.float64)
        hasher.update(f"{name}:{vector.shape}:".encode())
        hasher.update(vector.tobytes())
    return hasher.hexdigest()


def pool(workload: str):
    """The recorded trial pool of ``sweep`` / ``remote``.

    Returns ``(instance, config, tasks)``: the Figure-3(a,b) task list
    (``POOL_TRIALS_PER_FRACTION`` trials per fraction, group-major) on
    the workload's Brite instance.
    """
    from repro.eval.figures import (
        default_config,
        default_instance,
        figure3_sweep_tasks,
    )
    from repro.eval.scenario import HIGH_CORRELATION_RANGE

    scale = POOL_SCALES[workload]
    instance = default_instance("brite", scale=scale, seed=INSTANCE_SEED)
    tasks = figure3_sweep_tasks(
        FRACTIONS, HIGH_CORRELATION_RANGE, POOL_TRIALS_PER_FRACTION, POOL_SEED
    )
    return instance, default_config(scale), tasks


def pool_schedule(seed: int) -> list[int]:
    """Seeded walk over the pool: every block of five covers each fraction.

    Each round visits every fraction once, in a seeded order, taking the
    next unused trial of that fraction, so any prefix of the walk mixes
    the fractions evenly.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    per_fraction = [
        rng.permutation(POOL_TRIALS_PER_FRACTION) for _ in FRACTIONS
    ]
    schedule = []
    for round_index in range(POOL_TRIALS_PER_FRACTION):
        for group in rng.permutation(len(FRACTIONS)):
            trial = int(per_fraction[group][round_index])
            schedule.append(int(group) * POOL_TRIALS_PER_FRACTION + trial)
    return schedule


def load_digests(workload: str) -> list[str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[workload]["digests"]


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """OpenBLAS pool size, read from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _source_revision() -> dict:
    """Git revision when run from a clone; a digest of ``src`` always."""
    revision = None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if completed.returncode == 0:
            revision = completed.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return {"git_rev": revision, "src_sha256": hasher.hexdigest()}


def host_metadata(seed: int) -> dict:
    import numpy as np
    import scipy

    warm_blas()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": dict(BLAS_ENV),
        "workload_seed": seed,
        "unix_time": time.time(),
        **_source_revision(),
    }
