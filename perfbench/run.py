"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md``): ``sweep``, ``stream``, ``serve``
and ``remote``.  The seed makes the workload's inputs; the program only
receives those inputs.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
Earlier lines are a readable report, and the full record (host
metadata, failure causes, extra percentiles, span file) is written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import common

common.pin_blas()

AGENT = common.BENCH_DIR / "agent.py"
WORK = common.ROOT / ".perfbench_work"
OUT = common.ROOT / ".perfbench_out"
#: Set-up is repeated in fresh processes and the median reported.
SETUP_SAMPLES = 3
AGENT_TIMEOUT_S = 150.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Inputs (benchmark side, not timed as the program's set-up)
# ----------------------------------------------------------------------
def make_inputs(workload: str, seed: int, workdir) -> dict:
    inputs = {"spans_path": str(workdir / "spans.jsonl")}
    if workload in ("sweep", "remote"):
        inputs["schedule"] = common.pool_schedule(seed)
    elif workload == "stream":
        inputs["windows"] = str(workdir / "windows.npy")
        _make_windows(seed, inputs["windows"])
    return inputs


def _make_windows(seed: int, path) -> None:
    """Seeded probe windows on the medium instance, via ``run_experiment``.

    The congestion scenario is fixed (drawn from the pool seed), and the
    workload seed draws the probe outcomes: the L1 solve that dominates a
    window costs very different amounts on different scenarios, so a
    seeded scenario would make the run-to-run spread a property of the
    seeds rather than of the program.
    """
    import numpy as np

    from repro.eval.figures import default_instance
    from repro.eval.scenario import make_clustered_scenario
    from repro.simulate.experiment import ExperimentConfig, run_experiment
    from repro.utils.rng import spawn_children

    instance = default_instance(
        "brite", scale="medium", seed=common.INSTANCE_SEED
    )
    (scenario_rng,) = spawn_children(common.POOL_SEED, 1)
    (run_rng,) = spawn_children(seed, 1)
    scenario = make_clustered_scenario(instance, seed=scenario_rng)
    run = run_experiment(
        instance.topology,
        scenario.truth_model,
        config=ExperimentConfig(
            n_snapshots=common.STREAM_WINDOWS * common.STREAM_WINDOW,
            packets_per_path=common.STREAM_PACKETS,
        ),
        seed=run_rng,
    )
    np.save(path, np.ascontiguousarray(run.observations.path_states))


# ----------------------------------------------------------------------
# Agent workloads: sweep, stream, remote
# ----------------------------------------------------------------------
def _agent(workload, inputs_path, seconds, trace, setup_only=False) -> dict:
    command = [
        sys.executable,
        str(AGENT),
        "--workload",
        workload,
        "--inputs",
        str(inputs_path),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    completed = subprocess.run(
        command,
        capture_output=True,
        text=True,
        cwd=common.ROOT,
        env=common.program_env(),
        timeout=AGENT_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} agent exited {completed.returncode}:\n"
            f"{completed.stderr[-3000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_agent_workload(args, workdir) -> dict:
    inputs = make_inputs(args.workload, args.seed, workdir)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(
                _agent(args.workload, inputs_path, args.seconds, 0, True)[
                    "setup_s"
                ]
            )
    result = _agent(args.workload, inputs_path, args.seconds, args.trace)
    setups.append(result["setup_s"])
    record = {
        "setup_samples_s": setups,
        "elapsed_s": result["elapsed_s"],
        "latencies_ms": result["latencies_ms"],
        "attempted": result["attempted"],
        "failures": result["failures"],
        "errors": result["errors"],
        "peak_rss_mb": result["peak_rss_mb"],
        "checks": result["checks"],
        "extra": {
            key: result[key]
            for key in ("worker_peak_rss_mb", "sweep_stats")
            if key in result
        },
    }
    if args.trace:
        layers = dict(result["layers"])
        traced = statistics.median(result["latencies_ms"])
        layers["trace.overhead_pct"] = (
            (traced - result["untraced_p50_ms"]) / result["untraced_p50_ms"] * 100
        )
        layers["trace.spans"] = result["spans"]
        layers["trace.unbalanced_spans"] = result["unbalanced_spans"]
        record["layers"] = layers
        record["spans_file"] = inputs["spans_path"]
    return record


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
SERVE_TARGETS = [
    ("repro.topogen.brite", "generate_brite", "topogen.generate", None),
    ("repro.core.prepared", "PreparedTopology.build", "core.prepared.build", None),
    ("repro.serve.queries", "run_query", "serve.queries.engine", None),
    ("repro.serve.queries", "encode_vectors", "serve.queries.encode", None),
    ("repro.core.localization", "localize_map", "core.localization.localize_map", None),
    ("repro.predict.scenario", "WhatIfScenario.evaluate", "predict.whatif", None),
    ("repro.simulate.experiment", "run_experiment", "simulate.run_experiment", None),
    ("repro.core.correlation_algorithm", "infer_congestion", "core.infer_correlation", None),
    ("repro.core.solvers", "solve", "core.solvers.solve", None),
]


def _engine_pass(instance, bodies, seconds, patches, recorder):
    """In-process ``run_query`` + encoding over the bodies.

    Whole cycles over the bodies alternate untraced and traced, so both
    sets hold the same query mix; returns the per-query milliseconds of
    each set.
    """
    from repro.serve import queries

    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        body = bodies[index % len(bodies)]
        tracing = (index // len(bodies)) % 2 == 1
        if tracing:
            patches.apply()
            recorder.op = f"q{index}"
        began = time.perf_counter()
        # Looked up per call, so the span wrappers take effect.
        json.dumps(queries.encode_vectors(queries.run_query(instance, body)))
        elapsed_ms = (time.perf_counter() - began) * 1e3
        if tracing:
            recorder.op = None
            patches.undo()
            traced.append(elapsed_ms)
        else:
            untraced.append(elapsed_ms)
        index += 1
    return untraced, traced


def run_serve_workload(args, workdir) -> dict:
    import importlib

    import serve_load
    import spans

    bodies = serve_load.query_bodies(args.seed)
    recorder = spans.SpanRecorder()
    if args.trace:
        for module_name, *_ in SERVE_TARGETS:
            importlib.import_module(module_name)
        patches = spans.instrument(recorder, SERVE_TARGETS)
        patches.apply()
    answers, instance = serve_load.reference_answers(bodies)
    record: dict = {}
    load_seconds = args.seconds
    if args.trace:
        patches.undo()
        untraced, traced = _engine_pass(
            instance, bodies, args.seconds * 0.4, patches, recorder
        )
        load_seconds = args.seconds * 0.6

    setups = []
    server = None
    try:
        for _ in range(1 if args.trace else SETUP_SAMPLES):
            if server is not None:
                server.stop()
            server = serve_load.Server(bodies)
            setups.append(server.setup_s)
        closed = serve_load.closed_loop(
            server, bodies, answers, load_seconds * serve_load.CLOSED_SHARE
        )
        rungs = []
        rung_seconds = load_seconds * (1 - serve_load.CLOSED_SHARE) / len(serve_load.LADDER_QPS)
        for rung, rate in enumerate(serve_load.LADDER_QPS):
            offsets = serve_load.poisson_schedule(args.seed, rung, rate, rung_seconds)
            phase = serve_load.open_loop(server, bodies, answers, offsets)
            rungs.append((phase, serve_load.summarize_rung(phase, rate, rung_seconds)))
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    phases = [closed] + [phase for phase, _ in rungs]
    failures = {cause: 0 for cause in closed.failures}
    errors = []
    for phase in phases:
        for cause, count in phase.failures.items():
            failures[cause] += count
        errors.extend(phase.errors)
    passing = [summary for _, summary in rungs if summary["meets_slo"]]
    middle = rungs[len(rungs) // 2][1]
    record.update(
        setup_samples_s=setups,
        elapsed_s=closed.elapsed_s,
        latencies_ms=closed.latencies_ms,
        attempted=sum(phase.attempted for phase in phases),
        failures=failures,
        errors=errors[:5],
        peak_rss_mb=peak,
        checks={"answers_equal_in_process_run_query": failures["wrong"] == 0},
        extra={
            "ladder": [summary for _, summary in rungs],
            "slo_qps": passing[-1]["completed_qps"] if passing else 0.0,
            "slo_rate_qps": passing[-1]["rate_qps"] if passing else 0.0,
            "latency_limit_ms": serve_load.LATENCY_LIMIT_MS,
            "lag_limit_ms": serve_load.LAG_LIMIT_MS,
            "middle_rate": middle,
            "closed_loop_stats": closed.stats,
            "open_loop_stats": [phase.stats for phase, _ in rungs],
        },
    )
    if args.trace:
        engine_ms = recorder.median_ms("serve.queries.engine")
        stats = dict(closed.stats)
        for phase, _ in rungs:
            for name, value in phase.stats.items():
                stats[name] = (
                    max(stats[name], value)
                    if name == "serve.batcher.max_batch"
                    else stats[name] + value
                )
        layers = {
            "topogen.generate_s": recorder.setup_s("topogen.generate"),
            "core.prepared.build_s": recorder.setup_s("core.prepared.build"),
            "serve.queries.engine_ms": engine_ms,
            "serve.queries.engine_self_ms": recorder.median_ms(
                "serve.queries.engine", self_time=True
            ),
            "serve.queries.encode_ms": recorder.median_ms("serve.queries.encode"),
            "core.localization.localize_map_ms": recorder.median_ms(
                "core.localization.localize_map"
            ),
            "predict.whatif_ms": recorder.median_ms("predict.whatif"),
            "predict.whatif_self_ms": recorder.median_ms(
                "predict.whatif", self_time=True
            ),
            "simulate.run_experiment_ms": recorder.median_ms(
                "simulate.run_experiment"
            ),
            "core.infer_correlation_ms": recorder.median_ms(
                "core.infer_correlation"
            ),
            "core.solvers.solve_ms": recorder.median_ms("core.solvers.solve"),
            "serve.overhead_ms": statistics.median(closed.latencies_ms) - engine_ms,
            "serve.generator_lag_ms": statistics.median(
                [lag for phase, _ in rungs for lag in phase.lags_ms]
            ),
            **stats,
            "trace.overhead_pct": (
                (statistics.median(traced) - statistics.median(untraced))
                / statistics.median(untraced)
                * 100
            ),
            "trace.spans": len(recorder.spans),
            "trace.unbalanced_spans": recorder.unbalanced(),
        }
        record["layers"] = layers
        record["spans_file"] = str(workdir / "spans.jsonl")
        recorder.dump(record["spans_file"])
    return record


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def end_to_end(record: dict) -> dict:
    latencies = record["latencies_ms"]
    failed = sum(record["failures"].values())
    return {
        "setup_s": statistics.median(record["setup_samples_s"]),
        "throughput_ops_s": len(latencies) / record["elapsed_s"],
        "latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": record["peak_rss_mb"],
        "success_share": 1.0 - failed / record["attempted"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "stream", "serve", "remote")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {common.SRC}; nothing to measure")
    spec_path = common.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    common.use_source_tree()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve":
            record = run_serve_workload(args, workdir)
        else:
            record = run_agent_workload(args, workdir)
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if "spans_file" in record:
            target = OUT / f"{stem}.spans.jsonl"
            shutil.move(record["spans_file"], target)
            record["spans_file"] = str(target.relative_to(common.ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    e2e = end_to_end(record)
    failed = sum(record["failures"].values())
    correct = record["failures"]["wrong"] == 0 and all(record["checks"].values())
    latencies = record["latencies_ms"]
    e2e_extra = {"operations": len(latencies)}
    if len(latencies) >= 100:
        e2e_extra["latency_p90_ms"] = common.percentile(latencies, 0.9)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=common.host_metadata(args.seed),
        end_to_end=e2e,
        end_to_end_extra=e2e_extra,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    units = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} ==")
    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    print(f"failures by cause: {json.dumps(record['failures'])}")
    print(f"checks: {json.dumps(record['checks'])}")
    if not args.trace:
        for name, value in {**e2e, **e2e_extra}.items():
            print(f"  {name}: {value:.6g} {units.get(name, '')}")
    for name, value in record["extra"].items():
        print(f"  {name}: {json.dumps(value)}")
    if args.trace:
        metrics_spec = spec["per_layer"]
        values = {
            metric["name"]: record["layers"].get(metric["name"], 0)
            for metric in metrics_spec
        }
        for name, value in sorted(record["layers"].items()):
            print(f"  layer {name}: {value:.6g} {units.get(name, '')}")
    else:
        metrics_spec = spec["end_to_end"]
        values = e2e
    print(f"record: {(OUT / f'{stem}.json').relative_to(common.ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": failed,
                "metrics": {
                    metric["name"]: {
                        "value": values[metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in metrics_spec
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
