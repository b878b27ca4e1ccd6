"""Distributed sweep backend: framing, fault tolerance, bit-identity."""

import ast
import contextlib
import pathlib
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.eval.dist import (
    MAGIC,
    PROTOCOL_VERSION,
    RETIRED_MAGIC,
    ChunkBoard,
    ConnectionClosed,
    FaultPlan,
    HostSpec,
    ProtocolError,
    RemoteExecutor,
    WorkerServer,
    buffer_payload,
    check_version,
    encode_context,
    parse_hosts,
    payload_to_buffer,
    recv_message,
    send_message,
)
from repro.eval.cache import TrialCache
from repro.eval.parallel import (
    SCENARIO_FACTORIES,
    ScenarioTaskError,
    _pack_error_dicts,
    _unpack_error_dicts,
    run_scenario_tasks,
    scenario_tasks,
)
from repro.simulate.experiment import ExperimentConfig

FAST = ExperimentConfig(n_snapshots=120, packets_per_path=200)

# Hang protection for the whole dist suite: a deadlocked coordinator or
# worker thread should fail a single test, not stall the entire run.
pytestmark = pytest.mark.timeout(120)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _pipe():
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


class TestFraming:
    def test_round_trip_header_and_payload(self):
        with _pipe() as (left, right):
            payload = bytes(range(256)) * 100
            send_message(
                left, {"type": "chunk", "chunk": 7, "extra": [1, 2]}, payload
            )
            header, received = recv_message(right)
        assert header == {"type": "chunk", "chunk": 7, "extra": [1, 2]}
        assert received == payload

    def test_round_trip_empty_payload(self):
        with _pipe() as (left, right):
            send_message(left, {"type": "end"})
            header, received = recv_message(right)
        assert header["type"] == "end"
        assert received == b""

    def test_multiple_frames_in_sequence(self):
        with _pipe() as (left, right):
            for index in range(5):
                send_message(left, {"type": "chunk", "chunk": index})
            got = [recv_message(right)[0]["chunk"] for _ in range(5)]
        assert got == list(range(5))

    def test_clean_close_raises_connection_closed(self):
        with _pipe() as (left, right):
            left.close()
            with pytest.raises(ConnectionClosed):
                recv_message(right)

    def test_mid_frame_close_is_not_clean(self):
        with _pipe() as (left, right):
            send_message(left, {"type": "chunk"}, b"x" * 64)
            # Retransmit a truncated copy: send only part of the frame.
            left.close()
            recv_message(right)  # the full frame arrives fine
        with _pipe() as (left, right):
            left.sendall(MAGIC)  # magic only, then vanish
            left.close()
            with pytest.raises(ProtocolError) as excinfo:
                recv_message(right)
            assert not isinstance(excinfo.value, ConnectionClosed)

    def test_bad_magic_rejected(self):
        with _pipe() as (left, right):
            left.sendall(b"BOGUS!!!" + bytes(16))
            with pytest.raises(ProtocolError, match="magic"):
                recv_message(right)

    def test_oversized_lengths_rejected(self):
        with _pipe() as (left, right):
            left.sendall(struct.pack("!4sQQ", MAGIC, 1 << 60, 0))
            with pytest.raises(ProtocolError, match="header length"):
                recv_message(right)

    def test_non_dict_header_rejected(self):
        blob = b'["not", "a", "dict"]'
        with _pipe() as (left, right):
            left.sendall(struct.pack("!4sQQ", MAGIC, len(blob), 0) + blob)
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_message(right)

    def test_packed_buffer_round_trip(self):
        dicts = [
            {"correlation": np.array([0.1, 0.2]), "independence": np.array([0.3])},
            {"correlation": np.array([], dtype=np.float64)},
        ]
        descriptor, buffer = _pack_error_dicts(dicts)
        payload = bytes(buffer_payload(buffer))
        restored = _unpack_error_dicts(
            descriptor, payload_to_buffer(payload)
        )
        assert len(restored) == 2
        assert np.array_equal(restored[0]["correlation"], [0.1, 0.2])
        assert np.array_equal(restored[0]["independence"], [0.3])
        assert restored[1]["correlation"].size == 0
        # Copies, not views into the read-only socket buffer.
        assert restored[0]["correlation"].flags.writeable

    def test_ragged_payload_rejected(self):
        with pytest.raises(ProtocolError, match="float64"):
            payload_to_buffer(b"12345")


class TestParseHosts:
    def test_comma_separated_string(self):
        assert [spec.endpoint for spec in parse_hosts("a:7100, b:7200")] == [
            ("a", 7100),
            ("b", 7200),
        ]

    def test_iterables_and_tuples(self):
        specs = parse_hosts([("a", 1), "b:2"])
        assert [spec.endpoint for spec in specs] == [("a", 1), ("b", 2)]

    def test_ipv6_brackets(self):
        (spec,) = parse_hosts("[::1]:7100")
        assert spec.endpoint == ("::1", 7100)
        assert spec.address == "[::1]:7100"

    def test_user_prefix_carried_for_ssh(self):
        specs = parse_hosts("alice@a:7100, b:7200")
        assert specs[0] == HostSpec("a", 7100, "alice")
        assert specs[0].ssh_target == "alice@a"
        assert specs[0].endpoint == ("a", 7100)  # user never connects
        assert specs[1].ssh_target == "b"

    def test_user_prefix_with_ipv6(self):
        (spec,) = parse_hosts("bob@[::1]:7100")
        assert spec == HostSpec("::1", 7100, "bob")

    def test_host_spec_entries_pass_through(self):
        spec = HostSpec("a", 7100, "carol")
        assert parse_hosts([spec]) == [spec]

    @pytest.mark.parametrize(
        "spec", ["", "hostonly", "a:notaport", "a:0", "[::1]7100"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_hosts(spec)

    @pytest.mark.parametrize("port", [0, -1, 65536, 1 << 20])
    def test_out_of_range_ports_rejected(self, port):
        with pytest.raises(ValueError, match="out of range"):
            parse_hosts([("a", port)])

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ValueError, match="duplicate worker endpoint"):
            parse_hosts("a:7100,b:7200,a:7100")

    def test_duplicate_detection_ignores_user(self):
        # Two logins to one endpoint is still one worker socket.
        with pytest.raises(ValueError, match="duplicate"):
            parse_hosts("alice@a:7100,bob@a:7100")


# ----------------------------------------------------------------------
# Remote execution
# ----------------------------------------------------------------------
@contextlib.contextmanager
def worker_fleet(count=2, /, **kwargs):
    """Run ``count`` in-thread workers; yields the server objects."""
    kwargs.setdefault("max_sessions", 1)
    servers = [WorkerServer(**kwargs) for _ in range(count)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    try:
        yield servers
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=10)


def _assert_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for errors_a, errors_b in zip(reference, candidate):
        assert set(errors_a) == set(errors_b)
        for name in errors_a:
            assert np.array_equal(errors_a[name], errors_b[name])


def _boom_factory(instance, seed=None, **kwargs):
    raise RuntimeError("injected failure")


class TestRemoteExecution:
    def test_remote_matches_serial_bit_identical(self, planetlab_small):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=21
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers]
                ),
            )
        _assert_identical(serial, remote)

    def test_worker_death_requeues_deterministically(self, planetlab_small):
        """One worker drops mid-chunk; survivors absorb the requeue."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=22
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1) as good:
            with worker_fleet(1, fail_after_chunks=1) as flaky:
                remote = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [good[0].address, flaky[0].address]
                    ),
                )
        _assert_identical(serial, remote)

    def test_death_during_send_requeues_the_claimed_chunk(
        self, planetlab_small, monkeypatch
    ):
        """A worker that dies with RST makes the *send* fail.

        The chunk was already claimed from the board at that point; it
        must be requeued (not leaked) or the sweep hangs forever —
        regression test for the SIGKILL-mid-sweep hang.
        """
        from repro.eval.dist import coordinator as coordinator_module

        # Trip both framing names the coordinator module binds.
        tripped = []

        def _flaky(real):
            def flaky_send(sock, header, payload=b""):
                if header.get("type") == "chunk" and not tripped:
                    tripped.append(header["chunk"])
                    raise OSError("simulated connection reset")
                return real(sock, header, payload)

            return flaky_send

        monkeypatch.setattr(
            coordinator_module,
            "send_message",
            _flaky(coordinator_module.send_message),
        )
        monkeypatch.setattr(
            coordinator_module,
            "send_json_message",
            _flaky(coordinator_module.send_json_message),
        )
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=30
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        outcome = {}

        def sweep():
            with worker_fleet(2) as servers:
                outcome["remote"] = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [server.address for server in servers]
                    ),
                )

        # Drive the sweep from a daemon thread so a reintroduced leak
        # fails the test instead of hanging the whole session.
        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), (
            "sweep hung: a chunk claimed by the dead worker was never "
            "requeued"
        )
        assert tripped  # the failure injection actually fired
        _assert_identical(serial, outcome["remote"])

    def test_requeued_duplicate_of_own_inflight_chunk_is_absorbed(
        self, planetlab_small
    ):
        """A dead duplicator requeues a chunk its victim still runs.

        The victim's pipeline top-up then claims a chunk it already
        has in flight; that token must collapse into the running
        execution — re-sending it would produce a second result frame
        and a ProtocolError that kills the healthy worker.  The
        interleaving is timing-dependent, but the sweep must complete
        bit-identically on every schedule this race can produce.
        """
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=34
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as wide:
            with worker_fleet(1, fail_after_chunks=0) as doomed:
                remote = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [wide[0].address, doomed[0].address],
                        straggler_timeout=0.05,
                        max_attempts=5,
                    ),
                )
        _assert_identical(serial, remote)

    def test_all_workers_lost_raises_with_task_indices(
        self, planetlab_small
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=23
        )
        with worker_fleet(2, fail_after_chunks=0) as servers:
            with pytest.raises(ScenarioTaskError) as excinfo:
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [server.address for server in servers]
                    ),
                )
        assert excinfo.value.task_indices == [0, 1, 2]

    def test_unreachable_endpoint_does_not_kill_sweep(
        self, planetlab_small
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=24
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        # Reserve a port nothing listens on.
        probe = socket.create_server(("127.0.0.1", 0))
        dead_address = "{}:{}".format(*probe.getsockname()[:2])
        probe.close()
        with worker_fleet(1) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [servers[0].address, dead_address],
                    connect_timeout=2.0,
                ),
            )
        _assert_identical(serial, remote)

    def test_remote_task_error_settles_other_chunks(
        self, planetlab_small, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(SCENARIO_FACTORIES, "boom", _boom_factory)
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=25
        )
        bad = tasks[1]
        tasks[1] = type(bad)(
            group=bad.group,
            factory="boom",
            factory_kwargs={},
            scenario_seed=bad.scenario_seed,
            run_seed=bad.run_seed,
        )
        cache = TrialCache(tmp_path / "store")
        with worker_fleet(2) as servers:
            with pytest.raises(ScenarioTaskError) as excinfo:
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    cache=cache,
                    executor=RemoteExecutor(
                        [server.address for server in servers]
                    ),
                )
        assert excinfo.value.task_indices == [1]
        # The two healthy chunks were written back despite the failure.
        assert cache.stats.stores == 2

    def test_worker_side_cache_serves_hits_without_compute(
        self, planetlab_small, monkeypatch, tmp_path
    ):
        """A populated worker cache answers even when compute would fail."""
        store = tmp_path / "shared-store"
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=26
        )
        serial = run_scenario_tasks(
            planetlab_small,
            tasks,
            config=FAST,
            workers=1,
            cache=TrialCache(store),
        )
        entries = len(list(store.rglob("*.npz")))
        assert entries == 2
        # Break the factory: only cache hits can answer now.
        monkeypatch.setitem(
            SCENARIO_FACTORIES, "clustered", _boom_factory
        )
        with worker_fleet(2, cache_dir=store) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers]
                ),
            )
        _assert_identical(serial, remote)
        assert len(list(store.rglob("*.npz"))) == entries

    def test_worker_writes_cache_as_chunks_complete(
        self, planetlab_small, tmp_path
    ):
        """A worker killed after one chunk has persisted that chunk."""
        store = tmp_path / "store"
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=27
        )
        with worker_fleet(
            1, cache_dir=store, fail_after_chunks=1
        ) as servers:
            with pytest.raises(ScenarioTaskError):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor([servers[0].address]),
                )
        # The chunk served before the crash reached the shared store.
        assert len(list(store.rglob("*.npz"))) >= 1

    def test_straggler_duplication_keeps_results_identical(
        self, planetlab_small
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=28
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers],
                    # Aggressive timeout: every chunk is eligible for
                    # speculative duplication almost immediately.
                    straggler_timeout=0.01,
                ),
            )
        _assert_identical(serial, remote)

    def test_concurrent_sessions_on_one_worker(self, planetlab_small):
        """A worker mid-sweep still serves a second coordinator."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=29
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, max_sessions=2) as servers:
            executor = RemoteExecutor([servers[0].address])
            outcomes = {}

            def sweep(label):
                outcomes[label] = run_scenario_tasks(
                    planetlab_small, tasks, config=FAST, executor=executor
                )

            first = threading.Thread(target=sweep, args=("first",))
            second = threading.Thread(target=sweep, args=("second",))
            first.start()
            second.start()
            first.join(timeout=60)
            second.join(timeout=60)
        _assert_identical(serial, outcomes["first"])
        _assert_identical(serial, outcomes["second"])

    def test_broken_pool_drops_session_instead_of_task_error(self):
        """A pool child dying (OOM, segfault) is infrastructure death:
        the worker must hang up — so the coordinator requeues the
        chunk on survivors — not report a never-retried task error."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        server = WorkerServer(capacity=2)
        try:
            left, right = socket.socketpair()
            try:
                future: Future = Future()
                future.set_exception(
                    BrokenProcessPool("child was OOM-killed")
                )
                server._send_chunk_result(
                    left, threading.Lock(), 7, future
                )
                # No error frame was sent; the peer sees a clean close
                # (the worker-down signal that triggers a requeue).
                with pytest.raises(ConnectionClosed):
                    recv_message(right)
            finally:
                left.close()
                right.close()
        finally:
            server.close()

    def test_protocol_version_mismatch_reported(self):
        with worker_fleet(1) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                send_message(
                    sock, {"type": "init", "protocol": PROTOCOL_VERSION + 1}
                )
                header, _ = recv_message(sock)
            finally:
                sock.close()
        assert header["type"] == "error"
        assert "protocol mismatch" in header["message"]


# ----------------------------------------------------------------------
# Session handshake and the capacity HELLO
# ----------------------------------------------------------------------
def _init_frame(instance, **header):
    """An ``init`` frame (header, payload) carrying a real context."""
    return (
        {"type": "init", "protocol": PROTOCOL_VERSION, **header},
        encode_context((instance, FAST, None)),
    )


class TestNegotiation:
    def test_negotiate_version_rules(self):
        """One wire: exactly this build's version is accepted."""
        check_version(PROTOCOL_VERSION)
        for offered in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, True):
            with pytest.raises(ProtocolError, match="protocol mismatch"):
                check_version(offered)

    @pytest.mark.parametrize(
        "header",
        [
            {"protocol": PROTOCOL_VERSION + 1},  # a newer build
            {"protocol": None},
            {"protocol": str(PROTOCOL_VERSION)},  # right value, wrong type
            {},
            {"protocol": PROTOCOL_VERSION - 1},  # an older build
            # The retired ladder's opening offer (baseline 1 + a max).
            {"protocol": 1, "protocol_max": PROTOCOL_VERSION},
        ],
    )
    def test_negotiate_version_rejects(self, planetlab_small, header):
        """Any ``protocol`` but this build's gets a clean refusal."""
        init, context = _init_frame(planetlab_small)
        init.pop("protocol")
        with worker_fleet(1) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                send_message(sock, {**init, **header}, context)
                reply, _ = recv_message(sock)
            finally:
                sock.close()
        assert reply["type"] == "error"
        assert reply["error"] == "protocol-mismatch"
        assert "protocol mismatch" in reply["message"]

    def test_current_coordinator_negotiates_latest_version(
        self, planetlab_small
    ):
        with worker_fleet(1, capacity=4) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                send_message(sock, *_init_frame(planetlab_small))
                header, _ = recv_message(sock)
                send_message(sock, {"type": "end"})
            finally:
                sock.close()
        assert header["type"] == "ready"
        assert header["protocol"] == PROTOCOL_VERSION
        assert header["capacity"] == 4

    def test_refusals_leave_the_worker_serving(self, planetlab_small):
        """A retired-framing frame and a mismatched ``init`` are each
        refused with an error frame — the retired one drained at the
        magic bytes, unparsed (its header and payload are bytes no
        decoder accepts) — a stale shared-memory ring offer after
        ``ready`` ends its session cleanly like any unknown frame, and
        the next session still sweeps."""
        poison = b"\x80\x04not a frame header at all"
        stale_offer = {
            "type": "shm",
            "chunk_ring": {"name": "repro-ring-stale", "slots": 2,
                           "slot_size": 64},
            "result_ring": {"name": "repro-ring-stale", "slots": 3,
                            "slot_size": 64},
        }
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=34
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, max_sessions=4) as servers:
            endpoint = (servers[0].host, servers[0].port)
            replies = []
            for frame in (
                struct.pack("!4sQQ", RETIRED_MAGIC, len(poison), 4)
                + poison
                + b"\x00" * 4,
                None,
            ):
                sock = socket.create_connection(endpoint, timeout=5)
                try:
                    if frame is None:
                        send_message(
                            sock,
                            *_init_frame(
                                planetlab_small,
                                protocol=PROTOCOL_VERSION + 1,
                            ),
                        )
                    else:
                        sock.sendall(frame)
                    replies.append(recv_message(sock)[0])
                finally:
                    sock.close()
            sock = socket.create_connection(endpoint, timeout=5)
            try:
                send_message(sock, *_init_frame(planetlab_small))
                assert recv_message(sock)[0]["type"] == "ready"
                send_message(sock, stale_offer)
                with pytest.raises(ConnectionClosed):
                    recv_message(sock)
            finally:
                sock.close()
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor([servers[0].address]),
            )
        for reply in replies:
            assert reply["type"] == "error"
            assert reply["error"] == "protocol-mismatch"
        assert "retired" in replies[0]["message"]
        assert str(PROTOCOL_VERSION + 1) in replies[1]["message"]
        _assert_identical(serial, remote)

    def test_capacity_worker_matches_serial_bit_identical(
        self, planetlab_small
    ):
        """Concurrent (process-pool) chunk execution changes nothing."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=32
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor([servers[0].address]),
            )
        _assert_identical(serial, remote)

    def test_capacity_blind_executor_stays_sequential(
        self, planetlab_small
    ):
        """capacity_aware=False is the uniform (PR-3) schedule."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=33
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [servers[0].address], capacity_aware=False
                ),
            )
        _assert_identical(serial, remote)


# ----------------------------------------------------------------------
# The one wire: bit-identity and the zero-pickle guarantee
# ----------------------------------------------------------------------
DIST_SOURCES = sorted(
    (
        pathlib.Path(__file__).resolve().parents[2]
        / "src" / "repro" / "eval" / "dist"
    ).glob("*.py")
)


class TestV4Wire:
    def test_v4_pinned_wire_matches_serial(self, planetlab_small):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=41
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers]
                ),
            )
        _assert_identical(serial, remote)

    def test_no_dist_module_imports_pickle(self):
        """Zero deserialized pickles, by construction: nothing in the
        backend can unpickle because nothing in it imports ``pickle``
        (or its C accelerator, or ``marshal``/``shelve``)."""
        assert DIST_SOURCES, "dist sources not found"
        banned = {"pickle", "_pickle", "cPickle", "marshal", "shelve"}
        offenders = []
        for path in DIST_SOURCES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] in banned:
                        offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, f"pickle imported at {offenders}"


# ----------------------------------------------------------------------
# ChunkBoard scheduling
# ----------------------------------------------------------------------
class TestChunkBoard:
    def test_claims_drain_pending_in_order(self):
        board = ChunkBoard(3, max_attempts=3)
        assert [board.claim() for _ in range(3)] == [0, 1, 2]

    def test_nonblocking_claim_returns_none_when_queue_empty(self):
        board = ChunkBoard(1, max_attempts=3)
        assert board.claim() == 0
        # Chunk 0 is outstanding, not settled: a pipelining worker must
        # not stall here waiting for the straggler clock.
        assert board.claim(10.0, block=False) is None

    def test_speculation_wait_tracks_oldest_inflight_chunk(self):
        """The idle wait is computed, not a fixed timeout/2 poll."""
        board = ChunkBoard(2, max_attempts=3)
        assert board.claim() == 0
        import time as time_module

        now = time_module.monotonic()
        started = board.outstanding[0]
        wait = board._speculation_wait(now, 10.0)
        # Chunk 0 just started: the wait runs to its eligibility, not
        # to a generic poll interval.
        assert wait == pytest.approx(started + 10.0 - now, abs=0.05)
        # No eligible in-flight chunk → sleep until notified.
        board.claim()  # chunk 1 outstanding too
        board.attempts[0] = board.max_attempts
        board.attempts[1] = board.max_attempts
        assert board._speculation_wait(now, 10.0) is None

    def test_settle_wakes_blocked_claimers(self):
        board = ChunkBoard(1, max_attempts=3)
        assert board.claim() == 0
        results = []

        def idle_claim():
            results.append(board.claim(straggler_timeout=30.0))

        thread = threading.Thread(target=idle_claim)
        thread.start()
        time.sleep(0.1)
        board.settle(0)  # wakes the claimer immediately: all settled
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [None]

    @staticmethod
    def _await_idle(board, count, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with board.condition:
                if len(board._idle) >= count:
                    return
            time.sleep(0.005)
        raise AssertionError(f"{count} idle claimer(s) never parked")

    def test_straggler_duplicate_steers_to_fastest_idle_worker(self):
        # max_attempts=2: after the duplicate is granted the chunk can
        # never ripen again, so the slow claimer provably stays idle
        # because of *steering*, not because it ran out of attempts.
        board = ChunkBoard(1, max_attempts=2)
        assert board.claim(capacity=1) == 0  # now outstanding
        claims = {}

        def claimer(name, capacity):
            claims[name] = board.claim(
                straggler_timeout=0.3, capacity=capacity
            )

        # Park the fast claimer first and *wait until it is registered
        # idle* before starting the slow one, so the slow claimer can
        # never observe an empty idle set and grab the duplicate
        # itself — the ripeness race would otherwise flake on a loaded
        # machine.
        fast = threading.Thread(target=claimer, args=("fast", 4))
        fast.start()
        self._await_idle(board, 1)
        slow = threading.Thread(target=claimer, args=("slow", 1))
        slow.start()
        self._await_idle(board, 2)
        deadline = time.monotonic() + 10.0
        while "fast" not in claims and time.monotonic() < deadline:
            time.sleep(0.01)  # chunk ripens ~0.3 s after its claim
        assert claims.get("fast") == 0
        assert "slow" not in claims  # still deferring
        board.settle(0)
        slow.join(timeout=5)
        fast.join(timeout=5)
        assert claims["slow"] is None

    def test_duplicates_bounded_by_max_attempts(self):
        board = ChunkBoard(1, max_attempts=2)
        assert board.claim(0.01, capacity=1) == 0
        with board.condition:
            board.outstanding[0] -= 1.0
        # Second (and last allowed) attempt is granted...
        assert board.claim(0.01, capacity=1, block=True) == 0
        # ...after which the chunk is never duplicated again: the next
        # idle claim waits for a settle instead of a third grant.
        settled = threading.Timer(0.3, board.settle, args=(0,))
        settled.start()
        assert board.claim(0.01, capacity=1) is None
        settled.join()

    def test_holding_skips_own_inflight_chunk_without_charging(self):
        board = ChunkBoard(2, max_attempts=3)
        assert board.claim() == 0
        board.requeue(0)  # a dead duplicate holder put it back
        # The holder's own top-up must not get chunk 0 again — and the
        # skipped token must stay queued (uncharged) for other workers.
        assert board.claim(block=False, holding={0}) == 1
        assert board.claim(block=False, holding={0, 1}) is None
        assert board.attempts[0] == 1  # no phantom attempt
        assert board.claim(block=False) == 0  # another worker takes it
        assert board.attempts[0] == 2

    def test_requeue_puts_chunk_at_front(self):
        board = ChunkBoard(3, max_attempts=3)
        assert board.claim() == 0
        assert board.claim() == 1
        board.requeue(1)
        assert board.claim() == 1  # ahead of chunk 2
        assert board.claim() == 2


# ----------------------------------------------------------------------
# Robustness surfaces: sweep stats
# ----------------------------------------------------------------------
class TestRobustnessSurfaces:
    def test_sweep_stats_count_sessions_and_render(self, planetlab_small):
        """S2: each sweep's counters are collected and rendered.

        A clean one-worker sweep opens one session, loses nothing and
        requeues nothing; ``render`` (what ``--dist-stats`` prints)
        reports exactly that.
        """
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=62
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, capacity=2) as servers:
            executor = RemoteExecutor([server.address for server in servers])
            remote = run_scenario_tasks(
                planetlab_small, tasks, config=FAST, executor=executor
            )
        _assert_identical(serial, remote)
        stats = executor.last_sweep_stats
        assert (stats.workers, stats.sessions) == (1, 1)
        assert stats.worker_losses == stats.requeued_chunks == 0
        assert stats.render().startswith(
            "1 workers, 1 sessions, 0 connect retries, 0 worker losses"
        )
