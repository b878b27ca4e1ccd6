"""Wire security: shared-secret handshake, TLS, fail-closed semantics.

The invariant every test here defends: when a secret (or TLS) is
configured, nothing a peer sends is parsed — header or payload — until
the handshake proves the peer holds the same configuration, and
every mismatch fails *closed* with a clean
:class:`~repro.exceptions.DistSecurityError` instead of a hang, a
traceback, or (worst) a silently-accepted session.
"""

import contextlib
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.eval.dist import (
    AUTH_MAGIC,
    PROTOCOL_VERSION,
    RETIRED_MAGIC,
    AuthError,
    ConnectionClosed,
    DistSecurityError,
    ProtocolError,
    RemoteExecutor,
    TlsMismatchError,
    WorkerServer,
    client_context,
    client_handshake,
    generate_self_signed,
    normalize_secret,
    recv_message,
    resolve_secret,
    send_message,
    server_context,
    server_handshake,
)
from repro.eval.dist.auth import _HELLO_BODY, _send_auth, compute_mac
from repro.eval.dist.auth import _HELLO as HELLO_KIND
from repro.eval.dist.auth import _PROVE as PROVE_KIND
from repro.eval.parallel import run_scenario_tasks, scenario_tasks
from repro.simulate.experiment import ExperimentConfig

FAST = ExperimentConfig(n_snapshots=120, packets_per_path=200)

SECRET = b"a-test-fleet-token"


@contextlib.contextmanager
def _pipe():
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


def _handshake_pair(client_secret, server_secret):
    """Run both handshake halves over a socketpair; return outcomes."""
    outcome = {}
    with _pipe() as (left, right):

        def server():
            try:
                outcome["server"] = server_handshake(right, server_secret)
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                outcome["server_error"] = exc

        thread = threading.Thread(target=server)
        thread.start()
        try:
            outcome["client"] = client_handshake(left, client_secret)
        except Exception as exc:  # noqa: BLE001
            outcome["client_error"] = exc
        thread.join(timeout=10)
        assert not thread.is_alive()
    return outcome


@contextlib.contextmanager
def worker_fleet(count=1, /, **kwargs):
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


@pytest.fixture(scope="module")
def tls_material(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tls")
    return generate_self_signed(directory)


# ----------------------------------------------------------------------
# Handshake primitives
# ----------------------------------------------------------------------
class TestHandshake:
    def test_round_trip_negotiates_current_version(self):
        outcome = _handshake_pair(SECRET, SECRET)
        assert outcome["client"] == PROTOCOL_VERSION
        assert outcome["server"] == PROTOCOL_VERSION

    def test_wrong_secret_rejected_both_sides(self):
        outcome = _handshake_pair(b"not-the-secret", SECRET)
        assert isinstance(outcome["client_error"], AuthError)
        assert isinstance(outcome["server_error"], AuthError)
        # Symmetric wording: the reason must not say which side's MAC
        # computation "won".
        assert "authentication failed" in str(
            outcome["server_error"]
        ) or "authentication" in str(outcome["server_error"])

    def test_secretless_server_rejects_with_reason(self):
        outcome = _handshake_pair(SECRET, None)
        assert isinstance(outcome["client_error"], AuthError)
        assert "no shared secret" in str(outcome["client_error"])
        assert isinstance(outcome["server_error"], AuthError)

    def test_truncated_handshake_frame_is_protocol_error(self):
        """A hello that stops mid-body tears cleanly, never hangs."""
        with _pipe() as (left, right):
            # Magic + kind + a length promising more body than we send.
            left.sendall(
                struct.pack("!4sBI", AUTH_MAGIC, HELLO_KIND, 20)
                + b"\x00" * 4
            )
            left.close()
            with pytest.raises(ProtocolError):
                server_handshake(right, SECRET)

    def test_oversized_auth_body_rejected(self):
        with _pipe() as (left, right):
            left.sendall(
                struct.pack("!4sBI", AUTH_MAGIC, HELLO_KIND, 1 << 20)
            )
            with pytest.raises(ProtocolError, match="exceeds"):
                server_handshake(right, SECRET)

    def test_legacy_frame_answering_auth_is_auth_error(self):
        """A peer speaking session frames at the auth layer is refused
        without parsing anything it sent."""
        with _pipe() as (left, right):
            send_message(left, {"type": "ready", "protocol": 1})
            with pytest.raises(AuthError, match="session frame"):
                server_handshake(right, SECRET)

    def test_replayed_handshake_rejected(self):
        """Nonce reuse: a recorded transcript fails against the fresh
        challenge of a new connection."""
        # First, a legitimate exchange whose client frames we keep.
        recorded = {}
        with _pipe() as (left, right):

            def server():
                recorded["version"] = server_handshake(right, SECRET)

            thread = threading.Thread(target=server)
            thread.start()
            nonce_c = b"\x01" * 16
            _send_auth(
                left,
                HELLO_KIND,
                _HELLO_BODY.pack(nonce_c, PROTOCOL_VERSION),
            )
            from repro.eval.dist.auth import _recv_auth

            kind, body = _recv_auth(left)
            nonce_w, _ = _HELLO_BODY.unpack(body)
            proof = compute_mac(
                SECRET, b"C", nonce_c, nonce_w, PROTOCOL_VERSION
            )
            _send_auth(left, PROVE_KIND, proof)
            _recv_auth(left)  # the OK frame
            thread.join(timeout=10)
            assert recorded["version"] == PROTOCOL_VERSION
        # Replay the identical hello + proof on a new connection: the
        # server's nonce is fresh, so the recorded proof must fail.
        with _pipe() as (left, right):
            outcome = {}

            def replay_target():
                try:
                    server_handshake(right, SECRET)
                except Exception as exc:  # noqa: BLE001
                    outcome["error"] = exc

            thread = threading.Thread(target=replay_target)
            thread.start()
            _send_auth(
                left,
                HELLO_KIND,
                _HELLO_BODY.pack(nonce_c, PROTOCOL_VERSION),
            )
            _recv_auth(left)  # fresh challenge, ignored by the replayer
            _send_auth(left, PROVE_KIND, proof)  # the *recorded* proof
            kind, body = _recv_auth(left)
            thread.join(timeout=10)
        from repro.eval.dist.auth import _REJECT

        assert kind == _REJECT
        assert isinstance(outcome["error"], AuthError)

    def test_mac_binds_negotiated_version(self):
        """Downgrading the version in the MAC input fails the proof."""
        assert compute_mac(
            SECRET, b"C", b"\x01" * 16, b"\x02" * 16, 3
        ) != compute_mac(SECRET, b"C", b"\x01" * 16, b"\x02" * 16, 2)

    def test_pre_v3_peer_cannot_authenticate(self):
        """An auth hello from an older protocol version is refused."""
        with _pipe() as (left, right):
            _send_auth(
                left,
                HELLO_KIND,
                _HELLO_BODY.pack(b"\x03" * 16, PROTOCOL_VERSION - 1),
            )
            with pytest.raises(AuthError, match="protocol mismatch"):
                server_handshake(right, SECRET)


class TestSecretResolution:
    def test_normalize_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_secret("   ")
        with pytest.raises(TypeError):
            normalize_secret(123)
        assert normalize_secret(" tok \n") == b"tok"
        assert normalize_secret(None) is None

    def test_resolve_precedence_file_over_env(self, tmp_path):
        secret_file = tmp_path / "secret"
        secret_file.write_text("from-file\n")
        env = {"REPRO_DIST_SECRET": "from-env"}
        assert resolve_secret(secret_file, env=env) == b"from-file"
        assert resolve_secret(None, env=env) == b"from-env"
        assert resolve_secret(None, env={}) is None

    def test_resolve_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            resolve_secret(empty)


# ----------------------------------------------------------------------
# Worker-side fail-closed semantics
# ----------------------------------------------------------------------
class TestWorkerFailClosed:
    def test_v2_peer_refused_before_payload_exchange(self):
        """A retired-framing (pickled-header) init against a
        secret-configured worker is answered with a clean error frame —
        and neither the header nor the payload is ever parsed, proven
        by sending bytes that no decoder accepts."""
        poison = b"\x80\x04not a frame header at all"
        with worker_fleet(1, secret=SECRET) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                # A hand-built init whose header *and* payload are
                # poisoned: a worker that touched either would blow up
                # before replying.
                sock.sendall(
                    struct.pack(
                        "!4sQQ", RETIRED_MAGIC, len(poison), len(poison)
                    )
                    + poison
                    + poison
                )
                header, _ = recv_message(sock)
            finally:
                sock.close()
        assert header["type"] == "error"
        assert header["error"] == "auth-required"
        assert "shared-secret" in header["message"]

    def test_wrong_secret_refused_before_unpickling(self):
        """The handshake fails before any frame beyond auth is read."""
        with worker_fleet(1, secret=SECRET) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            try:
                with pytest.raises(AuthError):
                    client_handshake(sock, b"wrong-token")
            finally:
                sock.close()

    def test_worker_survives_refused_sessions(self, planetlab_small):
        """Refusals never cost the worker; the next good session runs."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=61
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, secret=SECRET, max_sessions=3) as servers:
            address = servers[0].address
            # Refusal 1: wrong secret.
            with pytest.raises(DistSecurityError):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor([address], secret=b"wrong"),
                )
            # Refusal 2: no secret at all.
            with pytest.raises(DistSecurityError):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor([address]),
                )
            # Session 3: the real sweep, bit-identical.
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor([address], secret=SECRET),
            )
        _assert_identical(serial, remote)

    def test_secret_on_coordinator_only_fails_closed(
        self, planetlab_small
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=62
        )
        with worker_fleet(1) as servers:  # worker has no secret
            with pytest.raises(
                DistSecurityError, match="no shared secret"
            ):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [servers[0].address], secret=SECRET
                    ),
                )

    def test_secret_on_worker_only_fails_closed(self, planetlab_small):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=63
        )
        with worker_fleet(1, secret=SECRET) as servers:
            with pytest.raises(DistSecurityError, match="requires"):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor([servers[0].address]),
                )

    def test_slow_drip_handshake_hits_absolute_deadline(self):
        """handshake_timeout is a deadline, not a per-recv window: a
        peer dripping bytes slower than the frame needs is cut off at
        the deadline instead of pinning a session thread forever."""
        with worker_fleet(
            1, secret=SECRET, handshake_timeout=1.0
        ) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            sock.settimeout(10.0)
            start = time.monotonic()
            cut_off = False
            try:
                # Keep each gap well under any per-recv window; only
                # an absolute deadline can end this connection.  Once
                # the reaper closes it, a send raises within a probe
                # or two.
                for index in range(40):
                    sock.sendall(AUTH_MAGIC[index % 4 : index % 4 + 1])
                    time.sleep(0.2)
            except OSError:
                cut_off = True
            finally:
                elapsed = time.monotonic() - start
                sock.close()
        assert cut_off, "drip-fed handshake was never cut off"
        assert elapsed < 6.0, (
            f"drip-fed handshake survived {elapsed:.1f}s past a 1s "
            "deadline"
        )

    def test_truncated_handshake_leaves_worker_serving(
        self, planetlab_small
    ):
        """A connection that dies mid-handshake is one torn session,
        not a denial of service."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=64
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, secret=SECRET, max_sessions=2) as servers:
            sock = socket.create_connection(
                (servers[0].host, servers[0].port), timeout=5
            )
            sock.sendall(AUTH_MAGIC + b"\x01")  # torn mid-prefix
            sock.close()
            time.sleep(0.2)
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [servers[0].address], secret=SECRET
                ),
            )
        _assert_identical(serial, remote)


# ----------------------------------------------------------------------
# Authenticated + TLS sweeps
# ----------------------------------------------------------------------
class TestSecuredSweeps:
    def test_authenticated_sweep_bit_identical(self, planetlab_small):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=65
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(2, secret=SECRET) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers], secret=SECRET
                ),
            )
        _assert_identical(serial, remote)

    def test_tls_and_secret_sweep_bit_identical(
        self, planetlab_small, tls_material
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=66
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(
            2,
            secret=SECRET,
            ssl_context=server_context(
                tls_material.cert, tls_material.key
            ),
        ) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [server.address for server in servers],
                    secret=SECRET,
                    ssl_context=client_context(cafile=tls_material.cert),
                ),
            )
        _assert_identical(serial, remote)

    def test_tls_capacity_worker_bit_identical(
        self, planetlab_small, tls_material
    ):
        """TLS + auth + the concurrent (process-pool) session path."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=4, seed=67
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(
            1,
            capacity=2,
            secret=SECRET,
            ssl_context=server_context(
                tls_material.cert, tls_material.key
            ),
        ) as servers:
            remote = run_scenario_tasks(
                planetlab_small,
                tasks,
                config=FAST,
                executor=RemoteExecutor(
                    [servers[0].address],
                    secret=SECRET,
                    ssl_context=client_context(cafile=tls_material.cert),
                ),
            )
        _assert_identical(serial, remote)

    def test_plaintext_coordinator_refused_by_tls_worker(
        self, planetlab_small, tls_material
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=68
        )
        with worker_fleet(
            1,
            ssl_context=server_context(
                tls_material.cert, tls_material.key
            ),
        ) as servers:
            with pytest.raises(DistSecurityError, match="TLS"):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor([servers[0].address]),
                )

    def test_tls_coordinator_refused_by_plaintext_worker(
        self, planetlab_small, tls_material
    ):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=69
        )
        with worker_fleet(1) as servers:  # plaintext worker
            with pytest.raises(DistSecurityError):
                run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [servers[0].address],
                        ssl_context=client_context(
                            cafile=tls_material.cert
                        ),
                        connect_timeout=5.0,
                    ),
                )

    def test_mixed_fleet_partial_auth_failure_still_completes(
        self, planetlab_small
    ):
        """One worker with the right secret carries the sweep; the
        misconfigured one is just a down worker."""
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=70
        )
        serial = run_scenario_tasks(
            planetlab_small, tasks, config=FAST, workers=1
        )
        with worker_fleet(1, secret=SECRET) as good:
            with worker_fleet(1, secret=b"other-token") as bad:
                remote = run_scenario_tasks(
                    planetlab_small,
                    tasks,
                    config=FAST,
                    executor=RemoteExecutor(
                        [good[0].address, bad[0].address], secret=SECRET
                    ),
                )
        _assert_identical(serial, remote)


class TestCerts:
    def test_generated_material_loads_into_contexts(self, tls_material):
        server_context(tls_material.cert, tls_material.key)
        client_context(cafile=tls_material.cert)

    def test_key_is_private(self, tls_material):
        import os
        import stat

        mode = stat.S_IMODE(os.stat(tls_material.key).st_mode)
        assert mode == 0o600

    def test_tls_mismatch_error_is_security_error(self):
        assert issubclass(TlsMismatchError, DistSecurityError)
        assert issubclass(TlsMismatchError, ProtocolError)

    def test_bad_magic_for_tls_record_names_tls(self):
        from repro.eval.dist.protocol import bad_magic_error

        error = bad_magic_error(b"\x16\x03\x01\x00", "RTD1")
        assert isinstance(error, TlsMismatchError)
        assert "TLS" in str(error)


class TestConnectionClosedPaths:
    def test_client_handshake_against_closed_socket(self):
        with _pipe() as (left, right):
            right.close()
            with pytest.raises((AuthError, ProtocolError, OSError)):
                client_handshake(left, SECRET)

    def test_client_reports_pre_v3_worker_as_auth_error(self):
        """An old worker drops the auth hello (bad magic on its side);
        the coordinator names the likely cause instead of a bare EOF."""
        with _pipe() as (left, right):

            def old_worker():
                try:
                    recv_message(right)  # chokes on the auth magic
                except ProtocolError:
                    pass
                right.close()

            thread = threading.Thread(target=old_worker)
            thread.start()
            with pytest.raises(AuthError, match="does not speak"):
                client_handshake(left, SECRET)
            thread.join(timeout=10)

    def test_connection_closed_is_still_clean_eof(self):
        with _pipe() as (left, right):
            left.close()
            with pytest.raises(ConnectionClosed):
                recv_message(right)
