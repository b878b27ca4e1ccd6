"""Worker side of the distributed sweep backend.

A :class:`WorkerServer` listens on one TCP port and serves coordinator
sessions: each accepted connection is one sweep session.  The
coordinator's ``init`` frame ships the (instance, config, options)
triple exactly once per session as a canonical-JSON context
(:mod:`repro.eval.dist.codec`); every subsequent ``chunk`` frame carries
a list of :class:`repro.eval.parallel.ScenarioTask` records as
fixed-width struct records, and the worker answers with the chunk's
error vectors as one packed float64 payload (the same transport the
in-host pool uses).  Nothing a peer sends is ever unpickled.  The
session socket is the only data plane: any frame other than ``ping``,
``chunk`` or ``end`` after ``ready`` ends the session.

Capacity: the ``ready`` frame advertises the worker's *capacity* — how
many chunks it can compute at once (``repro-tomography worker``
defaults to the CPU count; ``--capacity`` overrides).  A capacity-``C``
session executes up to ``C`` in-flight chunks concurrently on a process
pool (results may return out of order; the coordinator keys them by
chunk index); a capacity-1 session computes each chunk in the session
thread.

Cache semantics: when the worker is given a cache directory (its own
``--cache-dir`` flag or ``REPRO_CACHE_DIR``; typically a store shared
across workers via a network filesystem), each task is looked up before
executing — hits are served without compute — and each miss is written
back *as the task completes*, not after the sweep.  A worker killed
mid-chunk therefore still leaves every finished trial in the store, and
the retry only pays for what was genuinely lost.

Fault injection: ``fail_after_chunks=N`` makes the worker accept ``N``
chunks and then drop the connection without replying to the next one,
which is exactly what a worker killed mid-chunk looks like to the
coordinator.  The deterministic requeue tests and the distributed
benchmark's kill leg are built on it.  ``throttle=S`` sleeps ``S``
seconds before each task — latency injection that simulates a slower
or I/O-bound host without burning CPU, so the benchmark's
heterogeneous-capacity scenario reproduces on any machine; results are
delayed, never changed.

Run a worker from the CLI::

    repro-tomography worker --port 7100 --cache-dir /shared/store

or over SSH (the coordinator connects to ``host:7100``)::

    ssh host repro-tomography worker --bind 0.0.0.0 --port 7100
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import ssl
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.eval.dist.auth import (
    AUTH_MAGIC,
    AuthError,
    normalize_secret,
    server_handshake,
)
from repro.eval.dist.codec import decode_context, decode_tasks
from repro.eval.dist.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    RETIRED_MAGIC,
    ConnectionClosed,
    ProtocolError,
    _FRAME_REST,
    _recv_exact,
    buffer_payload,
    check_version,
    disable_nagle,
    read_magic,
    recv_json_message,
    send_json_message,
)
from repro.eval.dist.faults import active_plan
from repro.eval.parallel import _execute_task, _pack_error_dicts

__all__ = ["WorkerServer"]


# Pool-process state installed once by the initializer: each process
# opens its own cache handle so write-back happens task-by-task inside
# the process that computed the task, exactly like the sequential path.
_POOL_STATE: tuple | None = None


#: How many frame bytes a refusal will read-and-discard so its error
#: message survives.  Closing a socket with unread inbound data sends
#: RST, which can destroy the refusal frame mid-flight — so the worker
#: drains (never parses) the refused frame first.  A peer whose frame
#: exceeds the cap still fails closed; it just gets a reset instead of
#: the message.
_REFUSAL_DRAIN_CAP = 256 * 1024 * 1024


def _drain_refused_frame(connection, magic: bytes) -> None:
    """Consume — never parse — the frame a refused peer already sent.

    Only the plain-integer length fields are interpreted; header and
    payload bytes go straight to the bit bucket, so nothing a rejected
    peer sends is ever decoded.
    """
    try:
        if magic in (MAGIC, RETIRED_MAGIC):
            header_len, payload_len = _FRAME_REST.unpack(
                _recv_exact(
                    connection, _FRAME_REST.size, at_boundary=False
                )
            )
            pending = header_len + payload_len
        elif magic == AUTH_MAGIC:
            # kind (u8) | body length (u32): auth bodies are tiny.
            rest = _recv_exact(connection, 5, at_boundary=False)
            pending = int.from_bytes(rest[1:], "big")
        else:
            return
        pending = min(pending, _REFUSAL_DRAIN_CAP)
        while pending:
            piece = connection.recv(min(1 << 16, pending))
            if not piece:
                return
            pending -= len(piece)
    except (OSError, ProtocolError):
        pass


def _pool_initializer(
    instance, config, options, cache_dir, throttle, fingerprint
) -> None:
    # ``fingerprint`` is the coordinator's, shipped in the context, so
    # remote cache keys are byte-for-byte the keys the coordinator
    # would compute.
    global _POOL_STATE
    cache = None
    if cache_dir is not None:
        from repro.eval.cache import TrialCache

        cache = TrialCache(cache_dir)
    _POOL_STATE = (instance, config, options, cache, fingerprint, throttle)


def _run_chunk_tasks(
    tasks, instance, config, options, cache, fingerprint, throttle
):
    """Execute one chunk's tasks (cache-aware, throttle-aware), packed.

    The single definition of per-task semantics — the sequential
    session path and the pool path must never diverge on e.g. where
    the throttle sleeps relative to the cache lookup.
    """
    results = []
    for task in tasks:
        if throttle:
            time.sleep(throttle)
        results.append(
            WorkerServer._run_task(
                instance, config, options, task, cache, fingerprint
            )
        )
    return _pack_error_dicts(results)


def _pool_run_chunk(payload: bytes):
    # The payload is a canonical-JSON task chunk, decoded in the child so
    # the session thread stays a pure frame pump.
    tasks = decode_tasks(payload)
    instance, config, options, cache, fingerprint, throttle = _POOL_STATE
    return _run_chunk_tasks(
        tasks, instance, config, options, cache, fingerprint, throttle
    )


class _HeartbeatSender:
    """Unsolicited liveness pongs, one per half heartbeat interval.

    Armed when the coordinator's ``init`` frame carries a ``heartbeat``
    key: a daemon thread sends ``{"type": "pong"}`` frames every
    ``interval / 2`` under the session's send lock, so the coordinator
    observes traffic at least twice per interval from a healthy worker
    no matter how long a chunk computes.  A worker that is stopped
    (SIGSTOP), swapped to death, or wedged in a non-Python stall stops
    beating — which is the whole point: silence, not a closed socket,
    is what the coordinator's liveness monitor detects.

    ``freeze`` suppresses the beats for a bounded window (the chaos
    plane's in-process SIGSTOP lookalike).  Send failures end the
    thread quietly; the serve loop notices the dead session on its own.
    """

    def __init__(self, connection, send_lock, interval, log) -> None:
        self._connection = connection
        self._send_lock = send_lock
        self._interval = float(interval)
        self._log = log
        self._stop = threading.Event()
        self._frozen = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="worker-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._log(
            f"heartbeat armed: pong every {self._interval / 2.0:g}s"
        )
        self._thread.start()

    def _run(self) -> None:
        beat = 0
        while not self._stop.wait(self._interval / 2.0):
            if self._frozen.is_set():
                continue
            beat += 1
            try:
                with self._send_lock:
                    send_json_message(
                        self._connection, {"type": "pong", "beat": beat}
                    )
            except (OSError, ProtocolError):
                return  # session is gone; the serve loop handles it

    def freeze(self, seconds: float) -> None:
        """Suppress beats for ``seconds`` (caller's thread sleeps too)."""
        self._frozen.set()
        try:
            time.sleep(seconds)
        finally:
            self._frozen.clear()

    def stop(self) -> None:
        self._stop.set()


class WorkerServer:
    """Serve sweep sessions on ``host:port`` (``port=0`` → ephemeral).

    Parameters:
        capacity: Parallel chunk slots advertised in the ``ready``
            frame; sessions with ``capacity > 1`` execute their
            in-flight chunks on a process pool of that size.  Defaults
            to 1 (chunks computed in the session thread); the CLI
            worker defaults to the CPU count instead.  The pool (and
            the advertisement) is per *session*: a worker shared by two
            overlapping sweeps runs up to ``2 × capacity`` compute
            processes, so size ``--capacity`` for the share of the
            host each concurrent sweep should get on shared-fleet
            deployments.
        cache_dir: Optional :class:`repro.eval.cache.TrialCache` root;
            tasks are looked up before executing and written back as
            they complete.
        max_sessions: Stop accepting after this many sessions (``None``
            = serve forever).  CI and tests use it to bound lifetime.
        fail_after_chunks: Fault-injection hook — accept this many
            chunks per session, then drop the connection without
            replying.
        throttle: Latency-injection hook — sleep this many seconds
            before each task (a simulated slower host; results are
            delayed, never changed).
        secret: Shared secret (str or bytes).  When set, every session
            must complete the HMAC handshake
            (:func:`repro.eval.dist.auth.server_handshake`) before the
            worker parses any session frame; unauthenticated peers are
            refused at the magic bytes.  ``None`` keeps the
            trust-the-network behaviour.
        ssl_context: Optional server-side :class:`ssl.SSLContext`
            (see :func:`repro.eval.dist.certs.server_context`); every
            accepted connection is TLS-wrapped before any frame is
            read, and a plaintext peer is dropped at the TLS handshake.
        handshake_timeout: Seconds a new connection gets to finish
            TLS + auth + ``init``; a half-open or stalling peer is
            dropped instead of pinning a session thread forever.
        log: Callable for one-line status messages (``None`` = silent).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        capacity: int = 1,
        cache_dir=None,
        max_sessions: int | None = None,
        fail_after_chunks: int | None = None,
        throttle: float = 0.0,
        secret=None,
        ssl_context: ssl.SSLContext | None = None,
        handshake_timeout: float = 30.0,
        log=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if throttle < 0:
            raise ValueError(f"throttle must be >= 0, got {throttle}")
        if handshake_timeout <= 0:
            raise ValueError(
                f"handshake_timeout must be positive, got "
                f"{handshake_timeout}"
            )
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self.capacity = capacity
        self._cache_dir = cache_dir
        self._max_sessions = max_sessions
        self._fail_after_chunks = fail_after_chunks
        self._throttle = throttle
        self._secret = normalize_secret(secret)
        self._ssl_context = ssl_context
        self._handshake_timeout = handshake_timeout
        self._log = log or (lambda message: None)
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        self._closed = True
        try:
            self._server.close()
        except OSError:
            pass

    def serve_forever(self) -> int:
        """Accept sessions until ``max_sessions`` or :meth:`close`.

        Sessions run concurrently, one thread each, so a worker busy
        with a long sweep still handshakes a second coordinator
        immediately (two overlapping sweeps sharing a worker fleet is
        the documented shared-cache deployment).  Active sessions are
        joined before returning, so ``max_sessions=N`` never cuts a
        running sweep short.
        """
        sessions = 0
        threads: list[threading.Thread] = []
        self._log(f"worker listening on {self.address}")
        if self._secret is not None or self._ssl_context is not None:
            tls = "on" if self._ssl_context is not None else "off"
            secret = "configured" if self._secret is not None else "off"
            self._log(f"worker security: tls={tls} secret={secret}")
        try:
            while (
                self._max_sessions is None
                or sessions < self._max_sessions
            ):
                try:
                    connection, peer = self._server.accept()
                except OSError:
                    break  # closed from another thread
                plan = active_plan()
                if plan is not None and plan.refuse_connect():
                    # Chaos: look exactly like a crashed listener —
                    # accept then reset, no frame ever sent.  Does not
                    # count against max_sessions, so the retried
                    # connect still finds a session slot.
                    self._log(
                        f"chaos: refusing connection from "
                        f"{peer[0]}:{peer[1]}"
                    )
                    try:
                        connection.close()
                    except OSError:
                        pass
                    continue
                sessions += 1
                self._log(f"session {sessions} from {peer[0]}:{peer[1]}")
                thread = threading.Thread(
                    target=self._session_thread,
                    args=(connection,),
                    name=f"worker-session-{sessions}",
                )
                thread.start()
                threads.append(thread)
        finally:
            for thread in threads:
                thread.join()
            self.close()
        return sessions

    def _refuse(self, connection, error: str, message: str, log: str):
        """Answer a refused peer with one ``error`` frame, then log.

        The peer's frame has already been drained unparsed; the refusal
        names the reason so the coordinator can render a configuration
        error rather than a bare connection reset.
        """
        try:
            send_json_message(
                connection,
                {
                    "type": "error",
                    "error": error,
                    "chunk": None,
                    "message": message,
                    "traceback": "",
                },
            )
        except OSError:
            pass
        self._log(log)

    def _session_thread(self, raw: socket.socket) -> None:
        disable_nagle(raw)
        wrapped = None
        live = [raw]
        handshake_done = threading.Event()

        def _reap_stalled_handshake() -> None:
            # The per-recv socket timeout alone is not a deadline: a
            # peer dripping one byte per interval restarts it forever.
            # This timer enforces the absolute window — close the
            # socket(s), and whatever recv the session thread is
            # parked in raises.
            if not handshake_done.is_set():
                for sock in list(live):
                    try:
                        sock.close()
                    except OSError:
                        pass

        reaper = threading.Timer(
            self._handshake_timeout, _reap_stalled_handshake
        )
        reaper.daemon = True
        reaper.start()
        try:
            try:
                # A bounded handshake window: a half-open peer (or a
                # plaintext client staring at a TLS listener) is
                # dropped instead of pinning this thread forever.  The
                # session switches to blocking mode once it is up.
                raw.settimeout(self._handshake_timeout)
                if self._ssl_context is not None:
                    # Sniff (without consuming) the first bytes: our
                    # own plaintext magics mean a peer that forgot TLS
                    # and deserves a readable refusal.
                    first = raw.recv(4, socket.MSG_PEEK)
                    if first and first in (
                        MAGIC[: len(first)],
                        RETIRED_MAGIC[: len(first)],
                        AUTH_MAGIC[: len(first)],
                    ):
                        _drain_refused_frame(raw, read_magic(raw))
                        self._refuse(
                            raw,
                            "tls-required",
                            "this worker serves TLS; configure --tls-ca "
                            "(and --tls-cert/--tls-key for mutual TLS) "
                            "on the coordinator",
                            "refused plaintext session on the TLS "
                            "listener; no payload was read",
                        )
                        return
                    wrapped = self._ssl_context.wrap_socket(
                        raw, server_side=True
                    )
                    live.append(wrapped)
                self._serve_session(
                    wrapped if wrapped is not None else raw,
                    handshake_done,
                )
            except Exception as exc:
                # A torn session never takes the worker down — not just
                # transport errors but anything a mismatched coordinator
                # can provoke (undecodable payloads, malformed headers,
                # failed TLS or auth handshakes): log and keep serving
                # other sessions.
                self._log(f"session aborted: {exc!r}")
        finally:
            reaper.cancel()
            for sock in (wrapped, raw):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    # -- one session ---------------------------------------------------
    def _open_cache(self):
        if self._cache_dir is None:
            return None
        from repro.eval.cache import TrialCache

        return TrialCache(self._cache_dir)

    def _serve_session(
        self, connection: socket.socket, handshake_done=None
    ) -> None:
        """Handshake (auth, ``init``, ``ready``), then serve chunks.

        Dispatch on the first 4 bytes so the secured path decides
        before any header byte is parsed.
        """
        magic = read_magic(connection)
        if magic == AUTH_MAGIC:
            try:
                server_handshake(
                    connection, self._secret, preread_magic=magic
                )
            except AuthError as exc:
                # The rejection frame is already on the wire; log and
                # drop without ever touching a payload.
                self._log(f"auth refused: {exc}")
                return
            magic = None
        elif self._secret is not None:
            # Refuse unauthenticated peers at the magic bytes: their
            # frame is drained, never parsed, so the refusal below is
            # not destroyed by a reset.
            _drain_refused_frame(connection, magic)
            self._refuse(
                connection,
                "auth-required",
                "this worker requires shared-secret authentication; "
                "configure the same secret on the coordinator "
                "(REPRO_DIST_SECRET or --secret-file)",
                "refused unauthenticated session (shared secret "
                "required); no payload was read",
            )
            return
        elif magic == RETIRED_MAGIC:
            _drain_refused_frame(connection, magic)
            self._refuse(
                connection,
                "protocol-mismatch",
                f"protocol mismatch: this worker speaks version "
                f"{PROTOCOL_VERSION}; the pickled-header framing "
                f"({RETIRED_MAGIC!r}) is retired",
                "refused a retired-framing session; no payload was read",
            )
            return
        header, payload = recv_json_message(
            connection, preread_magic=magic
        )
        if header["type"] != "init":
            raise ProtocolError(
                f"expected an init frame, got {header['type']!r}"
            )
        try:
            check_version(header.get("protocol"), peer="coordinator")
        except ProtocolError as exc:
            self._refuse(
                connection,
                "protocol-mismatch",
                str(exc),
                f"refused session: {exc}",
            )
            return
        (instance, config, options), fingerprint = decode_context(payload)
        send_json_message(
            connection,
            {
                "type": "ready",
                "protocol": PROTOCOL_VERSION,
                "host": socket.gethostname(),
                "capacity": self.capacity,
            },
        )
        if handshake_done is not None:
            handshake_done.set()  # disarm the stalled-handshake reaper
        connection.settimeout(None)  # handshake done: blocking session
        send_lock = threading.Lock()
        heartbeat = None
        interval = header.get("heartbeat")
        if isinstance(interval, (int, float)) and interval > 0:
            # The coordinator armed liveness for this session: beat
            # unsolicited pongs so long chunks never read as silence.
            heartbeat = _HeartbeatSender(
                connection, send_lock, interval, self._log
            )
            heartbeat.start()
        try:
            self._serve_chunks(
                connection,
                (instance, config, options),
                fingerprint,
                send_lock,
                heartbeat,
            )
        finally:
            if heartbeat is not None:
                heartbeat.stop()

    def _apply_chunk_fault(self, ordinal: int, heartbeat) -> bool:
        """Chaos hook at chunk arrival; ``True`` = drop the session.

        ``worker-kill`` and ``worker-sigstop`` act on the whole process
        only when the installed plan has ``allow_process_faults`` (the
        worker CLI grants it); an in-process plan — a coordinator-side
        test that also reaches this code — degrades them to a dropped
        session, which exercises the same requeue path without killing
        the test runner.
        """
        plan = active_plan()
        if plan is None:
            return False
        fault = plan.chunk_fault(ordinal)
        if fault is None:
            return False
        kind = fault[0]
        if kind == "kill":
            if plan.allow_process_faults:
                self._log(f"chaos: killing process at chunk {ordinal}")
                os._exit(23)
            self._log(f"chaos: dropping session at chunk {ordinal}")
            return True
        if kind == "sigstop":
            if plan.allow_process_faults:
                self._log(f"chaos: SIGSTOP at chunk {ordinal}")
                os.kill(os.getpid(), signal.SIGSTOP)
                # Resumes here on SIGCONT; the session continues if the
                # coordinator has not already torn it down.
                return False
            self._log(f"chaos: dropping session at chunk {ordinal}")
            return True
        if kind == "freeze":
            # SIGSTOP lookalike scoped to this session: heartbeats are
            # suppressed and the serve loop sleeps, so the coordinator
            # sees total silence for the window.
            self._log(
                f"chaos: freezing for {fault[1]:g}s at chunk {ordinal}"
            )
            if heartbeat is not None:
                heartbeat.freeze(fault[1])
            else:
                time.sleep(fault[1])
            return False
        # "stall": compute takes forever but the worker stays live —
        # heartbeats keep flowing; only a chunk deadline catches this.
        self._log(
            f"chaos: stalling {fault[1]:g}s at chunk {ordinal}"
        )
        time.sleep(fault[1])
        return False

    def _serve_chunks(
        self, connection, context, fingerprint, send_lock, heartbeat
    ) -> None:
        """The chunk loop: receive, compute, answer — until ``end``.

        A capacity-1 session computes each chunk in this thread.  Wider
        sessions only receive frames and submit chunks to a process
        pool; pool completion callbacks send each result as it
        finishes, so replies may be out of chunk order (the coordinator
        keys them by chunk index).  The ``spawn`` start method keeps
        the pool fork-free even though the server is multi-threaded.
        """
        instance, config, options = context
        cache = pool = None
        if self.capacity > 1:
            pool = ProcessPoolExecutor(
                max_workers=self.capacity,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_pool_initializer,
                initargs=(
                    instance,
                    config,
                    options,
                    self._cache_dir,
                    self._throttle,
                    fingerprint,
                ),
            )
        else:
            cache = self._open_cache()

        def send(header: dict, payload: bytes = b"") -> None:
            # Results, errors, pongs and the heartbeat sender's beats
            # serialize on one lock so frames never interleave.
            with send_lock:
                send_json_message(connection, header, payload)

        chunks_accepted = 0
        try:
            while True:
                try:
                    header, payload = recv_json_message(connection)
                except ConnectionClosed:
                    return
                kind = header["type"]
                if kind == "ping":
                    # Coordinator liveness probe: answer immediately,
                    # even between heartbeat beats.
                    send({"type": "pong"})
                    continue
                if kind == "end":
                    # The coordinator only sends "end" after it has
                    # received every in-flight result, so nothing is
                    # computing for this session any more.
                    self._log(
                        "session done"
                        + (
                            f" — {cache.stats.render()}"
                            if cache is not None
                            else ""
                        )
                    )
                    return
                if kind != "chunk":
                    raise ProtocolError(
                        f"expected a chunk frame, got {kind!r}"
                    )
                if (
                    self._fail_after_chunks is not None
                    and chunks_accepted >= self._fail_after_chunks
                ):
                    # Fault injection: vanish mid-chunk, exactly like a
                    # worker killed while computing.
                    self._log(
                        f"fault injection: dropping connection before "
                        f"chunk {header['chunk']}"
                    )
                    return
                if self._apply_chunk_fault(chunks_accepted + 1, heartbeat):
                    return
                chunk_id = header["chunk"]
                if pool is None:
                    self._reply(
                        send,
                        chunk_id,
                        lambda: _run_chunk_tasks(
                            decode_tasks(payload),
                            instance,
                            config,
                            options,
                            cache,
                            fingerprint,
                            self._throttle,
                        ),
                    )
                else:
                    future = pool.submit(_pool_run_chunk, payload)
                    future.add_done_callback(
                        lambda done, chunk=chunk_id: self._send_chunk_result(
                            connection, send, chunk, done
                        )
                    )
                chunks_accepted += 1
        finally:
            if pool is not None:
                # Abandon rather than join: on a fault-injected (or
                # torn) session the in-flight chunks are already
                # requeued on the coordinator; their pool processes
                # finish their current task, write it back to the
                # cache, and exit.
                pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _reply(send, chunk_id, compute) -> None:
        """Ship one chunk's result — or its task error — to the peer.

        Task exceptions become ``error`` frames: they would fail
        identically anywhere, so the coordinator must not retry them.
        A broken process pool is infrastructure death, not a task
        error, and propagates to the caller.
        """
        try:
            descriptor, buffer = compute()
        except BrokenProcessPool:
            raise
        except Exception as exc:
            send(
                {
                    "type": "error",
                    "chunk": chunk_id,
                    "message": repr(exc),
                    "traceback": "".join(traceback.format_exception(exc)),
                },
            )
            return
        send(
            {"type": "result", "chunk": chunk_id, "descriptor": descriptor},
            buffer_payload(buffer),
        )

    def _send_chunk_result(self, connection, send, chunk_id, future) -> None:
        """Pool completion callback: ship one chunk's result or error.

        A *broken pool* — a child OOM-killed or segfaulted — drops the
        session without replying, so the coordinator sees this worker
        as down and requeues the chunk on survivors, exactly like a
        sequential worker process dying.
        """
        try:
            self._reply(send, chunk_id, future.result)
        except BrokenProcessPool as exc:
            self._log(f"process pool broke on chunk {chunk_id}: {exc!r}")
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        except BaseException as exc:
            # The session is gone (connection closed mid-send) or the
            # future was cancelled by a tearing-down pool; either way
            # the coordinator requeues the chunk elsewhere.
            self._log(f"result send failed for chunk {chunk_id}: {exc!r}")

    @staticmethod
    def _run_task(instance, config, options, task, cache, fingerprint):
        key = None
        if (
            cache is not None
            and task.scenario_seed is not None
            and task.run_seed is not None
        ):
            key = cache.task_key(
                fingerprint, task, config=config, options=options
            )
            hit = cache.get(key)
            if hit is not None:
                return hit
        errors = _execute_task(instance, config, options, task)
        if key is not None:
            cache.put(key, errors)
        return errors
