"""Shared-memory data plane for same-host sweep sessions.

When the coordinator and a worker share a machine — loopback endpoints
and every ``LocalLauncher`` autolaunch — the socket still carries every
chunk and result payload through two kernel copies that the data never
needed.  This module moves the *data plane* into
:mod:`multiprocessing.shared_memory` segments while the *control plane*
(frames, handshake, authentication) stays on the socket: a chunk or
result frame then carries a tiny ``{"slot": n, "size": k}`` reference
instead of the payload bytes.

Topology per session — two rings, both created by the coordinator once
the worker's capacity is known:

* the **chunk ring** (coordinator → worker), ``capacity + 1`` slots
  each sized to the largest encoded chunk.  The coordinator owns the
  free list; a slot is reusable as soon as the worker answers the chunk
  that occupied it (result or error), so no explicit acknowledgement is
  needed — the session's request/response structure is the ack.
* the **result ring** (worker → coordinator), ``capacity + 2`` generous
  slots.  The worker owns this free list; the coordinator acknowledges
  consumed slots in the ``ack`` field of its next frame (chunk or end).
  A result that finds no free slot — or outgrows one — falls back to
  inline socket bytes for that frame alone; shm is an optimisation,
  never a correctness dependency.

Segments are virtual memory: untouched pages cost nothing, so generous
slot sizing wastes address space, not RAM.

Lifecycle and crash-safety: the creating (coordinator) process unlinks
both segments when the session ends, success or failure.  If the
coordinator is SIGKILL'd instead, Python's ``resource_tracker`` — a
separate helper process that outlives the kill — unlinks every segment
the coordinator registered, so ``/dev/shm`` is not leaked even on the
ugliest teardown.  The *attaching* (worker) side explicitly
**unregisters** its attachment from its own resource tracker
(:func:`attach_ring`): CPython registers attachments too, and a
worker exiting first would otherwise unlink segments the coordinator
is still using.  Segment names carry :data:`SHM_PREFIX` so operators
(and the CI cleanup trap) can recognise and sweep strays at a glance.
"""

from __future__ import annotations

import os
import secrets
import struct
import zlib
from multiprocessing import resource_tracker, shared_memory

from repro.eval.dist.faults import active_plan

__all__ = [
    "CRC_LAYOUT",
    "SHM_PREFIX",
    "ShmError",
    "ShmRing",
    "attach_ring",
    "create_ring",
    "host_is_loopback",
]

#: Leading tag of every segment name this module creates.
SHM_PREFIX = "repro-dist-"

#: Wire name of the slot layout (``describe()["layout"]``).  Each slot
#: is prefixed with a CRC32 of its payload, so a corrupted or torn slot
#: read becomes a detected :class:`ShmError` — and therefore a retriable
#: session failure — instead of silently wrong results.  It is the only
#: layout; an attach naming any other is refused.
CRC_LAYOUT = "crc32"

#: Per-slot checksum prefix: CRC32 of the slot's payload bytes.
_SLOT_CRC = struct.Struct("!I")

#: Segment names created (and still owned) by *this* process.  The
#: resource tracker keys registrations per process, so an in-process
#: attach (tests run coordinator and worker in one interpreter) must
#: not unregister a name this process also created — that would strip
#: the creator's crash-cleanup registration and double-unregister at
#: unlink time.
_OWNED_NAMES: set[str] = set()


class ShmError(RuntimeError):
    """A shared-memory ring could not be created, attached, or used."""


def host_is_loopback(host: str) -> bool:
    """Is ``host`` an address of this machine's loopback interface?

    Used by the coordinator's ``transport="auto"`` detection.  False
    negatives are harmless (the session stays on the socket); a false
    positive — a loopback-looking address that is really an SSH tunnel
    to another machine — is recovered by the worker's attach failure,
    which nacks the session back to inline payloads.
    """
    name = str(host).strip().strip("[]").lower()
    if name in ("localhost", "::1"):
        return True
    if name.startswith("127."):
        return True
    if name.startswith("::ffff:127."):
        return True
    return False


class ShmRing:
    """A fixed-slot shared-memory segment (one direction of a session).

    Pure storage plus naming: slot accounting (free lists, what is in
    flight) lives with the session logic in the coordinator and worker,
    which already track chunk lifecycles; duplicating that state here
    would just give it two places to diverge.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        n_slots: int,
        slot_size: int,
        *,
        owner: bool,
    ) -> None:
        self._segment = segment
        self.n_slots = n_slots
        self.slot_size = slot_size
        # ``slot_size`` is the usable payload capacity; the checksum
        # prefix extends the physical stride.
        self._stride = _stride(slot_size)
        self._owner = owner
        self._closed = False

    @property
    def name(self) -> str:
        """The segment name (no leading slash), as sent on the wire."""
        return self._segment.name

    def describe(self) -> dict:
        """The ring's wire description for the ``shm-open`` frame."""
        return {
            "name": self.name,
            "slots": self.n_slots,
            "slot_size": self.slot_size,
            "layout": CRC_LAYOUT,
        }

    def _bounds(self, slot: int, size: int) -> int:
        if not 0 <= slot < self.n_slots:
            raise ShmError(
                f"shm slot {slot} out of range [0, {self.n_slots})"
            )
        if not 0 <= size <= self.slot_size:
            raise ShmError(
                f"shm payload of {size} bytes exceeds the "
                f"{self.slot_size}-byte slot"
            )
        return slot * self._stride

    def write(self, slot: int, data) -> int:
        """Copy ``data`` into ``slot``; returns the byte count."""
        view = memoryview(data).cast("B")
        offset = self._bounds(slot, len(view))
        plan = active_plan()
        action = plan.shm_fault("write") if plan is not None else None
        crc = zlib.crc32(view) & 0xFFFFFFFF
        _SLOT_CRC.pack_into(self._segment.buf, offset, crc)
        offset += _SLOT_CRC.size
        self._segment.buf[offset : offset + len(view)] = view
        if action == "corrupt" and len(view):
            # Damage the stored copy *after* the checksum was taken, so
            # the reader's CRC check detects it.
            self._segment.buf[offset] = self._segment.buf[offset] ^ 0xFF
        return len(view)

    def read(self, slot: int, size: int) -> memoryview:
        """A zero-copy view of ``slot``'s first ``size`` bytes.

        The view aliases the shared segment: the peer may overwrite the
        slot once it is released, so consume (or copy) before releasing.
        The slot's CRC32 is verified here; a mismatch raises
        :class:`ShmError` and tears the session down — corruption is a
        retriable failure, never silent data.
        """
        offset = self._bounds(slot, size)
        plan = active_plan()
        if plan is not None:
            plan.shm_fault("read")
        (expected,) = _SLOT_CRC.unpack_from(self._segment.buf, offset)
        offset += _SLOT_CRC.size
        view = self._segment.buf[offset : offset + size]
        if zlib.crc32(view) & 0xFFFFFFFF != expected:
            # Release before raising: the exception (and its traceback,
            # which pins this frame) outlives the session teardown, and
            # a still-exported view would keep the segment's mmap from
            # ever closing.
            view.release()
            raise ShmError(
                f"shm slot {slot} checksum mismatch "
                f"({size} bytes): ring corrupted in flight"
            )
        return view

    def close(self) -> None:
        """Detach; the creating side also unlinks the segment.

        Idempotent, and tolerant of still-exported buffer views: a
        view held across teardown (e.g. by an aborted session's numpy
        wrapper) must not be able to keep the segment name alive, so
        the unlink proceeds even when the mmap cannot be closed yet.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:
            pass
        if self._owner:
            _OWNED_NAMES.discard(self._segment.name)
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass


def _stride(slot_size: int) -> int:
    """Physical bytes per slot: the CRC32 prefix plus the payload."""
    return _SLOT_CRC.size + slot_size


def create_ring(n_slots: int, slot_size: int) -> ShmRing:
    """Create (and own) a ring; the segment name is fresh and tagged."""
    if n_slots < 1 or slot_size < 1:
        raise ShmError(
            f"ring needs positive geometry, got {n_slots}×{slot_size}"
        )
    plan = active_plan()
    if plan is not None and plan.shm_create_fault():
        raise ShmError(
            "cannot create shared memory ring: "
            "[Errno 28] No space left on device (chaos)"
        )
    name = f"{SHM_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
    try:
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=n_slots * _stride(slot_size)
        )
    except OSError as exc:
        raise ShmError(f"cannot create shared memory ring: {exc}") from exc
    _OWNED_NAMES.add(segment.name)
    return ShmRing(segment, n_slots, slot_size, owner=True)


def attach_ring(
    name: str, n_slots: int, slot_size: int, *, layout=CRC_LAYOUT
) -> ShmRing:
    """Attach to a coordinator-created ring by name.

    Only :data:`SHM_PREFIX`-tagged names are accepted — a session frame
    must not be able to point the worker at arbitrary segments.  The
    attachment is unregistered from this process's resource tracker so
    a worker exiting first never unlinks a segment the (creating)
    coordinator still uses; crash cleanup belongs to the creator's
    tracker alone.
    """
    if not str(name).startswith(SHM_PREFIX):
        raise ShmError(
            f"refusing to attach segment {name!r}: not a "
            f"{SHM_PREFIX}* session segment"
        )
    if layout != CRC_LAYOUT:
        # Nack back to inline payloads rather than misinterpret the
        # slot geometry.
        raise ShmError(f"unknown shm slot layout {layout!r}")
    try:
        segment = shared_memory.SharedMemory(name=name)
    except OSError as exc:
        raise ShmError(
            f"cannot attach shared memory ring {name!r}: {exc}"
        ) from exc
    if segment.name not in _OWNED_NAMES:
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    if segment.size < n_slots * _stride(slot_size):
        try:
            segment.close()
        except OSError:
            pass
        raise ShmError(
            f"segment {name!r} is {segment.size} bytes, smaller than "
            f"the advertised {n_slots}×{slot_size} geometry"
        )
    return ShmRing(segment, n_slots, slot_size, owner=False)
