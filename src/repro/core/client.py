"""The RStore client library: the memory-like API.

Control path (expensive, infrequent)::

    region = yield from client.alloc("ranks", 64 * MiB)   # master RPC
    mapping = yield from client.map(region)               # connect + cache

Control RPCs route through the :class:`~repro.core.shard.ShardRouter`:
region names hash onto metadata shards, and each call dials only the
shard owning its name.  ``map`` by name additionally consults the
client's **metadata cache** — a leased, epoch-stamped descriptor cache
with single-flight miss coalescing and short negative entries — so a
region's shard is contacted at most once per epoch per region; an
epoch bump (observed in any reply, or via a data-path fence) drops
that shard's leases and forces exactly one refresh.

Data path (one-sided, no server CPU, no metadata lookups)::

    yield from mapping.write(0, b"...")
    data = yield from mapping.read(0, 4096)
    old = yield from mapping.faa(8, 1)

Asynchronous data path — every op can also be issued without blocking.
``*_async`` methods return an :class:`OpFuture` immediately; the caller
overlaps work and collects the result with ``yield from fut.wait()``.
:class:`IoBatch` goes further: it collects many ops (across mappings),
coalesces adjacent same-stripe pieces into single work requests, posts
each QP's share with **one doorbell** (selective signaling: only the
last WR of a doorbell batch is signaled), and resolves every future
through the client's single completion dispatcher::

    batch = client.batch()
    futs = [batch.read(mapping, off, 64) for off in offsets]   # queue
    yield from batch.flush()                                   # submit
    results = yield from batch.wait_all()                      # collect

``map`` resolves everything an IO will ever need — per-stripe server,
remote address, rkey, and a connected QP per server (QPs are cached
client-wide, so mapping a second region to the same servers is nearly
free).  After that every ``read``/``write`` translates to one-sided
RDMA with pure local arithmetic: RDMA's separation philosophy extended
to the cluster.

Completion ownership: completions belong to the **client dispatcher**,
never to the op that submitted them.  The dispatcher routes each work
completion to its doorbell group and from there to the futures whose
pieces it carries; the blocking ``read``/``write``/``faa`` are thin
wrappers (submit + wait) over the same machinery.

Failures on the data path are *retryable*: a completion error (server
death, injected NIC fault) hands the future to a background retry
worker that re-``lookup``\\ s the region at the master with capped
exponential backoff + deterministic jitter, rebuilds the per-server QP
table if the descriptor version advanced (replica promotion, background
repair), and replays only the failed sub-operations — unrelated
in-flight batches are never disturbed.  An error reaches the
application only once ``data_retry_limit`` attempts are exhausted — a
single server crash under ``replication >= 2`` is invisible.

**Atomics are the exception**: reads and writes are idempotent, but a
replayed FAA/CAS whose first attempt *did* apply mutates the word
twice.  ``faa``/``cas`` therefore refuse to replay after a completion
error unless called with ``idempotent=True``; see
:meth:`Mapping.faa`.  An atomic flushed behind another WR's error in
its doorbell batch is equally ambiguous (it may still execute
remotely), so it follows the same rule.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from repro.core.config import RStoreConfig
from repro.core.errors import (
    BoundsError,
    DeadlineExceededError,
    MasterUnavailableError,
    NotMappedError,
    RecoverableError,
    RegionNotFoundError,
    RegionUnavailableError,
    RStoreError,
    StaleEpochError,
)
from repro.core.pool import LocalBufferPool
from repro.core.region import RegionDesc
from repro.core.shard import ShardRouter
from repro.datapath.policy import PathPolicy
from repro.obs import obs_for
from repro.rdma.cm import ConnectionManager
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import RNic
from repro.rdma.qp import QueuePair
from repro.rdma.types import Opcode, QpState, RdmaError
from repro.rdma.wr import SendWR
from repro.rpc.channel import ChannelClosed
from repro.rpc.endpoint import RpcClient, RpcError, RpcRemoteError, RpcTimeout
from repro.sanitize import rsan_for
from repro.simnet.kernel import Simulator
from repro.simnet.rand import derive_rng

__all__ = ["RStoreClient", "Mapping", "IoBatch", "OpFuture"]

# Remote RStore exceptions re-raise locally as their real types.
import repro.core.errors as _errors

_ERROR_TYPES = {
    name: getattr(_errors, name)
    for name in _errors.__all__
}

_ATOMIC_OPS = (Opcode.ATOMIC_FAA, Opcode.ATOMIC_CAS)

#: control methods that legitimately park at the master (coordination
#: rendezvous) — they get crash-tolerant redial but no deadline
_BLOCKING_CONTROL = frozenset({"barrier", "allreduce", "wait_note"})

#: control methods whose first argument is a name the shard map routes;
#: everything else (stats, membership) defaults to shard 0 so existing
#: single-master callers keep working unchanged
_NAME_ROUTED = frozenset({
    "alloc", "lookup", "resize", "free",
    "barrier", "allreduce", "notify", "wait_note",
})


def _translated(exc: RpcRemoteError) -> Exception:
    cls = _ERROR_TYPES.get(exc.error_type)
    if cls is not None:
        return cls(exc.remote_message)
    return exc


class OpFuture:
    """Handle for one in-flight data-path operation.

    Created by the ``*_async`` methods and :class:`IoBatch`; resolves
    (or fails) when the client dispatcher has retired every sub-request
    of the op — including any replay rounds the retry worker ran on its
    behalf.  ``yield from fut.wait()`` parks until then and returns the
    op's value (bytes for reads, byte count for writes, the prior word
    for atomics) or raises the op's error.

    A piece is ``(stripe_index, stripe_offset, take, local_cursor)`` —
    enough to replay the sub-operation against a *newer* descriptor
    (stripe geometry is immutable; only replica sets change).
    """

    __slots__ = (
        "client", "mapping", "opcode", "kind", "offset", "length",
        "wire_scale", "fan_out", "idempotent", "compare", "swap",
        "local_mr", "done", "value", "error", "resolved_at", "deadline",
        "resolve_index", "_event", "_chunk", "_remaining", "_failure",
        "_failed", "_last_wc", "_flush_ambiguous", "_attempts",
        "replay", "trace_id", "_span", "_rsan",
    )

    def __init__(self, client: "RStoreClient", mapping: "Mapping",
                 opcode: Opcode, kind: str, offset: int, length: int,
                 wire_scale: int = 1, idempotent: bool = False,
                 compare: int = 0, swap: int = 0):
        self.client = client
        self.mapping = mapping
        self.opcode = opcode
        #: "read", "write", "read_into", "write_from", "faa" or "cas"
        self.kind = kind
        self.offset = offset
        self.length = length
        self.wire_scale = wire_scale
        #: writes land on every replica; reads hit only the primary
        self.fan_out = opcode is Opcode.RDMA_WRITE
        self.idempotent = idempotent
        self.compare = compare
        self.swap = swap
        self.local_mr: Optional[MemoryRegion] = None
        self.done = False
        self.value = None
        self.error: Optional[Exception] = None
        #: absolute retry budget: once past it, no replay round starts
        self.deadline: Optional[float] = (
            client.sim.now + client.config.op_deadline_s
            if client.config.op_deadline_s is not None else None
        )
        #: simulated time the future resolved (diagnostics/tests)
        self.resolved_at: Optional[float] = None
        #: client-wide resolution sequence number — futures resolving at
        #: the same instant still have a total, deterministic order
        self.resolve_index: Optional[int] = None
        self._event = None
        self._chunk = None
        self._remaining = 0
        self._failure: Optional[Exception] = None
        #: pieces whose sub-request failed (candidates for replay)
        self._failed: list[tuple] = []
        self._last_wc = None
        self._flush_ambiguous = False
        self._attempts = 0
        #: False: fail on the first error instead of remapping and
        #: replaying — for a write whose replay must not race the
        #: caller's own ordering (a SeqLock publish settles itself)
        self.replay = True
        #: per-op trace: a whole-op envelope span from submission to
        #: resolution, id shared by every layer's spans for this op
        tracer = client.obs.tracer
        if tracer.enabled:
            self.trace_id = tracer.next_trace_id()
            self._span = tracer.span(
                f"data.op.{kind}", trace_id=self.trace_id,
                offset=offset, nbytes=length,
            )
        else:
            self.trace_id = None
            self._span = None
        #: sanitizer stamp: one per op, shared by every WR (including
        #: replays) posted on its behalf
        rsan = client.rsan
        if rsan.enabled:
            access_kind = ("atomic" if opcode in _ATOMIC_OPS
                           else "read" if opcode is Opcode.RDMA_READ
                           else "write")
            self._rsan = rsan.op_stamp(client._rsan_actor, access_kind)
        else:
            self._rsan = None

    @property
    def is_atomic(self) -> bool:
        return self.opcode in _ATOMIC_OPS

    def wait(self):
        """Park until the op resolves (generator); return its value."""
        if not self.done:
            tracer = self.client.obs.tracer
            parked = self.client.sim.now if tracer.enabled else None
            if self._event is None:
                self._event = self.client.sim.event()
            yield self._event
            if parked is not None:
                tracer.record("data.future.wait", parked,
                              trace_id=self.trace_id, op=self.kind)
        if self._rsan is not None:
            # the issuer just observed the completion: everything it
            # does from here happens-after this op.  Errors ack too —
            # the op is over either way, and stalling the watermark
            # forever would hide unrelated later races.
            self.client.rsan.op_acked(self._rsan)
        if self.error is not None:
            raise self.error
        return self.value

    # -- resolution (dispatcher / retry-worker side) ------------------------

    def _take_value(self):
        if self.is_atomic:
            return self._last_wc.atomic_result
        if self.kind == "read":
            return self._chunk.read_bytes(self.length)
        if self.kind == "write":
            return self.length
        return None

    def _resolve(self, value) -> None:
        if self.done:
            return
        self.value = value
        self._finish()

    def _fail(self, exc: Exception) -> None:
        if self.done:
            return
        self.error = exc
        self._finish()

    def _finish(self) -> None:
        self.done = True
        self.resolved_at = self.client.sim.now
        self.resolve_index = self.client._next_resolve_index()
        if self._span is not None:
            self._span.finish(ok=self.error is None,
                              attempts=self._attempts + 1)
            self._span = None
        self.mapping._inflight.discard(self)
        if self._chunk is not None:
            self._chunk.release()
            self._chunk = None
        if self._event is not None and not self._event.triggered:
            self._event.succeed()

    # -- sub-request retirement ---------------------------------------------

    def _sub_ok(self, piece) -> None:
        """An unsignaled WR proven successful by its doorbell group."""
        if self.done:
            return
        self._retire()

    def _sub_done(self, piece, wc) -> None:
        if self.done:
            return
        self._last_wc = wc
        if not wc.ok:
            if self._failure is None:
                detail = wc.detail or ""
                if "stale epoch" in detail:
                    # the server's fence caught a WR stamped with a
                    # descriptor from a previous cluster era; the retry
                    # worker refreshes metadata immediately, no backoff
                    self._failure = StaleEpochError(
                        f"data-path fence: {wc.status.value} {detail}"
                    )
                else:
                    self._failure = RegionUnavailableError(
                        f"data-path failure: {wc.status.value} {detail}"
                    )
            if piece is not None:
                self._failed.append(piece)
        self._retire()

    def _sub_flushed(self, piece) -> None:
        """A WR flushed behind an earlier error in its doorbell batch.

        Its remote outcome is unknown (the NIC may still execute it),
        which is why flushed atomics count as ambiguous.
        """
        if self.done:
            return
        self._flush_ambiguous = True
        if self._failure is None:
            self._failure = RegionUnavailableError(
                "data-path failure: flushed behind an earlier error in "
                "its doorbell batch"
            )
        if piece is not None:
            self._failed.append(piece)
        self._retire()

    def _sub_aborted(self, piece, exc: Exception) -> None:
        """Retire a sub-request that could not even be posted."""
        if self.done:
            return
        if self._failure is None:
            self._failure = exc
        if piece is not None:
            self._failed.append(piece)
        self._retire()

    def _retire(self) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.done:
            self.client._round_done(self)


class _WrToken:
    """The ``wr_id`` of one work request: the futures/pieces it carries.

    Coalescing merges adjacent WRs, so one token can carry sub-requests
    of several futures; they all retire together.
    """

    __slots__ = ("subs", "group", "retired")

    def __init__(self, subs: list):
        #: list of (future, piece) pairs
        self.subs = subs
        #: the doorbell group, set when the WR is posted in a batch
        self.group: Optional["_Doorbell"] = None
        self.retired = False

    def abort(self, exc: Exception) -> None:
        if self.retired:
            return
        self.retired = True
        if self.group is not None:
            self.group.unretired -= 1
        for fut, piece in self.subs:
            fut._sub_aborted(piece, exc)


class _Doorbell:
    """One doorbell batch: the unit of selective signaling.

    Only the last WR (and any atomics, which need their result value)
    is signaled.  The tail's success completion proves — via the QP's
    in-post-order delivery — that every unsignaled WR before it
    succeeded too; an error completion breaks the group with RC flush
    semantics instead.
    """

    __slots__ = ("pump", "tokens", "unretired", "credited")

    def __init__(self, pump: "_QpPump", tokens: list[_WrToken]):
        self.pump = pump
        self.tokens = tokens
        self.unretired = len(tokens)
        self.credited = False
        for token in tokens:
            token.group = self


class _QpPump:
    """Per-QP submission throttle honouring the send-queue depth.

    Synchronous singles keep the small interleaving-friendly window;
    explicit batch submissions may fill the deeper batch window (the
    caller asked for depth).  Batch reservations that find no room park
    on ``waiters`` until completions return credit.
    """

    __slots__ = ("qp", "queue", "inflight", "capacity", "batch_capacity",
                 "waiters")

    def __init__(self, qp: QueuePair, window: int = 8,
                 batch_window: int = 32):
        self.qp = qp
        self.queue: deque[SendWR] = deque()
        self.inflight = 0
        self.capacity = max(1, min(window, qp.sq_depth - 8))
        self.batch_capacity = max(
            self.capacity, min(batch_window, qp.sq_depth // 2)
        )
        self.waiters: list = []

    def submit(self, wr: SendWR) -> None:
        if self.inflight < self.capacity:
            self._post(wr)
        else:
            self.queue.append(wr)

    def reserve(self, want: int) -> int:
        """Claim up to *want* batch slots; returns how many (may be 0)."""
        room = self.batch_capacity - self.inflight
        if room <= 0:
            return 0
        take = min(want, room)
        self.inflight += take
        return take

    def on_complete(self) -> None:
        self.credit(1)

    def credit(self, n: int) -> None:
        self.inflight -= n
        while self.queue and self.inflight < self.capacity:
            self._post(self.queue.popleft())
        if self.waiters and self.inflight < self.batch_capacity:
            waiters, self.waiters = self.waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def _post(self, wr: SendWR) -> None:
        try:
            self.qp.post_send(wr)
            self.inflight += 1
        except RdmaError as exc:
            token: _WrToken = wr.wr_id
            token.abort(RegionUnavailableError(str(exc)))


def _coalesce(wrs: list[SendWR], max_wire_chunk: int) -> list[SendWR]:
    """Merge adjacent pieces into single WRs where the wire allows it.

    Two consecutive WRs merge when they are the same kind of one-sided
    op against contiguous local *and* remote bytes of the same MRs with
    the same wire scaling, and the merged WR stays under the wire-chunk
    ceiling.  The merged token carries both WRs' sub-requests, so
    failure replay still works at piece granularity.
    """
    merged = [wrs[0]]
    for wr in wrs[1:]:
        last = merged[-1]
        if (wr.opcode is last.opcode
                and wr.opcode in (Opcode.RDMA_READ, Opcode.RDMA_WRITE)
                and wr.local_mr is not None
                and wr.local_mr is last.local_mr
                and wr.rkey == last.rkey
                and wr.local_addr == last.local_addr + last.length
                and wr.remote_addr == last.remote_addr + last.length
                and (wr.wire_length is None) == (last.wire_length is None)
                and (wr.wire_length is None
                     or wr.wire_length * last.length
                     == last.wire_length * wr.length)
                and last.bytes_on_wire + wr.bytes_on_wire <= max_wire_chunk):
            last.length += wr.length
            if last.wire_length is not None:
                last.wire_length += wr.wire_length
            last.wr_id.subs.extend(wr.wr_id.subs)
        else:
            merged.append(wr)
    return merged


class IoBatch:
    """Collects data-path ops for one flush — across mappings.

    ``read``/``write`` stage through the client's registered pool (so
    they may park waiting for staging space — generators); the
    zero-copy and atomic variants queue synchronously.  ``flush``
    plans every queued op, coalesces adjacent pieces per QP, and posts
    each QP's share in doorbell batches; ``wait_all`` parks until every
    future resolved and returns their values in queue order.
    """

    def __init__(self, client: "RStoreClient"):
        self.client = client
        #: futures in queue order (the order ``wait_all`` returns)
        self.futures: list[OpFuture] = []
        self._staged: list[tuple] = []
        #: per-QP WR lists accumulated by ``_stage`` during flush
        self._queues: dict[QueuePair, list[SendWR]] = {}

    def read(self, mapping: "Mapping", offset: int, length: int,
             wire_scale: int = 1):
        """Queue a staged read (generator); returns its future."""
        mapping._check_usable()
        fut = OpFuture(self.client, mapping, Opcode.RDMA_READ, "read",
                       offset, length, wire_scale)
        self.futures.append(fut)
        if length == 0:
            fut._resolve(b"")
            return fut
        chunk = yield from self.client._staging.alloc(length)
        fut._chunk = chunk
        self._staged.append((fut, mapping, chunk.mr, chunk.addr))
        return fut

    def write(self, mapping: "Mapping", offset: int, payload: bytes,
              wire_scale: int = 1, replay: bool = True):
        """Queue a staged write (generator); returns its future.

        ``replay=False`` fails the future on its first error instead of
        remapping and replaying it (see :attr:`OpFuture.replay`)."""
        mapping._check_usable()
        fut = OpFuture(self.client, mapping, Opcode.RDMA_WRITE, "write",
                       offset, len(payload), wire_scale)
        fut.replay = replay
        self.futures.append(fut)
        if not payload:
            fut._resolve(0)
            return fut
        chunk = yield from self.client._staging.alloc(len(payload))
        fut._chunk = chunk
        yield from self.client.nic.host.cpu.copy(len(payload))
        chunk.write_bytes(payload)
        self._staged.append((fut, mapping, chunk.mr, chunk.addr))
        return fut

    def read_into(self, mapping: "Mapping", local_mr: MemoryRegion,
                  local_addr: int, offset: int, length: int,
                  wire_scale: int = 1) -> OpFuture:
        """Queue a zero-copy read; returns its future."""
        mapping._check_usable()
        fut = OpFuture(self.client, mapping, Opcode.RDMA_READ, "read_into",
                       offset, length, wire_scale)
        self.futures.append(fut)
        if length == 0:
            fut._resolve(None)
            return fut
        self._staged.append((fut, mapping, local_mr, local_addr))
        return fut

    def write_from(self, mapping: "Mapping", local_mr: MemoryRegion,
                   local_addr: int, offset: int, length: int,
                   wire_scale: int = 1) -> OpFuture:
        """Queue a zero-copy write; returns its future."""
        mapping._check_usable()
        fut = OpFuture(self.client, mapping, Opcode.RDMA_WRITE, "write_from",
                       offset, length, wire_scale)
        self.futures.append(fut)
        if length == 0:
            fut._resolve(None)
            return fut
        self._staged.append((fut, mapping, local_mr, local_addr))
        return fut

    def faa(self, mapping: "Mapping", offset: int, delta: int,
            idempotent: bool = False) -> OpFuture:
        """Queue a fetch-and-add; see :meth:`Mapping.faa` for semantics."""
        fut = mapping._make_atomic(Opcode.ATOMIC_FAA, offset, delta, 0,
                                   idempotent)
        self.futures.append(fut)
        self._staged.append((fut, mapping, None, 0))
        return fut

    def cas(self, mapping: "Mapping", offset: int, expected: int,
            desired: int, idempotent: bool = False) -> OpFuture:
        """Queue a compare-and-swap; returns its future."""
        fut = mapping._make_atomic(Opcode.ATOMIC_CAS, offset, expected,
                                   desired, idempotent)
        self.futures.append(fut)
        self._staged.append((fut, mapping, None, 0))
        return fut

    def _stage(self, qp: QueuePair, wr: SendWR) -> None:
        self._queues.setdefault(qp, []).append(wr)

    def flush(self):
        """Plan, coalesce and post everything queued (generator).

        Returns the number of work requests posted (after coalescing).
        The batch is reusable: ops queued after a flush go out on the
        next one.
        """
        staged, self._staged = self._staged, []
        span = self.client.obs.tracer.span("data.batch.flush",
                                           ops=len(staged))
        for fut, mapping, local_mr, local_addr in staged:
            if fut.done:
                continue
            try:
                if fut.is_atomic:
                    yield from mapping._submit_atomic(fut, batch=self)
                else:
                    yield from mapping._submit(fut, local_mr, local_addr,
                                               batch=self)
            except Exception as exc:
                fut._fail(exc)
        queues, self._queues = self._queues, {}
        posted = 0
        for qp, wrs in queues.items():
            merged = _coalesce(wrs, self.client.config.max_wire_chunk)
            posted += len(merged)
            yield from self.client._post_batch(qp, merged)
        span.finish(wrs=posted)
        return posted

    def wait_all(self):
        """Park until every queued future resolved (generator).

        Returns the values in queue order; failed ops contribute
        ``None``.  The **first** failure (in queue order) re-raises
        after all futures have resolved, so no op is left dangling.
        """
        results = []
        first_error: Optional[Exception] = None
        for fut in self.futures:
            try:
                value = yield from fut.wait()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
            else:
                results.append(value)
        if first_error is not None:
            raise first_error
        return results


class Mapping:
    """A mapped region: the data-path handle."""

    def __init__(self, client: "RStoreClient", desc: RegionDesc,
                 path_policy: Optional[str] = None):
        self.client = client
        self.desc = desc
        #: the metadata shard owning this region's name — stamped onto
        #: every WR so servers fence against the right shard's epoch
        self.shard = client._router.shard_of(desc.name)
        #: how composite ops over this mapping run (see repro.datapath):
        #: one_sided | server_op | remote_fetch | adaptive.  Raw
        #: read/write/atomic calls are always one-sided; data
        #: structures (kv, coord) consult this to route their ops.
        self.path_policy = PathPolicy.validate(
            path_policy if path_policy is not None
            else client.config.datapath_policy
        )
        self.active = True
        #: host_id -> connected data QP (borrowed from the client cache)
        self._qps: dict[int, QueuePair] = {}
        #: futures submitted and not yet resolved
        self._inflight: set = set()

    @property
    def name(self) -> str:
        return self.desc.name

    @property
    def size(self) -> int:
        return self.desc.size

    def unmap(self) -> None:
        """Drop the mapping (QPs stay cached client-wide).

        Async ops still in flight fail deterministically with
        :class:`NotMappedError` — their futures resolve at the current
        instant instead of leaving parked processes dangling; late
        completions for their WRs are ignored by the dispatcher.
        """
        self.active = False
        for fut in list(self._inflight):
            fut._fail(NotMappedError(
                f"region {self.name!r} was unmapped with the operation "
                "in flight"
            ))
        rsan = self.client.rsan
        if rsan.enabled:
            # this client is done with the region: drop its shadow
            # intervals so a recycled range is never attributed to it
            rsan.clear_region(self.desc, actor=self.client._rsan_actor)

    # -- blocking data path (submit + wait) ---------------------------------

    def read(self, offset: int, length: int, wire_scale: int = 1):
        """Read bytes (generator) via the staging pool."""
        fut = yield from self.read_async(offset, length,
                                         wire_scale=wire_scale)
        data = yield from fut.wait()
        return data

    def write(self, offset: int, payload: bytes, wire_scale: int = 1):
        """Write bytes (generator) via the staging pool."""
        fut = yield from self.write_async(offset, payload,
                                          wire_scale=wire_scale)
        count = yield from fut.wait()
        return count

    def read_into(self, local_mr: MemoryRegion, local_addr: int,
                  offset: int, length: int, wire_scale: int = 1):
        """Zero-copy read into a caller-registered buffer (generator)."""
        fut = yield from self.read_into_async(
            local_mr, local_addr, offset, length, wire_scale=wire_scale
        )
        yield from fut.wait()

    def write_from(self, local_mr: MemoryRegion, local_addr: int,
                   offset: int, length: int, wire_scale: int = 1):
        """Zero-copy write from a caller-registered buffer (generator)."""
        fut = yield from self.write_from_async(
            local_mr, local_addr, offset, length, wire_scale=wire_scale
        )
        yield from fut.wait()

    def faa(self, offset: int, delta: int, idempotent: bool = False):
        """Remote fetch-and-add on an 8-byte counter (generator).

        Atomics are **not retryable by default**: a completion error on
        an op that reached the NIC raises ``RegionUnavailableError``
        immediately, because the remote side may already have applied
        it — a blind replay could add *delta* twice.  Failures before
        anything hit the wire (dead QP, post rejection) still remap and
        retry transparently; they cannot have side effects.  Pass
        ``idempotent=True`` only when a double-applied op is harmless
        (monotonic flags, advisory stats) to opt back into full
        remap-and-replay.
        """
        fut = yield from self.faa_async(offset, delta, idempotent=idempotent)
        old = yield from fut.wait()
        return old

    def cas(self, offset: int, expected: int, desired: int,
            idempotent: bool = False):
        """Remote compare-and-swap (generator); returns the old value.

        Same retry semantics as :meth:`faa`: completion errors are not
        replayed unless ``idempotent=True`` (a replayed CAS that won
        the first time finds ``desired`` in place and reports a loss).
        """
        fut = yield from self.cas_async(offset, expected, desired,
                                        idempotent=idempotent)
        old = yield from fut.wait()
        return old

    # -- asynchronous data path ---------------------------------------------

    def read_async(self, offset: int, length: int, wire_scale: int = 1):
        """Submit a staged read (generator); returns its future."""
        self._check_usable()
        fut = OpFuture(self.client, self, Opcode.RDMA_READ, "read",
                       offset, length, wire_scale)
        if length == 0:
            fut._resolve(b"")
            return fut
        chunk = yield from self.client._staging.alloc(length)
        fut._chunk = chunk
        try:
            yield from self._submit(fut, chunk.mr, chunk.addr)
        except Exception as exc:
            fut._fail(exc)
            raise
        return fut

    def write_async(self, offset: int, payload: bytes, wire_scale: int = 1):
        """Submit a staged write (generator); returns its future."""
        self._check_usable()
        fut = OpFuture(self.client, self, Opcode.RDMA_WRITE, "write",
                       offset, len(payload), wire_scale)
        if not payload:
            fut._resolve(0)
            return fut
        chunk = yield from self.client._staging.alloc(len(payload))
        fut._chunk = chunk
        yield from self.client.nic.host.cpu.copy(len(payload))
        chunk.write_bytes(payload)
        try:
            yield from self._submit(fut, chunk.mr, chunk.addr)
        except Exception as exc:
            fut._fail(exc)
            raise
        return fut

    def read_into_async(self, local_mr: MemoryRegion, local_addr: int,
                        offset: int, length: int, wire_scale: int = 1):
        """Submit a zero-copy read (generator); returns its future."""
        self._check_usable()
        fut = OpFuture(self.client, self, Opcode.RDMA_READ, "read_into",
                       offset, length, wire_scale)
        if length == 0:
            fut._resolve(None)
            return fut
        try:
            yield from self._submit(fut, local_mr, local_addr)
        except Exception as exc:
            fut._fail(exc)
            raise
        return fut

    def write_from_async(self, local_mr: MemoryRegion, local_addr: int,
                         offset: int, length: int, wire_scale: int = 1):
        """Submit a zero-copy write (generator); returns its future."""
        self._check_usable()
        fut = OpFuture(self.client, self, Opcode.RDMA_WRITE, "write_from",
                       offset, length, wire_scale)
        if length == 0:
            fut._resolve(None)
            return fut
        try:
            yield from self._submit(fut, local_mr, local_addr)
        except Exception as exc:
            fut._fail(exc)
            raise
        return fut

    def faa_async(self, offset: int, delta: int, idempotent: bool = False):
        """Submit a fetch-and-add (generator); returns its future."""
        fut = self._make_atomic(Opcode.ATOMIC_FAA, offset, delta, 0,
                                idempotent)
        try:
            yield from self._submit_atomic(fut)
        except Exception as exc:
            fut._fail(exc)
            raise
        return fut

    def cas_async(self, offset: int, expected: int, desired: int,
                  idempotent: bool = False):
        """Submit a compare-and-swap (generator); returns its future."""
        fut = self._make_atomic(Opcode.ATOMIC_CAS, offset, expected,
                                desired, idempotent)
        try:
            yield from self._submit_atomic(fut)
        except Exception as exc:
            fut._fail(exc)
            raise
        return fut

    # -- internals ---------------------------------------------------------------

    def _check_usable(self):
        if not self.active:
            raise NotMappedError(f"region {self.name!r} is not mapped")

    def _resolve(self):
        """Descriptor for this IO (generator) — fresh under the
        resolve-per-io ablation, cached otherwise."""
        if self.client.config.resolve_per_io:
            desc = yield from self.client._master_call("lookup", self.name)
            return desc
        return self.desc

    def _make_atomic(self, opcode, offset, compare, swap,
                     idempotent) -> OpFuture:
        self._check_usable()
        if offset % 8 != 0:
            raise BoundsError(f"atomic offset {offset} not 8-byte aligned")
        kind = "faa" if opcode is Opcode.ATOMIC_FAA else "cas"
        return OpFuture(self.client, self, opcode, kind, offset, 8,
                        idempotent=idempotent, compare=compare, swap=swap)

    def _submit(self, fut: OpFuture, local_mr, local_addr, batch=None):
        """Plan and post one read/write future (generator).

        Synchronous submissions (``batch is None``) pay the per-op
        issue overhead here and post through the per-QP pump; batched
        ones stage WRs on the batch, which charges the overhead once
        per doorbell instead.
        """
        self._check_usable()
        client = self.client
        span = client.obs.tracer.span("data.client.submit",
                                      trace_id=fut.trace_id, op=fut.kind)
        if batch is None:
            yield from client.nic.host.cpu.run(client.config.issue_overhead_s)
        desc = yield from self._resolve()
        if not desc.available:
            span.finish(ok=False)
            raise RegionUnavailableError(desc.unavailable_reason)
        if client.config.two_sided_data_path:
            self._register(fut)
            client.sim.process(
                self._two_sided_driver(fut, local_mr, local_addr, desc),
                name="two-sided-io",
            )
            span.finish()
            return
        fut.local_mr = local_mr
        self._register(fut)
        pieces = self._plan_pieces(desc, fut.offset, fut.length, local_addr,
                                   fut.wire_scale)
        self._post_pieces(fut, desc, pieces, batch=batch)
        span.finish(pieces=len(pieces))

    def _submit_atomic(self, fut: OpFuture, batch=None):
        """Resolve and post one atomic future (generator)."""
        self._check_usable()
        span = self.client.obs.tracer.span("data.client.submit",
                                           trace_id=fut.trace_id,
                                           op=fut.kind)
        desc = yield from self._resolve()
        if not desc.available:
            span.finish(ok=False)
            raise RegionUnavailableError(desc.unavailable_reason)
        self._register(fut)
        self._post_atomic(fut, desc, batch=batch)
        span.finish()

    def _register(self, fut: OpFuture) -> None:
        self._inflight.add(fut)

    def _plan_pieces(self, desc, offset, length, local_addr, wire_scale):
        # split stripe pieces further so no single WR exceeds the wire
        # chunk ceiling (keeps concurrent flows interleaving fairly)
        chunk = max(1, self.client.config.max_wire_chunk // wire_scale)
        pieces = []
        cursor = local_addr
        for stripe, stripe_off, take in desc.locate(offset, length):
            pos = 0
            while pos < take:
                part = min(chunk, take - pos)
                pieces.append((stripe.index, stripe_off + pos, part, cursor))
                cursor += part
                pos += part
        return pieces

    def _post_pieces(self, fut: OpFuture, desc, pieces, batch=None) -> None:
        """Post (or stage) sub-requests for *pieces* on behalf of *fut*."""
        client = self.client
        plans = []
        total = 0
        for piece in pieces:
            stripe = desc.stripes[piece[0]]
            targets = stripe.replicas if fut.fan_out else (stripe.primary,)
            plans.append((piece, targets))
            total += len(targets)
        # account for the whole round before posting: sub-requests can
        # retire synchronously (dead QP) without ending the round early
        fut._remaining += total
        for piece, targets in plans:
            _index, stripe_off, take, cursor = piece
            for replica in targets:
                qp = self._qps.get(replica.host_id)
                if qp is None or qp.state is not QpState.CONNECTED:
                    fut._sub_aborted(
                        piece,
                        NotMappedError(
                            f"no usable data QP for server {replica.host_id}"
                        ),
                    )
                    continue
                wr = SendWR(
                    opcode=fut.opcode,
                    wr_id=_WrToken([(fut, piece)]),
                    local_mr=fut.local_mr,
                    local_addr=cursor,
                    length=take,
                    remote_addr=replica.addr + stripe_off,
                    rkey=replica.rkey,
                    wire_length=(take * fut.wire_scale
                                 if fut.wire_scale != 1 else None),
                )
                # stamp the descriptor's era (and its shard, so the
                # fence compares against the right epoch sequence) —
                # a server re-donated since we mapped bounces the access
                wr.epoch = desc.epoch
                wr.shard = self.shard
                if fut._rsan is not None:
                    wr.rsan = fut._rsan
                if batch is None:
                    client._pump_for(qp).submit(wr)
                else:
                    batch._stage(qp, wr)

    def _post_atomic(self, fut: OpFuture, desc, batch=None) -> None:
        """Post (or stage) the single sub-request of an atomic future."""
        client = self.client
        pieces = list(desc.locate(fut.offset, 8))
        if len(pieces) != 1:
            fut._fail(BoundsError("atomic target spans a stripe boundary"))
            return
        stripe, stripe_off, _take = pieces[0]
        if stripe.replication > 1:
            fut._fail(RStoreError(
                "atomics on replicated regions are not supported: a "
                "NIC-side atomic cannot be mirrored consistently"
            ))
            return
        fut._remaining += 1
        qp = self._qps.get(stripe.host_id)
        if qp is None or qp.state is not QpState.CONNECTED:
            fut._sub_aborted(
                None,
                NotMappedError(
                    f"no usable data QP for server {stripe.host_id}"
                ),
            )
            return
        wr = SendWR(
            opcode=fut.opcode,
            wr_id=_WrToken([(fut, None)]),
            remote_addr=stripe.addr + stripe_off,
            rkey=stripe.rkey,
            compare=fut.compare,
            swap=fut.swap,
        )
        wr.epoch = desc.epoch
        wr.shard = self.shard
        if fut._rsan is not None:
            wr.rsan = fut._rsan
        if batch is None:
            client._pump_for(qp).submit(wr)
        else:
            batch._stage(qp, wr)

    def _two_sided_driver(self, fut: OpFuture, local_mr, local_addr, desc):
        """Ablation: drive one future through the messaging data path."""
        try:
            yield from self.client._two_sided_io(
                self, fut.opcode, local_mr, local_addr, fut.offset,
                fut.length, desc
            )
        except Exception as exc:
            fut._fail(exc)
            return
        fut._resolve(fut._take_value())

    def _remap_with_backoff(self, attempt: int, immediate: bool = False):
        """Back off, re-``lookup``, rebuild QP tables (generator).

        Backoff is capped exponential with deterministic jitter (the
        client's private :func:`derive_rng` stream), so concurrent
        retriers spread out yet whole simulations stay reproducible.
        ``immediate`` skips the sleep — a fenced (stale-epoch) op is
        not contending for anything, its metadata is just old, so the
        right move is to refresh right away.  Returns the descriptor
        the replay should use; *recoverable* control-path failures keep
        the current one (the next attempt tries again), while fatal
        ones — deadline misses, freed regions — propagate and fail the
        op fast.
        """
        client = self.client
        cfg = client.config
        if not immediate:
            delay = min(
                cfg.retry_backoff_max_s,
                cfg.retry_backoff_base_s * (2 ** (attempt - 1)),
            )
            delay *= 0.5 + client._retry_rng.random()
            yield client.sim.timeout(delay)
        try:
            desc = yield from client._master_call("lookup", self.name)
        except RegionNotFoundError:
            raise  # freed under us: genuinely fatal
        except (RecoverableError, RpcRemoteError):
            return self.desc  # transient master-side failure
        if not desc.available:
            raise RegionUnavailableError(desc.unavailable_reason)
        client._note_epoch(desc.epoch, self.shard)
        client._meta_store(self.name, self.shard, desc)
        try:
            yield from client._ensure_qps(desc, self._qps)
        except RdmaError:
            # a hosting server is unreachable but the master has not
            # noticed yet; keep the old layout and let the next attempt
            # pick up the promoted descriptor
            return self.desc
        self.desc = desc
        return self.desc


class _MetaEntry:
    """One cached region descriptor lease (or negative entry).

    ``epoch`` is the client's *observed epoch of the owning shard* at
    fetch time — not ``desc.epoch``, which records when the region was
    created and is usually older.  An entry is served while the lease
    has not expired and the shard's observed epoch has not moved; an
    epoch bump evicts every lease fetched under the older era, which is
    exactly the "at most one master RPC per epoch per region" contract.
    """

    __slots__ = ("desc", "shard", "epoch", "expires", "error")

    def __init__(self, desc, shard: int, epoch: int, expires: float,
                 error: Optional[Exception] = None):
        self.desc = desc
        self.shard = shard
        self.epoch = epoch
        self.expires = expires
        #: a cached miss: ``map`` re-raises this until the negative TTL
        #: lapses (freshly created regions become visible on re-ask)
        self.error = error


class RStoreClient:
    """One application's connection to the store."""

    def __init__(
        self,
        sim: Simulator,
        nic: RNic,
        cm: ConnectionManager,
        config: Optional[RStoreConfig] = None,
    ):
        self.sim = sim
        self.nic = nic
        self.cm = cm
        self.config = config or RStoreConfig()
        self._pd = None
        self._data_cq = None
        self._staging: Optional[LocalBufferPool] = None
        #: the only path to a master: one cached channel per shard
        self._router = ShardRouter(sim, nic, cm, self.config)
        self._data_qps: dict[int, QueuePair] = {}
        self._pumps: dict[QueuePair, _QpPump] = {}
        self._mem_rpc: dict[int, RpcClient] = {}
        #: lazily built DataPathRouter (see the ``datapath`` property)
        self._datapath = None
        #: bumped on every lazy one-time setup (QP dial, memory-service
        #: channel dial, fetch-buffer allocation) so the adaptive
        #: selector can discard latency samples that paid setup costs
        self.setup_events = 0
        #: deterministic jitter stream for data-path retry backoff
        self._retry_rng = derive_rng(
            self.config.seed, f"rstore-client-{nic.host.host_id}-retry"
        )
        #: futures awaiting remap-and-replay, served FIFO by the worker
        self._retry_queue: deque[OpFuture] = deque()
        self._retry_wakeup = None
        self._resolve_seq = 0
        #: highest epoch observed per shard (descriptor or stats reply);
        #: stamped onto mutating control RPCs for fencing, and the
        #: invalidation signal for the metadata cache
        self._epochs: dict[int, int] = {}
        #: region name -> :class:`_MetaEntry` descriptor lease
        self._meta_cache: dict[str, _MetaEntry] = {}
        #: names with a lookup in flight -> waiter events (single-flight:
        #: concurrent misses coalesce onto one master RPC)
        self._meta_inflight: dict[str, list] = {}
        #: sanitizer context (no-op unless ``config.sanitize``); one
        #: actor per client host
        self.rsan = rsan_for(sim)
        self._rsan_actor = nic.host.host_id
        # -- observability: registry instruments labelled by host; the
        # legacy attribute names live on as read-only properties
        self.obs = obs_for(sim)
        _m = self.obs.metrics
        _host = nic.host.host_id
        self._m_ops_completed = _m.counter("client.ops_completed",
                                           host=_host)
        self._m_bytes_moved = _m.counter("client.bytes_moved", host=_host)
        self._m_retries = _m.counter("client.retries", host=_host)
        self._m_pieces_replayed = _m.counter("client.pieces_replayed",
                                             host=_host)
        self._m_master_calls = _m.counter("client.master_calls", host=_host)
        self._m_retries_fenced = _m.counter("client.retries_fenced",
                                            host=_host)
        self._m_deadlines_missed = _m.counter("client.deadlines_missed",
                                              host=_host)
        self._m_master_redials = _m.counter("client.master_redials",
                                            host=_host)
        self._m_cache_hits = _m.counter("client.metadata_cache_hits",
                                        host=_host)
        self._m_cache_misses = _m.counter("client.metadata_cache_misses",
                                          host=_host)
        self._m_cache_coalesced = _m.counter(
            "client.metadata_cache_coalesced", host=_host
        )

    # -- metrics (registry-backed; see repro.obs) -----------------------------

    @property
    def ops_completed(self) -> int:
        return self._m_ops_completed.value

    @property
    def bytes_moved(self) -> int:
        return self._m_bytes_moved.value

    @property
    def retries(self) -> int:
        return self._m_retries.value

    @property
    def pieces_replayed(self) -> int:
        """Failed pieces re-posted by replay rounds (always < the op's
        total pieces when only part of a batch was hit by a fault)."""
        return self._m_pieces_replayed.value

    @property
    def master_calls(self) -> int:
        """Control-path RPCs issued to the master (alloc, lookup,
        barrier, ...) — the separation thesis says steady-state data
        paths keep this flat; tests assert on it."""
        return self._m_master_calls.value

    @property
    def retries_fenced(self) -> int:
        """Retry rounds triggered by an epoch fence (stale metadata)."""
        return self._m_retries_fenced.value

    @property
    def deadlines_missed(self) -> int:
        """Control calls or data ops that ran out of deadline budget."""
        return self._m_deadlines_missed.value

    @property
    def master_redials(self) -> int:
        """Times the control channel died and was re-established."""
        return self._m_master_redials.value

    @property
    def metadata_cache_hits(self) -> int:
        """``map``-by-name calls served from the descriptor cache."""
        return self._m_cache_hits.value

    @property
    def metadata_cache_misses(self) -> int:
        """``map``-by-name calls that had to ask the owning shard."""
        return self._m_cache_misses.value

    @property
    def metadata_cache_coalesced(self) -> int:
        """Concurrent misses that piggybacked on another's lookup."""
        return self._m_cache_coalesced.value

    @property
    def _epoch(self) -> int:
        """Legacy single-master view: the highest epoch on any shard."""
        return max(self._epochs.values(), default=0)

    def start(self):
        """Connect to the cluster (generator)."""
        self._pd = yield from self.nic.alloc_pd()
        self._data_cq = yield from self.nic.create_cq(depth=1 << 16)
        staging_mr = yield from self.nic.reg_mr(
            self._pd, length=self.config.staging_pool_bytes
        )
        self._staging = LocalBufferPool(self.sim, staging_mr)
        yield from self._router.connect_all()
        self.sim.process(self._completion_dispatcher(), name="client-dispatch")
        self.sim.process(self._retry_worker(), name="client-retry")
        return self

    def batch(self) -> IoBatch:
        """A fresh :class:`IoBatch` bound to this client."""
        return IoBatch(self)

    @property
    def datapath(self):
        """The server-op / remote-fetch router (lazily built).

        Deferred import: ``repro.datapath.router`` imports this module,
        so binding it at first use keeps the import graph acyclic and
        the one-sided-only fast path free of the dependency.
        """
        if self._datapath is None:
            from repro.datapath.router import DataPathRouter

            self._datapath = DataPathRouter(self)
        return self._datapath

    def _mem_channel(self, host_id: int):
        """A connected RPC channel to *host_id*'s memory service
        (generator); cached per host, shared by the two-sided ablation
        and the server-op data path."""
        rpc = self._mem_rpc.get(host_id)
        if rpc is None:
            rpc = RpcClient(self.sim, self.nic, self.cm)
            yield from rpc.connect(host_id, self.config.mem_service)
            self._mem_rpc[host_id] = rpc
            self.setup_events += 1
        return rpc

    def _mem_channel_drop(self, host_id: int) -> None:
        """Forget a dead memory-service channel so the next use redials."""
        self._mem_rpc.pop(host_id, None)

    # -- control path ----------------------------------------------------------

    def _master_call(self, method: str, *args, shard: Optional[int] = None):
        """One control RPC — routed, deadline-bounded, crash-tolerant.

        The owning shard is derived from the method's name argument
        (``_NAME_ROUTED``) unless *shard* pins it explicitly; methods
        without a name (stats, membership) default to shard 0.
        Ordinary control calls get ``control_deadline_s`` of total
        budget: each attempt's RPC timeout is the time left, a dead
        channel triggers a redial of the (possibly restarted) shard,
        and when the budget drains a typed error surfaces instead of
        an unbounded hang — a partitioned client fails fast.
        Coordination rendezvous (barrier/allreduce/wait_note) park at
        the master by design, so they skip the deadline but keep the
        bounded redial.
        """
        if shard is None:
            shard = (self._router.shard_of(args[0])
                     if method in _NAME_ROUTED and args else 0)
        self._m_master_calls.inc()
        rsan = self.rsan
        if rsan.enabled:
            # every control RPC serializes through its single-threaded
            # shard: model it as one coarse release/acquire key per
            # shard.  This over-synchronizes (false negatives only) but
            # keeps the control path free of false positives.
            rsan.sync_release(self._rsan_actor, ("master", shard))
        span = self.obs.tracer.span(f"control.master.{method}",
                                    kind="control",
                                    host=self.nic.host.host_id)
        deadline = (None if method in _BLOCKING_CONTROL
                    else self.sim.now + self.config.control_deadline_s)
        try:
            result = yield from self._call_with_redial(method, args,
                                                       deadline, shard)
        except Exception:
            span.finish(ok=False)
            raise
        span.finish()
        if rsan.enabled:
            rsan.sync_acquire(self._rsan_actor, ("master", shard))
        return result

    def _call_with_redial(self, method: str, args, deadline, shard: int):
        """The attempt loop behind :meth:`_master_call` (generator)."""
        while True:
            timeout = None
            if deadline is not None:
                timeout = deadline - self.sim.now
                if timeout <= 0:
                    self._m_deadlines_missed.inc()
                    raise DeadlineExceededError(
                        f"control call {method!r} missed its "
                        f"{self.config.control_deadline_s}s deadline"
                    )
            try:
                master = yield from self._router.client_for(shard)
                result = yield from master.call(method, *args,
                                                timeout=timeout)
            except RpcTimeout:
                self._m_deadlines_missed.inc()
                raise DeadlineExceededError(
                    f"control call {method!r} missed its "
                    f"{self.config.control_deadline_s}s deadline"
                ) from None
            except RpcRemoteError as exc:
                err = _translated(exc)
                if isinstance(err, MasterUnavailableError):
                    # a zombie handler on a crashed master refused to
                    # commit; redial and try again
                    yield from self._redial_master(deadline, shard)
                    continue
                raise err from None
            except (RdmaError, RpcError, ChannelClosed):
                # channel death: the shard crashed, or we are cut off
                yield from self._redial_master(deadline, shard)
                continue
            return result

    def _redial_master(self, deadline, shard: int = 0):
        """Re-dial one shard's control service (generator).

        Bounded even for deadline-less (blocking) calls — they get a
        redial budget of ``control_deadline_s`` so a master that never
        comes back cannot park a retry loop forever.  Raises
        :class:`MasterUnavailableError` when the budget drains.
        """
        self._m_master_redials.inc()
        cfg = self.config
        if deadline is None:
            deadline = self.sim.now + cfg.control_deadline_s
        try:
            yield from self._router.redial(shard, deadline, self._retry_rng)
        except DeadlineExceededError:
            self._m_deadlines_missed.inc()
            raise MasterUnavailableError(
                "master unreachable within the control deadline"
            ) from None

    def _note_epoch(self, epoch, shard: int = 0) -> None:
        """Track *shard*'s epoch; a bump drops that shard's leases."""
        if epoch is None or epoch <= self._epochs.get(shard, 0):
            return
        self._epochs[shard] = epoch
        stale = [name for name, entry in self._meta_cache.items()
                 if entry.shard == shard and entry.epoch < epoch]
        for name in stale:
            del self._meta_cache[name]

    def _mutate(self, method: str, *args):
        """Epoch-stamped mutating control call (generator).

        The call carries this client's view of the owning shard's
        epoch; a shard that has moved on fences it with
        StaleEpochError.  One refresh-and-retry is built in — the point
        of the fence is to force exactly that refresh, not to fail the
        application.
        """
        shard = self._router.shard_of(args[0])
        try:
            result = yield from self._master_call(
                method, *args, self._epochs.get(shard, 0), shard=shard
            )
        except StaleEpochError:
            self._m_retries_fenced.inc()
            stats = yield from self._master_call("cluster_stats",
                                                 shard=shard)
            self._note_epoch(stats["epoch"], shard)
            result = yield from self._master_call(
                method, *args, self._epochs.get(shard, 0), shard=shard
            )
        return result

    # -- the metadata cache --------------------------------------------------

    def _meta_store(self, name: str, shard: int, desc) -> None:
        """Cache a fresh descriptor under the current observed epoch."""
        if not self.config.metadata_cache:
            return
        if not desc.available:
            # never lease unavailability: callers polling for the
            # region to heal must observe the restored descriptor on
            # their next ask, not a cached refusal
            self._meta_evict(name)
            return
        self._meta_cache[name] = _MetaEntry(
            desc=desc, shard=shard,
            epoch=self._epochs.get(shard, 0),
            expires=self.sim.now + self.config.meta_lease_s,
        )

    def _meta_store_negative(self, name: str, shard: int,
                             as_of: Optional[int] = None) -> None:
        """Cache a miss.  *as_of* is the shard epoch observed when the
        lookup was *issued*, not when it completed: a lookup in flight
        across an epoch bump must be stamped with the old era so the
        bump (already observed by the time the refusal lands) evicts
        it like any other stale lease — otherwise a region created
        under the new era hides behind a cached refusal for the whole
        negative TTL."""
        if not self.config.metadata_cache:
            return
        ttl = self.config.meta_negative_ttl_s
        if ttl <= 0:
            return
        epoch = self._epochs.get(shard, 0) if as_of is None else as_of
        self._meta_cache[name] = _MetaEntry(
            desc=None, shard=shard,
            epoch=epoch,
            expires=self.sim.now + ttl,
            error=RegionNotFoundError(f"no region named {name!r}"),
        )

    def _meta_evict(self, name: str) -> None:
        self._meta_cache.pop(name, None)

    def _meta_resolve(self, name: str):
        """Descriptor for *name* (generator): cache, else one lookup.

        Single-flight: concurrent misses for the same name park on the
        first caller's lookup and share its outcome — 32 clients racing
        a cold name cost the shard exactly one RPC.
        """
        if not self.config.metadata_cache:
            desc = yield from self.lookup(name)
            return desc
        entry = self._meta_cache.get(name)
        if entry is not None and entry.epoch < self._epochs.get(
                entry.shard, 0):
            # stamped under an older era than we have since observed —
            # possible when the entry was stored by a lookup that was
            # already in flight when the bump arrived; serve-time check
            # keeps such a lease from outliving the era it belongs to
            self._meta_evict(name)
            entry = None
        if entry is not None and self.sim.now < entry.expires:
            self._m_cache_hits.inc()
            if entry.error is not None:
                raise entry.error
            return entry.desc
        waiters = self._meta_inflight.get(name)
        if waiters is not None:
            self._m_cache_coalesced.inc()
            event = self.sim.event()
            waiters.append(event)
            desc, exc = yield event
            if exc is not None:
                raise exc
            return desc
        self._m_cache_misses.inc()
        self._meta_inflight[name] = []
        desc, exc = None, None
        try:
            desc = yield from self.lookup(name)
        except Exception as caught:  # noqa: BLE001 - outcome fans out
            exc = caught
        for event in self._meta_inflight.pop(name, ()):
            event.succeed((desc, exc))
        if exc is not None:
            raise exc
        return desc

    def alloc(self, name: str, size: int, stripe_size: Optional[int] = None,
              preferred_host: Optional[int] = None,
              replication: Optional[int] = None):
        """Allocate a named region (generator); returns its descriptor.

        ``preferred_host`` is a locality hint: place the whole region on
        that memory server when it has capacity.  ``replication`` > 1
        keeps that many copies of each stripe on distinct servers.
        """
        desc = yield from self._mutate(
            "alloc", name, size, stripe_size, preferred_host, replication
        )
        shard = self._router.shard_of(name)
        self._note_epoch(desc.epoch, shard)
        self._meta_store(name, shard, desc)
        return desc

    def lookup(self, name: str):
        """Fetch a region descriptor by name (generator).

        Always asks the owning shard — tests and retry loops poll
        ``lookup`` to observe repair progress, so it must never serve a
        cached descriptor.  The reply refreshes the cache for ``map``.
        """
        shard = self._router.shard_of(name)
        # capture the observed epoch *before* the RPC: the refusal (if
        # any) is only valid as of this era — see _meta_store_negative
        as_of = self._epochs.get(shard, 0)
        try:
            desc = yield from self._master_call("lookup", name, shard=shard)
        except RegionNotFoundError:
            self._meta_store_negative(name, shard, as_of=as_of)
            raise
        self._note_epoch(desc.epoch, shard)
        self._meta_store(name, shard, desc)
        return desc

    def resize(self, name: str, new_size: int):
        """Grow a region (generator); returns the new descriptor.

        Existing data is untouched.  Re-map to access the added range —
        live mappings keep working for the old range only.
        """
        desc = yield from self._mutate("resize", name, new_size)
        shard = self._router.shard_of(name)
        self._note_epoch(desc.epoch, shard)
        self._meta_store(name, shard, desc)
        return desc

    def free(self, name: str):
        """Release a region cluster-wide (generator)."""
        result = yield from self._mutate("free", name)
        self._meta_evict(name)
        return result

    def list_regions(self):
        """All region names, across every shard (generator)."""
        if self._router.num_shards == 1:
            names = yield from self._master_call("list_regions")
            return names
        names = []
        for shard in range(self._router.num_shards):
            owned = yield from self._master_call("list_regions", shard=shard)
            names.extend(owned)
        return sorted(names)

    def map(self, region: Union[RegionDesc, str],
            path_policy: Optional[str] = None):
        """Map a region for data-path access (generator).

        Resolves the descriptor (if given a name) — through the leased
        metadata cache, so a warm re-map costs **zero** control RPCs
        until the owning shard's epoch moves — then ensures a connected
        data QP to every hosting server.  QPs are cached across
        mappings, so only first contact with a server pays the
        connection cost.

        ``path_policy`` selects how composite ops over the mapping run
        (``one_sided`` | ``server_op`` | ``remote_fetch`` |
        ``adaptive``); ``None`` takes ``config.datapath_policy``.
        """
        span = self.obs.tracer.span("control.client.map", kind="control",
                                    host=self.nic.host.host_id)
        desc = region
        by_name = isinstance(region, str)
        if by_name:
            try:
                desc = yield from self._meta_resolve(region)
            except Exception:
                span.finish(ok=False)
                raise
        for refreshed in (False, True):
            self._note_epoch(desc.epoch, self._router.shard_of(desc.name))
            if not desc.available:
                span.finish(ok=False)
                raise RegionUnavailableError(desc.unavailable_reason)
            mapping = Mapping(self, desc, path_policy=path_policy)
            try:
                yield from self._ensure_qps(desc, mapping._qps)
            except RdmaError:
                # a hosting server is unreachable; if the descriptor
                # came from the cache it may simply be a stale lease —
                # drop it and ask the owning shard once before failing
                if refreshed or not by_name:
                    span.finish(ok=False)
                    raise
                self._meta_evict(region)
                try:
                    desc = yield from self.lookup(region)
                except Exception:
                    span.finish(ok=False)
                    raise
                continue
            break
        span.finish(region=desc.name, hosts=len(desc.hosts))
        return mapping

    def _ensure_qps(self, desc: RegionDesc, table: dict) -> None:
        """Connected data QP to every host of *desc* (generator).

        Reconnects cached QPs that have gone to ERROR (server death or
        injected fault), so a remap after a retry really gets a usable
        path.  Updates both the client-wide cache and *table*.
        """
        for host_id in desc.hosts:
            qp = self._data_qps.get(host_id)
            if qp is None or qp.state is not QpState.CONNECTED:
                qp = yield from self.cm.connect(
                    self.nic,
                    host_id,
                    self.config.data_service,
                    self._pd,
                    self._data_cq,
                    sq_depth=self.config.data_sq_depth,
                )
                self._data_qps[host_id] = qp
                self.setup_events += 1
            table[host_id] = qp

    def alloc_local(self, length: int):
        """Register a private local buffer for zero-copy IO (generator)."""
        mr = yield from self.nic.reg_mr(self._pd, length=length)
        return mr

    # -- synchronization ----------------------------------------------------------

    def barrier(self, name: str, count: int):
        """Wait at a named cluster barrier (generator)."""
        generation = yield from self._master_call("barrier", name, count)
        return generation

    def allreduce(self, name: str, count: int, value):
        """Sum *value* across *count* participants (generator)."""
        total = yield from self._master_call("allreduce", name, count, value)
        return total

    def notify(self, name: str, payload=None):
        """Publish a named notification (generator)."""
        result = yield from self._master_call("notify", name, payload)
        return result

    def wait_note(self, name: str):
        """Wait for a named notification (generator)."""
        payload = yield from self._master_call("wait_note", name)
        return payload

    # -- internals -------------------------------------------------------------------

    def _next_resolve_index(self) -> int:
        self._resolve_seq += 1
        return self._resolve_seq

    def _pump_for(self, qp: QueuePair) -> _QpPump:
        pump = self._pumps.get(qp)
        if pump is None:
            pump = _QpPump(
                qp,
                window=self.config.data_window_per_qp,
                batch_window=self.config.data_batch_window_per_qp,
            )
            self._pumps[qp] = pump
        return pump

    def _post_batch(self, qp: QueuePair, wrs: list[SendWR]):
        """Post *wrs* in doorbell batches, honouring the pump window.

        Generator: parks on the pump when the batch window is full and
        resumes as completions return credit.  The per-doorbell issue
        overhead is charged here — once per doorbell, not per WR.
        """
        pump = self._pump_for(qp)
        idx = 0
        while idx < len(wrs):
            take = pump.reserve(len(wrs) - idx)
            if take == 0:
                event = self.sim.event()
                pump.waiters.append(event)
                yield event
                continue
            group = wrs[idx:idx + take]
            idx += take
            yield from self.nic.host.cpu.run(self.config.issue_overhead_s)
            self._ring_doorbell(qp, pump, group)

    def _ring_doorbell(self, qp: QueuePair, pump: _QpPump,
                       wrs: list[SendWR]) -> None:
        """One doorbell: selective signaling + atomic admission."""
        tokens = [wr.wr_id for wr in wrs]
        group = _Doorbell(pump, tokens)
        for wr in wrs:
            # atomics stay signaled — their completion carries the
            # fetched value the future resolves with
            wr.signaled = wr.opcode in _ATOMIC_OPS
        wrs[-1].signaled = True
        try:
            qp.post_send_many(wrs)
        except RdmaError as exc:
            # nothing reached the NIC: hand the credit back and fail
            # every carried sub-request so the retry worker replays
            group.credited = True
            pump.credit(len(wrs))
            err = RegionUnavailableError(str(exc))
            for token in tokens:
                token.abort(err)

    def _completion_dispatcher(self):
        """Owns every data-path completion; routes them to futures."""
        tracer = self.obs.tracer
        while True:
            wc = yield self._data_cq.next_completion()
            token = wc.wr_id
            if not isinstance(token, _WrToken):
                continue
            if tracer.enabled:
                raised = getattr(wc, "_obs_raised", None)
                if raised is not None:
                    tracer.record("data.cq.complete", raised,
                                  host=self.nic.host.host_id,
                                  status=wc.status.value)
            group = token.group
            if group is None:
                # synchronous single: one WR, one signaled completion
                pump = self._pumps.get(wc.qp)
                if pump is not None:
                    pump.on_complete()
                if not token.retired:
                    self._retire_token(token, wc)
                continue
            if not token.retired:
                self._retire_token(token, wc)
                if not wc.ok:
                    self._break_group(group, token)
                elif token is group.tokens[-1]:
                    # tail success: in-order delivery proves every
                    # unsignaled WR before it succeeded
                    for t in group.tokens:
                        if not t.retired:
                            self._retire_token(t, None)
            if group.unretired == 0 and not group.credited:
                group.credited = True
                group.pump.credit(len(group.tokens))

    def _retire_token(self, token: _WrToken, wc) -> None:
        """Deliver one token's outcome (*wc*, or ``None`` for success)."""
        token.retired = True
        if token.group is not None:
            token.group.unretired -= 1
        for fut, piece in token.subs:
            if wc is None:
                fut._sub_ok(piece)
            else:
                fut._sub_done(piece, wc)

    def _break_group(self, group: _Doorbell, err_token: _WrToken) -> None:
        """RC flush semantics for a doorbell batch hit by an error.

        In-order delivery means everything posted *before* the failed
        WR already succeeded (an earlier error would have arrived
        first); everything *after* it is flushed — replayable for
        reads/writes, ambiguous for atomics (the NIC may still execute
        flushed WRs remotely).
        """
        idx = group.tokens.index(err_token)
        for token in group.tokens[:idx]:
            if not token.retired:
                self._retire_token(token, None)
        for token in group.tokens[idx + 1:]:
            if token.retired:
                continue
            token.retired = True
            group.unretired -= 1
            for fut, piece in token.subs:
                fut._sub_flushed(piece)

    def _round_done(self, fut: OpFuture) -> None:
        """Every sub-request of *fut*'s current round has retired."""
        if fut.done:
            return
        if fut._failure is None:
            self._settle(fut)
            return
        mapping = fut.mapping
        # ``_last_wc`` is only set when a completion (good or bad) came
        # back — i.e. the request made it onto the wire; a flushed
        # atomic is just as ambiguous
        # a fence NAK means the server refused *before* executing, so a
        # fenced atomic is unambiguous and safe to replay
        if fut.is_atomic and not fut.idempotent and (
                fut._last_wc is not None or fut._flush_ambiguous) and (
                not isinstance(fut._failure, StaleEpochError)):
            err = RegionUnavailableError(
                f"atomic on {mapping.name!r} failed after reaching the "
                f"NIC ({fut._failure}); the remote side may have "
                "applied it, so it is not replayed — pass "
                "idempotent=True to opt into replay"
            )
            err.__cause__ = fut._failure
            fut._fail(err)
            return
        if not fut.replay:
            fut._fail(fut._failure)
            return
        fut._attempts += 1
        if fut.deadline is not None and self.sim.now >= fut.deadline:
            self._m_deadlines_missed.inc()
            err = DeadlineExceededError(
                f"{fut.kind} on {mapping.name!r} missed its "
                f"{self.config.op_deadline_s}s deadline after "
                f"{fut._attempts} attempt(s): {fut._failure}"
            )
            err.__cause__ = fut._failure
            fut._fail(err)
            return
        if fut._attempts > self.config.data_retry_limit:
            kind = ("atomic" if fut.is_atomic
                    else "write" if fut.fan_out else "read")
            err = RegionUnavailableError(
                f"{kind} on {mapping.name!r} failed after "
                f"{fut._attempts} attempts: {fut._failure}"
            )
            err.__cause__ = fut._failure
            fut._fail(err)
            return
        if not mapping.active:
            fut._fail(NotMappedError(
                f"region {mapping.name!r} was unmapped with the "
                "operation in flight"
            ))
            return
        self._retry_queue.append(fut)
        self._wake_retry_worker()

    def _settle(self, fut: OpFuture) -> None:
        self._m_ops_completed.inc()
        if not fut.is_atomic:
            self._m_bytes_moved.inc(fut.length * fut.wire_scale)
        fut._resolve(fut._take_value())

    def _wake_retry_worker(self) -> None:
        if self._retry_wakeup is not None and not self._retry_wakeup.triggered:
            self._retry_wakeup.succeed()

    def _retry_worker(self):
        """Background process: remap-and-replay for failed futures.

        Replays are serialized FIFO, so two failed ops never race the
        mapping's descriptor refresh — and whole simulations stay
        deterministic.
        """
        while True:
            while not self._retry_queue:
                self._retry_wakeup = self.sim.event()
                yield self._retry_wakeup
                self._retry_wakeup = None
            fut = self._retry_queue.popleft()
            if fut.done:
                continue
            yield from self._replay(fut)

    def _replay(self, fut: OpFuture):
        """One remap-and-replay round for *fut* (generator).

        Replays only the failed sub-operations against a refreshed
        descriptor (fan-out can fail a piece on several replicas).
        """
        mapping = fut.mapping
        pieces = list(dict.fromkeys(fut._failed))
        # a fenced op holds stale metadata, not a contended resource:
        # refresh immediately instead of backing off
        fenced = isinstance(fut._failure, StaleEpochError)
        if fenced:
            self._m_retries_fenced.inc()
        fut._failed = []
        fut._failure = None
        fut._last_wc = None
        fut._flush_ambiguous = False
        try:
            desc = yield from mapping._remap_with_backoff(fut._attempts,
                                                          immediate=fenced)
        except Exception as exc:
            fut._fail(exc)
            return
        if fut.done:
            return
        if not mapping.active:
            fut._fail(NotMappedError(
                f"region {mapping.name!r} was unmapped with the "
                "operation in flight"
            ))
            return
        self._m_retries.inc()
        self.obs.tracer.event("data.retry.replay", trace_id=fut.trace_id,
                              op=fut.kind, attempt=fut._attempts)
        if fut.is_atomic:
            mapping._post_atomic(fut, desc)
        else:
            self._m_pieces_replayed.inc(len(pieces))
            mapping._post_pieces(fut, desc, pieces)

    def _two_sided_io(self, mapping: Mapping, opcode, local_mr, local_addr,
                      offset, length, desc):
        """Ablation: data ops through the server CPU over messaging."""
        chunk_limit = max(1024, self.config.msg_size // 2)
        cursor = local_addr
        for stripe, stripe_off, take in desc.locate(offset, length):
            rpc = yield from self._mem_channel(stripe.host_id)
            pos = 0
            while pos < take:
                piece = min(chunk_limit, take - pos)
                remote = stripe.addr + stripe_off + pos
                if opcode is Opcode.RDMA_READ:
                    data = yield from rpc.call("ts_read", remote, piece)
                    local_mr.buffer.write(
                        local_mr.offset_of(cursor + pos), data
                    )
                else:
                    payload = local_mr.buffer.read(
                        local_mr.offset_of(cursor + pos), piece
                    )
                    yield from rpc.call("ts_write", remote, payload)
                pos += piece
            cursor += take
        self._m_ops_completed.inc()
        self._m_bytes_moved.inc(length)
