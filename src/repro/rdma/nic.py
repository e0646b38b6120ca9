"""The RDMA NIC: control-path verbs and the offloaded data path.

Control-path methods (``alloc_pd``, ``reg_mr``, ``create_qp``, …) are
generators that charge realistic setup latencies — this is the "resource
setup" half of RDMA's separation philosophy.

The data path is fully offloaded: once a work request is posted, the
NIC engine model (an analytic busy-time chain, like a link channel)
processes WQEs in order, moves frames across the fabric, executes
one-sided operations against the *remote NIC's* memory table without
ever touching the remote CPU model, and raises completions.  Each leg's
fixed delay rides the fabric's delivery timer (``transmit_then``'s
*after*): the responder checks and executes a WR at request arrival +
``remote_dma_s`` in one callback, and the requester raises the CQE at
reply arrival + ``completion_s`` in another.

Responder ordering follows RC: a WR that never executes remotely
(injected launch fault, request leg lost to a partition, NAK, dead
peer) halts its QP, and every WR posted behind it completes as
``WR_FLUSH_ERR`` without touching remote memory — so a WRITE posted
after another on one QP never lands unless the first one did.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs import obs_for
from repro.rdma.cq import CompletionQueue, WorkCompletion
from repro.rdma.device import NicModel
from repro.rdma.memory import Buffer, HostMemory, MemoryRegion
from repro.rdma.pd import ProtectionDomain
from repro.rdma.qp import QueuePair
from repro.rdma.types import Access, Opcode, QpState, RdmaError, WcStatus
from repro.rdma.wr import RecvWR, SendWR
from repro.sanitize import rsan_for
from repro.simnet.kernel import Simulator
from repro.simnet.topology import Host, Network

__all__ = ["RNic"]


class RNic:
    """One host's RDMA NIC."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        network: Network,
        model: Optional[NicModel] = None,
    ):
        self.sim = sim
        self.host = host
        self.network = network
        self.model = model or NicModel()
        self.memory = HostMemory(host.host_id)
        self.alive = True
        #: epoch fence: one-sided WRs stamped with an epoch below this
        #: are NAK'd ("stale epoch") instead of touching memory — set by
        #: the memory server when it re-registers with a recycled arena.
        #: Epochs are per control-plane shard (shards recover
        #: independently); this attribute is shard 0's fence and
        #: ``_shard_fences`` carries the rest — WRs say which fence
        #: applies via their ``shard`` stamp.
        self.fence_epoch = 0
        self._shard_fences: dict[int, int] = {}
        #: optional fault-injection hook: ``hook(host_id, wr) -> str``
        #: returning a non-empty detail fails the WR with RETRY_EXC_ERR
        #: *before* it leaves this NIC (the remote side never sees it)
        self.fault_hook: Optional[Callable[[int, SendWR], str]] = None
        #: like ``fault_hook`` but consulted when a *successful*
        #: completion is about to be raised: the remote side already
        #: applied the op, only the acknowledgement is lost.  This is
        #: the ambiguity that makes atomics non-replayable.
        self.ack_fault_hook: Optional[Callable[[int, SendWR], str]] = None
        self._engine_busy_until = 0.0
        #: rkey -> MemoryRegion, the NIC's translation/permission table
        self.mr_by_rkey: dict[int, MemoryRegion] = {}
        # -- observability: registry instruments labelled by host; the
        # legacy attribute names live on as read-only properties
        self.obs = obs_for(sim)
        self.rsan = rsan_for(sim)
        _m = self.obs.metrics
        _host = host.host_id
        self._m_ops_posted = _m.counter("rnic.ops_posted", host=_host)
        self._m_ops_completed = _m.counter("rnic.ops_completed", host=_host)
        self._m_bytes_sent = _m.counter("rnic.bytes_sent", host=_host)
        self._m_doorbells = _m.counter("rnic.doorbells_rung", host=_host)
        host.services["rnic"] = self

    # -- epoch fencing --------------------------------------------------------

    def set_fence(self, shard_id: int, epoch: int) -> None:
        """Fence one shard's era: one-sided WRs carrying that shard's
        stamp with an older epoch NAK instead of touching memory."""
        if shard_id == 0:
            self.fence_epoch = epoch
        else:
            self._shard_fences[shard_id] = epoch

    def fence_for(self, shard_id: int) -> int:
        return (self.fence_epoch if shard_id == 0
                else self._shard_fences.get(shard_id, 0))

    def fenced(self, shard_id: int, epoch: int) -> bool:
        """Would a request stamped (*shard_id*, *epoch*) be NAK'd stale?

        The same test the WR path applies, exposed for the server-op
        executor so composite RPC-borne ops honour the identical fence.
        """
        return epoch < self.fence_for(shard_id)

    # -- metrics (registry-backed; see repro.obs) -----------------------------

    @property
    def ops_posted(self) -> int:
        """Work requests accepted by this NIC's engine."""
        return self._m_ops_posted.value

    @property
    def ops_completed(self) -> int:
        """Completions this NIC has raised (success or error)."""
        return self._m_ops_completed.value

    @property
    def bytes_sent(self) -> int:
        return self._m_bytes_sent.value

    @property
    def doorbells_rung(self) -> int:
        """One per ``submit`` call and one per ``submit_many`` *list* —
        ``doorbells_rung < ops_posted`` is the proof that doorbell
        batching is happening."""
        return self._m_doorbells.value

    # ------------------------------------------------------------------
    # control path (generators charging setup time)
    # ------------------------------------------------------------------

    def alloc_pd(self):
        """Allocate a protection domain (generator)."""
        span = self.obs.tracer.span("control.nic.alloc_pd", kind="control",
                                    host=self.host.host_id)
        yield self.sim.timeout(self.model.alloc_pd_s)
        span.finish()
        return ProtectionDomain(self)

    def create_cq(self, depth: int = 4096):
        """Create a completion queue (generator)."""
        span = self.obs.tracer.span("control.nic.create_cq", kind="control",
                                    host=self.host.host_id)
        yield self.sim.timeout(self.model.create_cq_s)
        span.finish()
        return CompletionQueue(self.sim, depth)

    def reg_mr(
        self,
        pd: ProtectionDomain,
        length: Optional[int] = None,
        buffer: Optional[Buffer] = None,
        access: Access = Access.LOCAL_WRITE,
    ):
        """Register a memory region (generator).

        Either pass an existing ``buffer`` or a ``length`` to allocate a
        fresh one.  Registration cost grows with the page count — the
        dominant control-path cost the paper's design amortises by
        registering at allocation/mapping time, never per IO.
        """
        if pd.nic is not self:
            raise RdmaError("PD belongs to a different device")
        if buffer is None:
            if length is None:
                raise RdmaError("reg_mr needs a buffer or a length")
            buffer = self.memory.alloc(length)
        elif buffer.host_id != self.host.host_id:
            raise RdmaError("cannot register another host's memory")
        mr = MemoryRegion(buffer, access, pd=pd)
        span = self.obs.tracer.span("control.nic.reg_mr", kind="control",
                                    host=self.host.host_id, pages=mr.pages)
        cost = self.model.reg_mr_base_s + mr.pages * self.model.reg_mr_per_page_s
        yield self.sim.timeout(cost)
        span.finish()
        self.mr_by_rkey[mr.rkey] = mr
        pd.regions.append(mr)
        return mr

    def dereg_mr(self, mr: MemoryRegion):
        """Deregister (unpin) a memory region (generator)."""
        mr.deregister()
        self.mr_by_rkey.pop(mr.rkey, None)
        yield self.sim.timeout(self.model.reg_mr_base_s / 2)

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        sq_depth: int = 128,
        rq_depth: int = 1024,
    ):
        """Create an RC queue pair (generator)."""
        if pd.nic is not self:
            raise RdmaError("PD belongs to a different device")
        span = self.obs.tracer.span("control.nic.create_qp", kind="control",
                                    host=self.host.host_id)
        yield self.sim.timeout(self.model.create_qp_s)
        span.finish()
        # NB: "recv_cq or send_cq" would be wrong here — an empty
        # CompletionQueue is falsy (it has __len__).
        return QueuePair(
            self,
            pd,
            send_cq,
            send_cq if recv_cq is None else recv_cq,
            sq_depth=sq_depth,
            rq_depth=rq_depth,
        )

    # ------------------------------------------------------------------
    # data path (event-driven, no generators: the NIC is offloaded)
    # ------------------------------------------------------------------

    def submit(self, qp: QueuePair, wr: SendWR) -> None:
        """Accept a posted WQE; called by :meth:`QueuePair.post_send`."""
        self._m_ops_posted.inc()
        self._m_doorbells.inc()
        wr._wc_raised = False
        if self.obs.tracer.enabled:
            wr._obs_posted = self.sim.now
        if self.rsan.enabled:
            self.rsan.on_post(wr, self.host.host_id)
        model = self.model
        earliest = self.sim.now + model.doorbell_s
        processing = model.wqe_processing_s
        if wr.inline_data is not None and len(wr.inline_data) <= model.max_inline:
            processing = max(0.0, processing - model.inline_saving_s)
        start = max(earliest, self._engine_busy_until)
        self._engine_busy_until = start + processing
        self.sim.call_later(
            self._engine_busy_until - self.sim.now, self._launch, (qp, wr)
        )

    def submit_many(self, qp: QueuePair, wrs: list[SendWR]) -> None:
        """Accept a doorbell batch; called by ``post_send_many``.

        The MMIO doorbell is paid once for the whole list; the engine
        then processes the WQEs back to back, so per-op cost collapses
        to ``wqe_processing_s`` — the mechanism behind the batched
        small-op throughput numbers (E13).
        """
        self._m_ops_posted.inc(len(wrs))
        self._m_doorbells.inc()
        for wr in wrs:
            wr._wc_raised = False
        if self.obs.tracer.enabled:
            for wr in wrs:
                wr._obs_posted = self.sim.now
        if self.rsan.enabled:
            for wr in wrs:
                self.rsan.on_post(wr, self.host.host_id)
        model = self.model
        earliest = self.sim.now + model.doorbell_s
        start = max(earliest, self._engine_busy_until)
        for wr in wrs:
            processing = model.wqe_processing_s
            if (wr.inline_data is not None
                    and len(wr.inline_data) <= model.max_inline):
                processing = max(0.0, processing - model.inline_saving_s)
            start += processing
            self.sim.call_later(start - self.sim.now, self._launch, (qp, wr))
        self._engine_busy_until = start

    def kill(self) -> None:
        """Simulate host failure: the NIC stops responding entirely."""
        self.alive = False

    # -- internal helpers ----------------------------------------------------

    def _launch(self, job: tuple[QueuePair, SendWR]) -> None:
        """The engine reaches one WQE: put the operation on the wire."""
        qp, wr = job
        if not self.alive:
            return  # a dead host sends nothing and nobody is listening
        tracer = self.obs.tracer
        if tracer.enabled:
            posted = getattr(wr, "_obs_posted", None)
            if posted is not None:
                tracer.record("data.qp.post", posted,
                              host=self.host.host_id, op=wr.opcode.name)
            wr._obs_launched = self.sim.now
        if self.fault_hook is not None:
            detail = self.fault_hook(self.host.host_id, wr)
            if detail:
                # injected wire fault: the op times out and errors the QP,
                # exactly like losing the peer mid-flight
                qp.halted = True
                self.sim.call_later(
                    self.model.retry_timeout_s, self._raise_cqe,
                    (qp, wr, WcStatus.RETRY_EXC_ERR, 0, None, detail),
                )
                return
        if self.network.fault_filter is not None:
            # partitions are armed: any leg of this op (request, remote
            # ack, read response) may silently vanish in the fabric, so
            # model the RC transport retry timer — if no completion has
            # been raised by then, the op fails with RETRY_EXC_ERR.
            # First completion wins (see the guard in ``_complete``).
            self.sim.call_later(
                self.model.retry_timeout_s, self._raise_cqe,
                (qp, wr, WcStatus.RETRY_EXC_ERR, 0, None,
                 "transport retries exhausted (partitioned?)"),
            )
        remote_qp = qp.remote
        assert remote_qp is not None, "connected QP lost its peer"
        opcode = wr.opcode
        if opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_IMM):
            self._launch_write(qp, wr, remote_qp)
        elif opcode is Opcode.RDMA_READ:
            self._launch_read(qp, wr, remote_qp)
        elif opcode in (Opcode.ATOMIC_CAS, Opcode.ATOMIC_FAA):
            self._launch_atomic(qp, wr, remote_qp)
        elif opcode is Opcode.SEND:
            self._launch_send(qp, wr, remote_qp)
        else:  # pragma: no cover - guarded by WR validation
            raise RdmaError(f"unsupported opcode {opcode}")

    def _snapshot_payload(self, wr: SendWR) -> bytes:
        """DMA-read the local payload at launch time (send-side snapshot)."""
        if wr.inline_data is not None:
            return bytes(wr.inline_data)
        if wr.length == 0 or wr.local_mr is None:
            return b""
        offset = wr.local_mr.offset_of(wr.local_addr)
        return wr.local_mr.buffer.read(offset, wr.length)

    def _transmit(self, dst: "RNic", nbytes: int,
                  fn: Callable[[Any], None], arg: Any = None,
                  after: float = 0.0) -> bool:
        """Send *nbytes* to *dst*'s NIC; ``fn(arg)`` runs *after* seconds
        past the moment the last frame lands.  False if a partition ate
        the message."""
        self._m_bytes_sent.inc(nbytes)
        return self.network.transmit_then(
            self.host,
            dst.host,
            nbytes,
            fn,
            arg,
            header_bytes=self.model.frame_header_bytes,
            after=after,
        )

    def _send_control(self, dst: "RNic", fn: Callable[[Any], None],
                      arg: Any = None, after: float = 0.0) -> bool:
        return self._transmit(dst, self.model.control_message_bytes,
                              fn, arg, after)

    def _reply(self, requester: "RNic", job: tuple) -> None:
        """Send the responder's acknowledgement or NAK; the requester
        raises the CQE ``_complete(*job)`` one CQE write after it lands."""
        self._send_control(requester, requester._raise_cqe, job,
                           requester.model.completion_s)

    def _raise_cqe(self, job: tuple) -> None:
        """Timer target: *job* is :meth:`_complete`'s positional args."""
        self._complete(*job)

    def _complete(
        self,
        qp: QueuePair,
        wr: SendWR,
        status: WcStatus,
        byte_len: int = 0,
        atomic_result: Optional[int] = None,
        detail: str = "",
    ) -> None:
        if getattr(wr, "_wc_raised", False):
            # the partition watchdog and the real outcome can both try
            # to complete one WR; whichever fires first is the truth
            return
        wr._wc_raised = True
        if status is WcStatus.SUCCESS and self.ack_fault_hook is not None:
            injected = self.ack_fault_hook(self.host.host_id, wr)
            if injected:
                # the op ran remotely; only its acknowledgement is lost
                status = WcStatus.RETRY_EXC_ERR
                byte_len = 0
                atomic_result = None
                detail = injected
        self._m_ops_completed.inc()
        tracer = self.obs.tracer
        if tracer.enabled:
            launched = getattr(wr, "_obs_launched", None)
            if launched is not None:
                tracer.record("data.nic.wire", launched,
                              host=self.host.host_id, op=wr.opcode.name,
                              status=status.value, nbytes=byte_len)
        wc = WorkCompletion(
            wr_id=wr.wr_id,
            status=status,
            opcode=wr.opcode,
            byte_len=byte_len,
            qp=qp,
            atomic_result=atomic_result,
            detail=detail,
        )
        if tracer.enabled:
            # consumed by the client dispatcher's data.cq.complete span
            wc._obs_raised = self.sim.now
        qp._complete_send(wr, wc)

    def _schedule_retry_failure(self, qp: QueuePair, wr: SendWR) -> None:
        """The peer is unreachable: complete with RETRY_EXC after timeout."""
        qp.halted = True
        self.sim.call_later(
            self.model.retry_timeout_s, self._raise_cqe,
            (qp, wr, WcStatus.RETRY_EXC_ERR, 0, None,
             "remote host unreachable"),
        )

    def _refused(self, qp: QueuePair, wr: SendWR, remote: "RNic") -> bool:
        """True if *wr* reached the responder behind a WR it never
        executed (RC drops it: it completes flushed) or the responder is
        dead (it times out)."""
        if qp.halted:
            self._complete(qp, wr, WcStatus.WR_FLUSH_ERR,
                           detail="flushed behind a work request the "
                                  "responder never executed")
            return True
        if not remote.alive:
            self._schedule_retry_failure(qp, wr)
            return True
        return False

    def _admit(self, qp: QueuePair, wr: SendWR, remote: "RNic",
               need: Access) -> Optional[MemoryRegion]:
        """The responder's checks, run when it is about to execute *wr*
        (arrival + ``remote_dma_s``): the target MR, or None once the WR
        has been answered otherwise — flushed behind a halt, timed out
        on a dead peer, or NAK'd."""
        if self._refused(qp, wr, remote):
            return None
        mr, detail = self._remote_lookup(remote, wr, need)
        if (mr is not None and need is Access.REMOTE_ATOMIC
                and wr.remote_addr % 8 != 0):
            mr, detail = None, "atomic target not 8-byte aligned"
        if mr is None:
            # remote-side rejection: an error response after a round trip
            qp.halted = True
            remote._reply(self, (qp, wr, WcStatus.REM_ACCESS_ERR, 0, None,
                                 detail))
        return mr

    def _remote_lookup(
        self, remote: "RNic", wr: SendWR, need: Access
    ) -> tuple[Optional[MemoryRegion], str]:
        epoch = getattr(wr, "epoch", None)
        if epoch is not None:
            fence = remote.fence_for(getattr(wr, "shard", 0))
            if epoch < fence:
                return None, (
                    f"stale epoch {epoch} fenced (server is at epoch "
                    f"{fence})"
                )
        mr = remote.mr_by_rkey.get(wr.rkey)
        if mr is None:
            return None, f"no memory region with rkey {wr.rkey}"
        err = mr.check_remote(wr.remote_addr, wr.length, need)
        if err:
            return None, err
        return mr, ""

    # -- RDMA WRITE ------------------------------------------------------------

    def _launch_write(self, qp: QueuePair, wr: SendWR, remote_qp: QueuePair) -> None:
        remote = remote_qp.nic
        job = (qp, wr, remote_qp, self._snapshot_payload(wr))
        if not self._transmit(remote, wr.bytes_on_wire, self._write_at,
                              job, remote.model.remote_dma_s):
            qp.halted = True

    def _write_at(self, job: tuple) -> None:
        """Responder, arrival + ``remote_dma_s``: place the payload."""
        qp, wr, remote_qp, payload = job
        remote = remote_qp.nic
        mr = self._admit(qp, wr, remote, Access.REMOTE_WRITE)
        if mr is None:
            return
        mr.buffer.write(mr.offset_of(wr.remote_addr), payload)
        if remote.rsan.enabled:
            remote.rsan.on_apply(remote.host.host_id, wr.remote_addr,
                                 wr.length, "write", wr)
        if wr.opcode is Opcode.RDMA_WRITE_IMM:
            # the immediate consumes a receive WQE at the target
            rwr = remote_qp._take_recv()
            if rwr is None:
                remote_qp._park_arrival(("imm", None, qp, wr))
            else:
                remote._match_recv(remote_qp, rwr, "imm", None, qp, wr)
        remote._reply(self, (qp, wr, WcStatus.SUCCESS, wr.length))

    # -- RDMA READ -------------------------------------------------------------

    def _launch_read(self, qp: QueuePair, wr: SendWR, remote_qp: QueuePair) -> None:
        remote = remote_qp.nic
        if not self._send_control(remote, self._read_at, (qp, wr, remote),
                                  remote.model.remote_dma_s):
            qp.halted = True

    def _read_at(self, job: tuple) -> None:
        """Responder, arrival + ``remote_dma_s``: fetch and send back."""
        qp, wr, remote = job
        mr = self._admit(qp, wr, remote, Access.REMOTE_READ)
        if mr is None:
            return
        data = mr.buffer.read(mr.offset_of(wr.remote_addr), wr.length)
        if remote.rsan.enabled:
            remote.rsan.on_apply(remote.host.host_id, wr.remote_addr,
                                 wr.length, "read", wr)
        remote._transmit(self, wr.bytes_on_wire, self._read_done,
                         (qp, wr, data), self.model.completion_s)

    def _read_done(self, job: tuple) -> None:
        """Requester, response arrival + ``completion_s``: land the data
        in the local buffer and raise the CQE."""
        qp, wr, data = job
        if wr.local_mr is not None and wr.length:
            wr.local_mr.buffer.write(wr.local_mr.offset_of(wr.local_addr),
                                     data)
        self._complete(qp, wr, WcStatus.SUCCESS, wr.length)

    # -- atomics -----------------------------------------------------------------

    def _launch_atomic(self, qp: QueuePair, wr: SendWR, remote_qp: QueuePair) -> None:
        remote = remote_qp.nic
        if not self._send_control(
            remote, self._atomic_at, (qp, wr, remote),
            remote.model.remote_dma_s + remote.model.atomic_extra_s,
        ):
            qp.halted = True

    def _atomic_at(self, job: tuple) -> None:
        """Responder, arrival + ``remote_dma_s + atomic_extra_s``."""
        qp, wr, remote = job
        mr = self._admit(qp, wr, remote, Access.REMOTE_ATOMIC)
        if mr is None:
            return
        offset = mr.offset_of(wr.remote_addr)
        old = int.from_bytes(mr.buffer.read(offset, 8), "little")
        if wr.opcode is Opcode.ATOMIC_CAS:
            if old == wr.compare:
                mr.buffer.write(
                    offset, wr.swap.to_bytes(8, "little", signed=False)
                )
        else:  # fetch-and-add, wrapping at 2^64 like hardware
            new = (old + wr.compare) % (1 << 64)
            mr.buffer.write(offset, new.to_bytes(8, "little"))
        if wr.local_mr is not None:
            wr.local_mr.buffer.write(
                wr.local_mr.offset_of(wr.local_addr),
                old.to_bytes(8, "little"),
            )
        if remote.rsan.enabled:
            remote.rsan.on_apply(remote.host.host_id, wr.remote_addr,
                                 8, "atomic", wr)
        remote._reply(self, (qp, wr, WcStatus.SUCCESS, 8, old))

    # -- SEND / RECV ---------------------------------------------------------------

    def _launch_send(self, qp: QueuePair, wr: SendWR, remote_qp: QueuePair) -> None:
        job = (qp, wr, remote_qp, self._snapshot_payload(wr))
        if not self._transmit(remote_qp.nic, wr.bytes_on_wire, self._send_at,
                              job):
            qp.halted = True

    def _send_at(self, job: tuple) -> None:
        """Responder, on arrival: match a posted receive."""
        qp, wr, remote_qp, payload = job
        remote = remote_qp.nic
        if self._refused(qp, wr, remote):
            return
        if remote_qp.state is not QpState.CONNECTED:
            qp.halted = True
            remote._reply(self, (qp, wr, WcStatus.REM_ACCESS_ERR, 0, None,
                                 "remote QP not in connected state"))
            return
        rwr = remote_qp._take_recv()
        if rwr is None:
            # RC would RNR-retry; we park the message until a receive
            # is posted, at which point matching resumes.
            remote_qp._park_arrival(("send", payload, qp, wr))
            return
        remote._match_recv(remote_qp, rwr, "send", payload, qp, wr)

    def _match_recv(
        self,
        dst_qp: QueuePair,
        rwr: RecvWR,
        kind: str,
        payload: Optional[bytes],
        src_qp: QueuePair,
        swr: SendWR,
    ) -> None:
        """Consume a posted receive for an arrived SEND or WRITE_IMM
        (runs on the receiver)."""
        src_nic = src_qp.nic
        if kind == "imm":
            # data already landed one-sidedly; the receive just carries
            # the immediate and the byte count
            self.sim.call_later(
                self.model.completion_s, dst_qp.recv_cq.push,
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    status=WcStatus.SUCCESS,
                    opcode=Opcode.RECV_RDMA_WITH_IMM,
                    byte_len=swr.length,
                    qp=dst_qp,
                    imm_data=swr.imm_data,
                ),
            )
            return
        assert payload is not None
        if len(payload) > rwr.length:
            dst_qp.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    status=WcStatus.LOC_LEN_ERR,
                    opcode=Opcode.RECV,
                    byte_len=len(payload),
                    qp=dst_qp,
                    detail=f"payload {len(payload)} exceeds recv buffer {rwr.length}",
                )
            )
            dst_qp.set_error("receive buffer too small")
            src_qp.halted = True
            self._reply(src_nic, (src_qp, swr, WcStatus.REM_INV_REQ_ERR, 0,
                                  None, "remote receive buffer too small"))
            return
        rwr.local_mr.buffer.write(rwr.local_mr.offset_of(rwr.local_addr), payload)
        self.sim.call_later(
            self.model.completion_s, dst_qp.recv_cq.push,
            WorkCompletion(
                wr_id=rwr.wr_id,
                status=WcStatus.SUCCESS,
                opcode=Opcode.RECV,
                byte_len=len(payload),
                qp=dst_qp,
            ),
        )
        self._reply(src_nic, (src_qp, swr, WcStatus.SUCCESS, swr.length))
