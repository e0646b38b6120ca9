"""RC responder ordering: a WR behind one the responder never executed
does not execute either, and completes flushed.  A responder that dies
before it executes a WR does not execute it either."""

import pytest

from repro.rdma.types import Opcode, WcStatus
from repro.rdma.wr import SendWR

from tests.rdma.helpers import connected_pair, make_world, run

TAIL_AT = 64


def write_wr(pair, remote_offset, payload, wr_id, signaled=False):
    local = 4096 + remote_offset
    pair.client_mr.buffer.write(local, payload)
    return SendWR(
        opcode=Opcode.RDMA_WRITE,
        wr_id=wr_id,
        local_mr=pair.client_mr,
        local_addr=pair.client_mr.addr + local,
        length=len(payload),
        remote_addr=pair.server_mr.addr + remote_offset,
        rkey=pair.server_mr.rkey,
        signaled=signaled,
    )


def landed(pair, remote_offset, length=8) -> bytes:
    return pair.server_mr.buffer.read(remote_offset, length)


def faulted_then_tail(pair):
    """``[W_head, W_tail]`` on one QP; the head is wire-id 1."""
    head = write_wr(pair, 0, b"H" * 8, wr_id=1)
    tail = write_wr(pair, TAIL_AT, b"T" * 8, wr_id=2, signaled=True)
    return [head, tail]


def drop_wr(wr_id):
    return lambda _host, wr: "injected drop" if wr.wr_id == wr_id else ""


def test_tail_behind_a_dropped_write_never_lands():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.client_nic.fault_hook = drop_wr(1)
        pair.qp.post_send_many(faulted_then_tail(pair))
        wcs = yield from pair.client_cq.wait_for(2)
        yield world.sim.timeout(1.0)  # let any straggler land
        return pair, wcs

    pair, wcs = run(world, scenario())
    assert [(w.wr_id, w.status) for w in wcs] == [
        (1, WcStatus.RETRY_EXC_ERR), (2, WcStatus.WR_FLUSH_ERR)]
    assert landed(pair, 0) == bytes(8)
    assert landed(pair, TAIL_AT) == bytes(8)


def test_tail_behind_a_nak_never_lands():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        wrs = faulted_then_tail(pair)
        wrs[0].rkey = pair.server_mr.rkey + 999  # remote access fault
        pair.qp.post_send_many(wrs)
        wcs = yield from pair.client_cq.wait_for(2)
        yield world.sim.timeout(1.0)
        return pair, wcs

    pair, wcs = run(world, scenario())
    assert [(w.wr_id, w.status) for w in wcs] == [
        (1, WcStatus.REM_ACCESS_ERR), (2, WcStatus.WR_FLUSH_ERR)]
    assert landed(pair, TAIL_AT) == bytes(8)


def test_request_lost_to_a_partition_flushes_the_tail():
    world = make_world()
    seen = []

    def first_message_only(src, dst):
        seen.append((src, dst))
        return len(seen) == 1  # the head's request leg

    def scenario():
        pair = yield from connected_pair(world)
        world.net.fault_filter = first_message_only
        pair.qp.post_send_many(faulted_then_tail(pair))
        wcs = yield from pair.client_cq.wait_for(2)
        yield world.sim.timeout(1.0)
        return pair, wcs

    pair, wcs = run(world, scenario())
    assert [w.status for w in wcs] == [WcStatus.RETRY_EXC_ERR,
                                       WcStatus.WR_FLUSH_ERR]
    assert landed(pair, TAIL_AT) == bytes(8)


def test_peer_back_from_the_dead_still_refuses_the_tail():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.server_nic.kill()
        pair.qp.post_send(write_wr(pair, 0, b"H" * 8, wr_id=1,
                                   signaled=True))
        yield world.sim.timeout(50e-6)  # the head met a dead peer
        pair.server_nic.alive = True
        pair.qp.post_send(write_wr(pair, TAIL_AT, b"T" * 8, wr_id=2,
                                   signaled=True))
        wcs = yield from pair.client_cq.wait_for(2)
        return pair, wcs

    pair, wcs = run(world, scenario())
    assert [w.status for w in wcs] == [WcStatus.RETRY_EXC_ERR,
                                       WcStatus.WR_FLUSH_ERR]
    assert landed(pair, TAIL_AT) == bytes(8)


def test_a_second_qp_is_unaffected():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        other = yield from world.cm.connect(world.nics[0], 1, "test",
                                            pair.client_pd, pair.client_cq)
        pair.client_nic.fault_hook = drop_wr(1)
        pair.qp.post_send_many(faulted_then_tail(pair))
        other.post_send(write_wr(pair, 128, b"O" * 8, wr_id=3,
                                 signaled=True))
        wcs = yield from pair.client_cq.wait_for(3)
        return pair, other, wcs

    pair, other, wcs = run(world, scenario())
    by_id = {w.wr_id: w for w in wcs}
    assert by_id[3].ok and by_id[3].qp is other
    assert landed(pair, 128) == b"O" * 8
    assert by_id[2].status is WcStatus.WR_FLUSH_ERR
    assert not other.halted and pair.qp.halted


def test_fault_free_batch_places_writes_in_post_order():
    world = make_world()
    n = 6

    def scenario():
        pair = yield from connected_pair(world)
        wrs = [write_wr(pair, 0, bytes([i]) * 8, wr_id=i) for i in range(n)]
        # local staging must not alias: one source buffer per WR
        for i, wr in enumerate(wrs):
            wr.local_addr = pair.client_mr.addr + 8192 + i * 8
            pair.client_mr.buffer.write(8192 + i * 8, bytes([i]) * 8)
        read_back = SendWR(
            opcode=Opcode.RDMA_READ, wr_id=n,
            local_mr=pair.client_mr, local_addr=pair.client_mr.addr,
            length=8, remote_addr=pair.server_mr.addr,
            rkey=pair.server_mr.rkey, signaled=True,
        )
        pair.qp.post_send_many(wrs + [read_back])
        (wc,) = yield from pair.client_cq.wait_for(1)
        return pair, wc

    pair, wc = run(world, scenario())
    assert wc.ok and wc.wr_id == n
    last = bytes([n - 1]) * 8
    assert landed(pair, 0) == last
    # the READ posted behind the writes saw the last of them
    assert pair.client_mr.buffer.read(0, 8) == last
    assert not pair.qp.halted


def _kill_window_wr(pair, opcode):
    """A signaled WR of *opcode* at remote offset 0; the remote word
    holds ``b"R" * 8`` and the local buffer is zero."""
    pair.server_mr.buffer.write(0, b"R" * 8)
    if opcode is Opcode.RDMA_WRITE:
        return write_wr(pair, 0, b"W" * 8, wr_id=1, signaled=True)
    return SendWR(
        opcode=opcode, wr_id=1,
        local_mr=pair.client_mr, local_addr=pair.client_mr.addr,
        length=8, remote_addr=pair.server_mr.addr,
        rkey=pair.server_mr.rkey, signaled=True,
        compare=int.from_bytes(b"R" * 8, "little"), swap=7,
    )


@pytest.mark.parametrize("opcode", [Opcode.RDMA_WRITE, Opcode.RDMA_READ,
                                    Opcode.ATOMIC_CAS])
def test_responder_killed_before_its_dma_never_executes(opcode):
    """The responder dies after the request has arrived but before the
    NIC has run the DMA or atomic: nothing executes, and the WR times
    out instead of completing SUCCESS."""
    world = make_world()
    model, net = world.nics[0].model, world.net
    frame = model.frame_header_bytes + 64
    # about when the request's last frame leaves the responder's ingress ...
    arrival = (model.doorbell_s + model.wqe_processing_s
               + net.one_way_base_delay
               + 2 * net.host(0).egress.serialization_time(frame))
    # ... and the DMA (the shortest window, 0.3 us) has not started
    kill_at = arrival + model.remote_dma_s / 2

    def scenario():
        pair = yield from connected_pair(world)
        pair.qp.post_send(_kill_window_wr(pair, opcode))
        yield world.sim.timeout(kill_at)
        pair.server_nic.kill()
        (wc,) = yield from pair.client_cq.wait_for(1)
        return pair, wc

    pair, wc = run(world, scenario())
    assert wc.status is WcStatus.RETRY_EXC_ERR
    assert landed(pair, 0) == b"R" * 8
    assert pair.client_mr.buffer.read(0, 8) == bytes(8)
