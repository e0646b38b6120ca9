"""Queue entries per one-sided work request, and per CPU charge.

Host time per simulated event bounds every experiment, so the fixed
NIC pipeline of a one-sided WR is modelled with as few queue entries
as the clock allows.  A warm READ, WRITE or CAS between two idle hosts
takes five:

1. ``RNic._launch`` — the engine reaches the WQE;
2. the request leg's ingress claim at the responder;
3. the responder's checks plus its DMA or atomic, at arrival +
   ``remote_dma_s`` (+ ``atomic_extra_s``);
4. the response or ACK leg's ingress claim at the requester;
5. the CQE, at arrival + ``completion_s``.

A loopback WR has no ingress claims, so it takes three.  The
latencies pinned here are exact floats, the same ones the older
nine-entry chain (seven for loopback) produced: fewer entries, same
clock.
"""

from types import SimpleNamespace

import pytest

from repro.rdma.types import Opcode
from repro.rdma.wr import SendWR
from repro.simnet.cpu import Cpu
from repro.simnet.kernel import Simulator

from tests.rdma.helpers import connected_pair, make_world, run

#: offsets inside the registered regions
DATA_AT = 256
WORD_AT = 512


def count_steps(sim: Simulator) -> SimpleNamespace:
    """Count every queue entry *sim* runs from now on."""
    counter = SimpleNamespace(steps=0)
    step = sim.step

    def counting_step():
        counter.steps += 1
        step()

    sim.step = counting_step
    return counter


def make_wr(pair, opcode: Opcode, wr_id: int) -> SendWR:
    common = dict(
        opcode=opcode, wr_id=wr_id, local_mr=pair.client_mr,
        rkey=pair.server_mr.rkey, signaled=True,
    )
    if opcode is Opcode.ATOMIC_CAS:
        return SendWR(local_addr=pair.client_mr.addr + WORD_AT, length=8,
                      remote_addr=pair.server_mr.addr + WORD_AT,
                      compare=0, swap=wr_id, **common)
    return SendWR(local_addr=pair.client_mr.addr + DATA_AT, length=64,
                  remote_addr=pair.server_mr.addr + DATA_AT, **common)


def idle_pair(client: int, server: int):
    """A connected pair on an idle world, warmed by one WR of each
    kind; the queue is drained when it returns."""
    world = make_world()
    pair = run(world, connected_pair(world, client=client, server=server))
    for wr_id, opcode in enumerate((Opcode.RDMA_WRITE, Opcode.RDMA_READ,
                                    Opcode.ATOMIC_CAS), start=1):
        pair.qp.post_send(make_wr(pair, opcode, wr_id))
    world.sim.run()
    assert len(pair.client_cq.poll(16)) == 3
    return world, pair


def entries_for_one_wr(client: int, server: int, opcode: Opcode):
    """Post one WR on an idle pair; return (queue entries from post to
    CQE, sim seconds from post to CQE, the completion)."""
    world, pair = idle_pair(client, server)
    sim = world.sim
    counter = count_steps(sim)
    posted = sim.now
    pair.qp.post_send(make_wr(pair, opcode, 99))
    sim.run()  # nothing else is scheduled: the queue drains at the CQE
    (wc,) = pair.client_cq.poll(16)
    return counter.steps, sim.now - posted, wc


@pytest.mark.parametrize("opcode, latency", [
    (Opcode.RDMA_READ, 2.6160036832410935e-06),
    (Opcode.RDMA_WRITE, 2.6160036832410935e-06),
    (Opcode.ATOMIC_CAS, 3.106574585635155e-06),
])
def test_one_sided_wr_takes_five_entries(opcode, latency):
    steps, took, wc = entries_for_one_wr(0, 1, opcode)
    assert wc.ok and wc.wr_id == 99
    assert steps == 5
    assert took == latency


@pytest.mark.parametrize("opcode, latency", [
    (Opcode.RDMA_READ, 1.0574999999998997e-06),
    (Opcode.RDMA_WRITE, 1.0574999999998997e-06),
    (Opcode.ATOMIC_CAS, 1.5549999999999809e-06),
])
def test_loopback_wr_takes_three_entries(opcode, latency):
    steps, took, wc = entries_for_one_wr(0, 0, opcode)
    assert wc.ok and wc.wr_id == 99
    assert steps == 3
    assert took == latency


def test_uncontended_cpu_run_costs_one_entry():
    sim = Simulator()
    cpu = Cpu(sim, cores=2)
    counter = count_steps(sim)
    seen = {}

    def worker():
        before = counter.steps
        yield from cpu.run(1e-6)
        seen["entries"] = counter.steps - before
        seen["at"] = sim.now

    sim.run(until=sim.process(worker()))
    assert seen == {"entries": 1, "at": 1e-6}
    assert cpu.busy_seconds == 1e-6 and cpu.active == 0


def test_a_busy_cpu_grants_fifo_at_the_same_times():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    work = [3e-6, 1e-6, 2e-6]
    finished = []

    def worker(i):
        yield from cpu.run(work[i])
        finished.append((i, sim.now))

    for i in range(len(work)):
        sim.process(worker(i))
    sim.run()
    first = 0.0 + work[0]
    second = first + work[1]
    third = second + work[2]
    assert finished == [(0, first), (1, second), (2, third)]
    assert cpu.runnable_backlog == 0 and cpu.active == 0
