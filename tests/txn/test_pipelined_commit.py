"""The pipelined commit: one intent round, one publish round.

A publish posts the body WRITE and then the version WRITE in one
doorbell on the record's QP.  These tests tear that pair on purpose —
dropping the body, dropping the version, losing the body's ack — and
check that no reader ever pairs the new version with the old body, and
that every reader's memo ends on the final bytes.  They also pin what
a 2-key transfer costs: 2 snapshot READs, one CAS doorbell, one
publish doorbell — 4 round trips.
"""

import pytest

from repro.cluster import build_cluster
from repro.coord import CoordError
from repro.core import RStoreConfig
from repro.datapath import ops
from repro.kv import KvError, RKVStore
from repro.rdma.types import Opcode
from repro.simnet.config import KiB, MiB
from repro.txn import TxnConflictError

SLOTS = 64
OLD, NEW = b"old-balance", b"new-balance"
KEY = b"acct"
WRITER, READER, AUDITOR = 1, 2, 3


def fresh():
    return build_cluster(
        num_machines=5,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )


def slot_addr(store, key):
    """(slot index, remote address of its version word)."""
    index = ops.hash64(key) % store.slots
    stripe, stripe_off, _take = next(
        store.mapping.desc.locate(store._slot_offset(index), 8))
    return index, stripe.addr + stripe_off


def one_shot(target_addr):
    """A wire hook failing the first WRITE aimed at *target_addr*."""
    fired = []

    def hook(_host, wr):
        if (not fired and wr.opcode is Opcode.RDMA_WRITE
                and wr.remote_addr == target_addr):
            fired.append(wr)
            return "targeted fault"
        return ""

    hook.fired = fired
    return hook


@pytest.mark.parametrize("writer", ["put", "txn"])
@pytest.mark.parametrize("fault", ["body", "version", "body-ack"])
def test_torn_publish_is_never_observed(fault, writer):
    cluster = fresh()
    sim = cluster.sim
    seen = []  # (reader, version, value) for every even observation

    def setup():
        store = yield from RKVStore.create(cluster.client(WRITER), "tear",
                                           SLOTS)
        yield from store.put(KEY, OLD)
        reader = yield from RKVStore.open(cluster.client(READER), "tear")
        auditor = yield from RKVStore.open(cluster.client(AUDITOR), "tear")
        return store, reader, auditor

    store, reader, auditor = cluster.run_app(setup())
    index, version_addr = slot_addr(store, KEY)
    hook = one_shot(version_addr if fault == "version" else version_addr + 8)
    nic = cluster.nics[WRITER]
    if fault == "body-ack":
        nic.ack_fault_hook = hook
    else:
        nic.fault_hook = hook

    def seqlock_reads(until):
        lock = reader.slot_lock(index)
        while sim.now < until:
            try:
                version, body = yield from lock.read()
            except CoordError:
                pass  # the writer held the word through every retry
            else:
                seen.append(("seqlock", version,
                             reader._parse_body(body)[2]))
            yield sim.timeout(5e-3)

    def kv_gets(until):
        while sim.now < until:
            try:
                version, _len, _key, value = yield from reader._read_slot(
                    index)
            except KvError:
                pass
            else:
                seen.append(("get", version, value))
            yield sim.timeout(7e-3)

    def txn_snapshots(until):
        runtime = auditor.txn(label="audit")
        while sim.now < until:
            txn = runtime.begin()
            try:
                value = yield from txn.get(auditor, KEY)
            except TxnConflictError:
                pass  # the slot stayed locked through every snapshot
            else:
                seen.append(("txn", txn._slot_version(auditor, index),
                             value))
            txn.abort()
            yield sim.timeout(11e-3)

    def write():
        if writer == "put":
            yield from store.put(KEY, NEW)
        else:
            def update(txn):
                yield from txn.put(store, KEY, NEW)

            yield from store.txn(label="writer").run(update)

    def app():
        until = sim.now + 2.0
        procs = [cluster.spawn(g) for g in (
            seqlock_reads(until), kv_gets(until), txn_snapshots(until))]
        yield sim.timeout(1e-3)
        yield from write()
        yield sim.all_of(procs)
        # one last look from every reader, after the publish settled
        yield from reader.get(KEY)
        raw = yield from reader.mapping.read(store._slot_offset(index),
                                             store.slot_size)
        return raw

    raw = cluster.run_app(app())
    assert hook.fired, "the targeted fault never fired"
    final_version = int.from_bytes(raw[:8], "little")
    assert final_version == 4
    assert reader._parse_body(raw[8:])[2] == NEW
    expected = {2: OLD, 4: NEW}
    for who, version, value in seen:
        if version % 2 == 0:
            assert value == expected[version], (who, version, value)
    assert any(v == 4 for _w, v, _val in seen), "no reader saw the publish"
    # every memo ends on the final bytes (the writer's may be dropped)
    assert reader.slot_lock(index)._memo[:2] == (4, raw[8:])
    writer_memo = store.slot_lock(index)._memo
    assert writer_memo is None or writer_memo[:2] == (4, raw[8:])


def same_host_keys(store, count=2):
    """*count* keys on distinct home slots of one memory server."""
    by_host = {}
    for i in range(10_000):
        key = f"k{i}".encode()
        index, _addr = slot_addr(store, key)
        stripe, _off, _t = next(store.mapping.desc.locate(
            store._slot_offset(index), 8))
        keys = by_host.setdefault(stripe.host_id, {})
        keys.setdefault(index, key)
        if len(keys) == count:
            return list(keys.values())
    raise AssertionError("no keys found")


def test_two_key_transfer_costs_four_round_trips():
    cluster = fresh()
    sim = cluster.sim

    def app():
        store = yield from RKVStore.create(cluster.client(WRITER), "bank",
                                           SLOTS)
        a, b = same_host_keys(store)
        yield from store.put(a, b"100")
        yield from store.put(b, b"200")
        runtime = store.txn()
        nic = store.client.nic

        def transfer(txn):
            x = int((yield from txn.get(store, a)))
            y = int((yield from txn.get(store, b)))
            yield from txn.put(store, a, str(x - 1).encode())
            yield from txn.put(store, b, str(y + 1).encode())

        yield from runtime.run(transfer)  # warm the QP
        t0, bells0, ops0 = sim.now, nic.doorbells_rung, nic.ops_posted
        yield from runtime.run(transfer)
        elapsed = sim.now - t0
        cost = (nic.doorbells_rung - bells0, nic.ops_posted - ops0)
        t1 = sim.now
        yield from store.snapshot_slot(slot_addr(store, a)[0])
        rtt = sim.now - t1
        return elapsed / rtt, cost, runtime.aborts

    round_trips, (doorbells, wrs), aborts = cluster.run_app(app())
    assert aborts == 0
    # 2 snapshot READs, 2 CASes in one doorbell, 2 x (body, version)
    # WRITEs in another: both slots live on one server, so one QP
    assert (doorbells, wrs) == (4, 8)
    # CAS and payload costs stretch a round trip; a fifth would not fit
    assert 4 <= round_trips < 5
