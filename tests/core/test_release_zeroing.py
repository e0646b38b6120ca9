"""Freed arena bytes are zeroed before anyone can reuse them.

A region allocated over memory a previous region freed must read as
fresh DRAM — zeros — not as the previous tenant's bytes.  Besides
isolating tenants, primitives such as ``SenseBarrier.create`` rely on
a new region starting zeroed.
"""

import random

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.rdma.memory import Buffer, SparseBuffer
from repro.rdma.types import RdmaError
from repro.simnet.config import KiB, MiB
from repro.sort import RSort
from repro.workloads.kv import is_sorted


def _placement(cluster, name):
    desc = cluster.master.regions[name]
    return [(r.host_id, r.addr) for s in desc.stripes for r in s.replicas]


def test_recycled_range_reads_back_zeros_across_tenants():
    cluster = build_cluster(num_machines=3, server_hosts=[2],
                            config=RStoreConfig(stripe_size=16 * KiB))
    owner = cluster.client(0)
    other = cluster.client(1)
    size = 64 * KiB
    secret = bytes(range(1, 256)) * (size // 255) + b"\xff" * (size % 255)

    def first_tenant():
        yield from owner.alloc("acme/data", size)
        mapping = yield from owner.map("acme/data")
        yield from mapping.write(0, secret)
        assert (yield from mapping.read(0, size)) == secret
        mapping.unmap()
        placement = _placement(cluster, "acme/data")
        yield from owner.free("acme/data")
        return placement

    def second_tenant():
        yield from other.alloc("beta/data", size)
        mapping = yield from other.map("beta/data")
        return (yield from mapping.read(0, size))

    freed_at = cluster.run_app(first_tenant())
    seen = cluster.run_app(second_tenant())
    # the arena is first-fit: the new region sits on the freed bytes
    assert _placement(cluster, "beta/data") == freed_at
    assert seen == bytes(size)


def test_two_rsort_jobs_back_to_back_on_one_cluster():
    cluster = build_cluster(num_machines=4,
                            config=RStoreConfig(stripe_size=256 * KiB),
                            server_capacity=64 * MiB)
    client = cluster.client(0)

    def free_everything():
        for name in sorted(cluster.master.regions):
            yield from client.free(name)

    for tag in ("first", "second"):
        job = RSort(cluster, records_per_worker=500, seed=1, tag=tag)
        stats = cluster.run_app(job.run())
        output = cluster.run_app(job.collect_output())
        assert len(output) == job.total_records
        assert is_sorted(output)
        assert stats.elapsed > 0
        # the second job's barrier lands on the first job's freed memory
        cluster.run_app(free_everything())
    assert not cluster.master.regions


@pytest.mark.parametrize("length", [3 * SparseBuffer.BLOCK + 100, 4096])
def test_buffer_zero_matches_a_reference(length):
    rng = random.Random(length)
    buf = (SparseBuffer if length > 4096 else Buffer)(0x1000, length, 0)
    model = bytearray(length)
    for _ in range(200):
        offset = rng.randrange(length)
        size = rng.randrange(min(length - offset, 2 * SparseBuffer.BLOCK) + 1)
        if rng.random() < 0.5:
            payload = rng.randbytes(size)
            buf.write(offset, payload)
            model[offset:offset + size] = payload
        else:
            buf.zero(offset, size)
            model[offset:offset + size] = bytes(size)
        assert buf.read(0, length) == bytes(model)


def test_sparse_zero_drops_whole_blocks():
    block = SparseBuffer.BLOCK
    buf = SparseBuffer(0, 4 * block, 0)
    buf.write(0, b"\x01" * (4 * block))
    assert buf.materialized_bytes == 4 * block
    buf.zero(block // 2, 2 * block)  # half, whole, half
    assert buf.materialized_bytes == 3 * block
    assert buf.read(0, 4 * block) == (b"\x01" * (block // 2)
                                       + bytes(2 * block)
                                       + b"\x01" * (3 * block // 2))
    buf.zero(0, 4 * block)
    assert buf.materialized_bytes == 0
    with pytest.raises(RdmaError):
        buf.zero(block, 4 * block)
