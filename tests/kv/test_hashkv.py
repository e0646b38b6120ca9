"""The one-sided hash table: correctness, races, edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.datapath import PathPolicy
from repro.kv import KvError, KvFullError, RKVStore
from repro.kv.hashkv import _hash64
from repro.simnet.config import KiB, MiB


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )


def make_store(cluster, name, slots=256, **kw):
    client = cluster.client(1)

    def setup():
        store = yield from RKVStore.create(client, name, slots, **kw)
        return store

    return cluster.run_app(setup())


def test_put_get_roundtrip(cluster):
    store = make_store(cluster, "basic")

    def app():
        yield from store.put(b"alpha", b"one")
        yield from store.put(b"beta", b"two")
        a = yield from store.get(b"alpha")
        b = yield from store.get(b"beta")
        missing = yield from store.get(b"gamma")
        return a, b, missing

    assert cluster.run_app(app()) == (b"one", b"two", None)


def test_overwrite_replaces_value(cluster):
    store = make_store(cluster, "overwrite")

    def app():
        yield from store.put(b"k", b"v1")
        yield from store.put(b"k", b"v2-longer")
        return (yield from store.get(b"k"))

    assert cluster.run_app(app()) == b"v2-longer"


def test_delete_and_tombstone_probing(cluster):
    # tiny table forces collisions, exercising the probe chain
    store = make_store(cluster, "tombstones", slots=4)

    def app():
        keys = [b"a", b"b", b"c"]
        for key in keys:
            yield from store.put(key, b"v-" + key)
        deleted = yield from store.delete(b"b")
        missing_after = yield from store.get(b"b")
        # keys that may sit *behind* the tombstone must remain reachable
        survivors = []
        for key in (b"a", b"c"):
            survivors.append((yield from store.get(key)))
        # the tombstone slot is reusable
        yield from store.put(b"d", b"v-d")
        d = yield from store.get(b"d")
        return deleted, missing_after, survivors, d

    deleted, missing, survivors, d = cluster.run_app(app())
    assert deleted is True
    assert missing is None
    assert survivors == [b"v-a", b"v-c"]
    assert d == b"v-d"


def test_delete_missing_returns_false(cluster):
    store = make_store(cluster, "del-miss")

    def app():
        return (yield from store.delete(b"ghost"))

    assert cluster.run_app(app()) is False


def test_table_fills_up(cluster):
    store = make_store(cluster, "full", slots=4)

    def app():
        with pytest.raises(KvFullError):
            for i in range(20):
                yield from store.put(f"key-{i}".encode(), b"v")

    cluster.run_app(app())


def test_key_value_size_limits(cluster):
    store = make_store(cluster, "limits", key_size=8, value_size=16)

    def app():
        with pytest.raises(KvError, match="key"):
            yield from store.put(b"x" * 9, b"v")
        with pytest.raises(KvError, match="value"):
            yield from store.put(b"k", b"v" * 17)
        with pytest.raises(KvError, match="empty"):
            yield from store.put(b"", b"v")
        # at the limits everything works
        yield from store.put(b"x" * 8, b"v" * 16)
        return (yield from store.get(b"x" * 8))

    assert cluster.run_app(app()) == b"v" * 16


def test_second_client_opens_and_shares(cluster):
    store = make_store(cluster, "shared")
    other = cluster.client(3)

    def app():
        yield from store.put(b"from-1", b"hello")
        view = yield from RKVStore.open(other, "shared")
        seen = yield from view.get(b"from-1")
        yield from view.put(b"from-3", b"world")
        back = yield from store.get(b"from-3")
        return seen, back

    assert cluster.run_app(app()) == (b"hello", b"world")


def test_concurrent_writers_distinct_keys(cluster):
    store = make_store(cluster, "concurrent", slots=512)
    sim = cluster.sim

    def writer(worker, count):
        view = yield from RKVStore.open(cluster.client(worker), "concurrent")
        for i in range(count):
            key = f"w{worker}-{i}".encode()
            yield from view.put(key, key[::-1])

    def app():
        procs = [sim.process(writer(w, 20)) for w in (0, 2, 3)]
        yield sim.all_of(procs)
        values = []
        for worker in (0, 2, 3):
            for i in range(20):
                key = f"w{worker}-{i}".encode()
                values.append((yield from store.get(key)) == key[::-1])
        return values

    assert all(cluster.run_app(app()))


def test_concurrent_writers_same_key_last_write_wins(cluster):
    store = make_store(cluster, "race")
    sim = cluster.sim

    def writer(worker):
        view = yield from RKVStore.open(cluster.client(worker), "race")
        for i in range(10):
            yield from view.put(b"hot", f"worker-{worker}-{i}".encode())

    def app():
        procs = [sim.process(writer(w)) for w in (0, 2, 3)]
        yield sim.all_of(procs)
        final = yield from store.get(b"hot")
        return final

    final = cluster.run_app(app())
    # one of the writers' final values; never torn, never stale-empty
    assert final is not None
    assert final.startswith(b"worker-") and final.endswith(b"-9")


def test_multi_get_matches_sequential_gets(cluster):
    store = make_store(cluster, "mget")

    def app():
        for i in range(12):
            yield from store.put(f"key-{i}".encode(), f"val-{i}".encode())
        yield from store.delete(b"key-5")
        keys = [f"key-{i}".encode() for i in range(12)] + [b"ghost", b"key-5"]
        batched = yield from store.multi_get(keys)
        singles = []
        for key in keys:
            singles.append((yield from store.get(key)))
        return batched, singles

    batched, singles = cluster.run_app(app())
    assert batched == singles
    assert batched[0] == b"val-0" and batched[-2] is None and batched[-1] is None


def test_multi_get_probes_past_tombstones(cluster):
    # tiny table forces collisions and probe chains, like the delete test
    store = make_store(cluster, "mget-tomb", slots=4)

    def app():
        for key in (b"a", b"b", b"c"):
            yield from store.put(key, b"v-" + key)
        yield from store.delete(b"b")
        return (yield from store.multi_get([b"a", b"b", b"c", b"nope"]))

    assert cluster.run_app(app()) == [b"v-a", None, b"v-c", None]


def test_multi_get_empty_and_batching_metric(cluster):
    store = make_store(cluster, "mget-batch")
    nic = cluster.client(1).nic

    def app():
        empty = yield from store.multi_get([])
        for i in range(16):
            yield from store.put(f"bk-{i}".encode(), b"x" * i)
        bells0, ops0 = nic.doorbells_rung, nic.ops_posted
        values = yield from store.multi_get(
            [f"bk-{i}".encode() for i in range(16)]
        )
        bells = nic.doorbells_rung - bells0
        ops = nic.ops_posted - ops0
        return empty, values, bells, ops

    empty, values, bells, ops = cluster.run_app(app())
    assert empty == []
    assert values == [b"x" * i for i in range(16)]
    # the snapshot and validation rounds each ride shared doorbells
    assert bells < ops


def test_no_server_cpu_involved(cluster):
    store = make_store(cluster, "offload")
    busy_before = {
        h: cluster.net.host(h).cpu.busy_seconds for h in range(4)
    }

    def app():
        for i in range(30):
            yield from store.put(f"k{i}".encode(), b"v")
            yield from store.get(f"k{i}".encode())

    cluster.run_app(app())
    for h in range(4):
        if h == 1:  # the client's own host works, everyone else sleeps
            continue
        extra = cluster.net.host(h).cpu.busy_seconds - busy_before[h]
        assert extra < 1e-4  # heartbeat noise only


def test_multi_get_snapshots_validate_under_concurrent_writers():
    """A sanitized reader batch-reads while two writers churn every
    key: each returned value must be a whole published value (the
    value embeds its key, so a snapshot mixing two publishes would
    mismatch), the reader must observe the churn actually advancing,
    and RSan must stay silent — the batched validation protocol is
    synchronization enough."""
    from repro.sanitize import rsan_for

    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB, sanitize=True),
        server_capacity=64 * MiB,
    )
    sim = cluster.sim
    keys = [f"key-{i}".encode() for i in range(8)]
    rounds = 20
    writers_done = []

    def writer(host):
        view = yield from RKVStore.open(cluster.client(host), "mg-churn")
        for gen in range(1, rounds + 1):
            for key in keys:
                stamp = f":{host}:{gen}".encode()
                yield from view.put(key, key + stamp)
        writers_done.append(host)

    def reader():
        view = yield from RKVStore.open(cluster.client(3), "mg-churn")
        seen = {key: set() for key in keys}
        while len(writers_done) < 2:
            values = yield from view.multi_get(keys)
            for key, value in zip(keys, values):
                assert value is not None and value.startswith(key + b":"), (
                    f"torn snapshot for {key!r}: {value!r}"
                )
                seen[key].add(value)
            yield sim.timeout(2e-6)
        return seen, view

    def app():
        store = yield from RKVStore.create(cluster.client(0), "mg-churn",
                                           slots=64)
        for key in keys:
            yield from store.put(key, key + b":0:0")
        procs = [cluster.spawn(writer(1)), cluster.spawn(writer(2))]
        read_proc = cluster.spawn(reader())
        yield sim.all_of(procs + [read_proc])
        return read_proc.value

    seen, view = cluster.run_app(app())
    # the reader really interleaved with the churn, per key
    assert all(len(values) > 1 for values in seen.values()), {
        key: len(values) for key, values in seen.items()
    }
    # at least one snapshot raced a writer and was re-validated
    assert view.read_retries > 0
    assert rsan_for(sim).races == [], rsan_for(sim).report()


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=0, max_value=15),
            st.binary(min_size=0, max_size=24),
        ),
        max_size=40,
    )
)
def test_matches_dict_reference(ops):
    """Property: the table behaves like a dict under any op sequence."""
    cluster = build_cluster(
        num_machines=2,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )
    client = cluster.client(1)
    reference: dict[bytes, bytes] = {}

    def app():
        store = yield from RKVStore.create(client, "model", slots=128)
        for op, key_id, value in ops:
            key = f"key-{key_id}".encode()
            if op == "put":
                yield from store.put(key, value)
                reference[key] = value
            elif op == "get":
                got = yield from store.get(key)
                assert got == reference.get(key)
            else:
                existed = yield from store.delete(key)
                assert existed == (key in reference)
                reference.pop(key, None)
        for key, value in reference.items():
            assert (yield from store.get(key)) == value

    cluster.run_app(app())


def test_slot_lock_views_are_reused_per_mapping(cluster):
    store = make_store(cluster, "views", slots=16)
    lock = store.slot_lock(3)
    # same slot (index wraps modulo the table size) -> the same view
    assert store.slot_lock(3) is lock
    assert store.slot_lock(3 + store.slots) is lock
    assert store.slot_lock(4) is not lock
    client = cluster.client(1)

    def remap():
        return (yield from client.map("kv.views"))

    store.mapping = cluster.run_app(remap())
    fresh = store.slot_lock(3)
    assert fresh is not lock and fresh.mapping is store.mapping
    assert fresh.offset == lock.offset
    # the views share the slot's registry counters
    assert fresh._m_read_retries is lock._m_read_retries

    def app():
        yield from store.put(b"k", b"v")
        return (yield from store.get(b"k"))

    assert cluster.run_app(app()) == b"v"


def colliding_keys(n, slots):
    """*n* distinct keys sharing one home slot of a *slots*-slot table."""
    found = {}
    for i in range(10_000):
        key = f"c{i}".encode()
        found.setdefault(_hash64(key) % slots, []).append(key)
        for keys in found.values():
            if len(keys) == n:
                return keys
    raise AssertionError("no collision found")


@pytest.mark.parametrize("stripe", ["wide", "slot"])
@pytest.mark.parametrize("policy", [PathPolicy.ONE_SIDED, PathPolicy.SERVER_OP,
                                    PathPolicy.REMOTE_FETCH])
def test_put_behind_a_tombstone_never_duplicates_the_key(policy, stripe):
    """A put must find its key past an earlier tombstone instead of
    claiming the tombstone — otherwise deleting the key later uncovers
    its stale copy.  ``slot`` stripes put every slot on its own stripe,
    so the server-op chain spans hosts run by run."""
    slots = 8
    key_size, value_size = 16, 32
    slot_size = RKVStore._slot_size(key_size, value_size)
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(
            stripe_size=64 * KiB if stripe == "wide" else slot_size),
        server_capacity=64 * MiB,
    )
    a, k, c = colliding_keys(3, slots)
    home = _hash64(a) % slots

    def app():
        store = yield from RKVStore.create(
            cluster.client(1), f"resurrect-{policy}", slots,
            key_size=key_size, value_size=value_size, path_policy=policy)
        yield from store.put(a, b"a")
        yield from store.put(k, b"old")        # lands one past a
        assert (yield from store.delete(a))    # tombstone at home
        yield from store.put(k, b"new")        # must update k in place
        after_put = yield from store.get(k)
        assert (yield from store.delete(k))
        after_delete = yield from store.get(k)
        # an absent key still reuses the first tombstone of its chain
        yield from store.put(c, b"c")
        slot = yield from store.snapshot_slot(home)
        return after_put, after_delete, slot[2], (yield from store.get(c))

    assert cluster.run_app(app()) == (b"new", None, c, b"c")


def test_put_losing_its_probed_slot_to_another_key_reprobes():
    """A second client claims the slot a put probed, for another key,
    between the put's probe and its lock CAS.  The CAS from the probed
    version is what catches it: the put must lose, probe again and
    store its key exactly once."""
    slots = 8
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )
    ours, theirs = colliding_keys(2, slots)
    home = _hash64(ours) % slots

    def app():
        store = yield from RKVStore.create(cluster.client(1), "claim",
                                           slots, key_size=16,
                                           value_size=32)
        rival = yield from RKVStore.open(cluster.client(2), "claim")
        lock = store.slot_lock(home)
        real_try_lock = lock.try_lock

        def racing_try_lock(version, token=None):
            del lock.try_lock  # one race only
            yield from rival.put(theirs, b"theirs")
            return (yield from real_try_lock(version, token))

        lock.try_lock = racing_try_lock
        yield from store.put(ours, b"ours")
        slots_now = []
        for index in range(slots):
            slots_now.append((yield from store.snapshot_slot(index))[2])
        mine = yield from store.get(ours)
        yours = yield from rival.get(theirs)
        return (mine, yours), slots_now, store.lock_retries

    (got, slots_now, retries) = cluster.run_app(app())
    assert got == (b"ours", b"theirs")
    assert slots_now[home] == theirs
    assert slots_now[(home + 1) % slots] == ours
    assert slots_now.count(ours) == slots_now.count(theirs) == 1
    assert retries == 1
