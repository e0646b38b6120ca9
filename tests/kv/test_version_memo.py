"""hashkv over the SeqLock version memo: warm gets skip validation."""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.datapath import PathPolicy, ops
from repro.kv import RKVStore
from repro.simnet.config import KiB, MiB

from tests.kv.test_hashkv import colliding_keys

SLOTS = 8


def elsewhere(keys, slots=SLOTS):
    """A key whose home slot is none of *keys*' probe chains' slots."""
    taken = {(ops.hash64(k) + d) % slots for k in keys for d in range(3)}
    for i in range(10_000):
        key = f"other{i}".encode()
        if ops.hash64(key) % slots not in taken:
            return key
    raise AssertionError("no free home slot")


def fresh(policy=None):
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )

    def setup():
        store = yield from RKVStore.create(cluster.client(1), "memo",
                                           slots=SLOTS, key_size=16,
                                           value_size=32)
        reader = yield from RKVStore.open(cluster.client(2), "memo",
                                          path_policy=policy)
        return store, reader

    store, reader = cluster.run_app(setup())
    return cluster, store, reader


def posted(store, op):
    """Generator: ``(result, READs posted)`` for one store op."""
    nic = store.client.nic
    before = nic.ops_posted
    result = yield from op
    return result, nic.ops_posted - before


def test_warm_get_costs_one_read_per_probe():
    cluster, store, reader = fresh()
    first, second = colliding_keys(2, SLOTS)

    def app():
        yield from store.put(first, b"1")
        yield from store.put(second, b"2")  # one probe past `first`
        # connect the reader's QPs so the counts below are pure reads
        yield from reader.get(elsewhere([first]))
        cold = yield from posted(reader, reader.get(second))
        warm = yield from posted(reader, reader.get(second))
        return cold, warm

    cold, warm = cluster.run_app(app())
    assert cold == (b"2", 4)  # 2 probes x (snapshot + validation)
    assert warm == (b"2", 2)  # 2 probes x snapshot


def test_own_put_writes_the_memo_through():
    cluster, store, _reader = fresh()

    def app():
        yield from store.put(b"mine", b"v1")
        return (yield from posted(store, store.get(b"mine")))

    # the put validated and then published the key's slot
    assert cluster.run_app(app()) == (b"v1", 1)


def test_remote_put_forces_validation_and_returns_new_value():
    cluster, store, reader = fresh()

    def app():
        yield from store.put(b"k", b"old")
        yield from reader.get(b"k")
        yield from store.put(b"k", b"new")
        return (yield from posted(reader, reader.get(b"k")))

    assert cluster.run_app(app()) == (b"new", 2)


def test_warm_multi_get_posts_no_validation_batch():
    cluster, store, reader = fresh()
    keys = colliding_keys(2, SLOTS)
    keys += [elsewhere(keys)]
    keys += [elsewhere(keys)]

    def app():
        for i, key in enumerate(keys[:3]):
            yield from store.put(key, bytes([65 + i]))
        yield from reader.get(elsewhere(keys))
        cold = yield from posted(reader, reader.multi_get(keys))
        skipped = reader.slot_lock(0).validations_skipped
        warm = yield from posted(reader, reader.multi_get(keys))
        return cold, warm, reader.slot_lock(0).validations_skipped - skipped

    cold, warm, skipped = cluster.run_app(app())
    assert cold[0] == warm[0] == [b"A", b"B", b"C", None]
    # the cold pass validated every snapshot, the warm pass none
    assert warm[1] * 2 == cold[1]
    assert skipped == warm[1]


def test_adaptive_counts_memo_first_touch_as_cold():
    cluster, store, reader = fresh(policy=PathPolicy.ADAPTIVE)
    client = reader.client
    state = reader._selector._state("get")

    def app():
        yield from store.put(b"hot", b"v")
        # dial everything a get could need, on another op class
        yield from reader.put(elsewhere([b"hot"]), b"w")
        setup = client.setup_events
        yield from reader.get(b"hot")  # first touch of hot's slot
        assert client.setup_events == setup
        first = state.samples.get(PathPolicy.ONE_SIDED, 0)
        yield from reader.get(b"hot")  # warm: a steady-state sample
        return first, state.samples.get(PathPolicy.ONE_SIDED, 0)

    assert cluster.run_app(app()) == (0, 1)
