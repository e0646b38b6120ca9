"""The SeqLock version memo: a snapshot whose version this view already
validated (or published) skips the validation READ."""

import pytest

from repro.cluster import build_cluster
from repro.coord import SeqLock
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB
from repro.txn import TxnRuntime

BODY = 32


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )


def reads_of(view):
    """Generator: ``(version, body, READs posted)`` for one read."""
    nic = view.mapping.client.nic
    before = nic.ops_posted
    version, body = yield from view.read()
    return version, body, nic.ops_posted - before


def pair(cluster, name):
    """A writer view on host 1 and a reader view on host 2."""
    def setup():
        rec = yield from SeqLock.create(cluster.client(1), name,
                                        body_size=BODY)
        yield from rec.write(b"a" * BODY)
        view = yield from SeqLock.open(cluster.client(2), name,
                                       body_size=BODY)
        return rec, view

    return cluster.run_app(setup())


def test_cold_read_validates_and_warm_read_skips(cluster):
    rec, view = pair(cluster, "memo-basic")

    def app():
        assert not view.warm
        skipped = view.validations_skipped
        cold = yield from reads_of(view)
        warm = yield from reads_of(view)
        return cold, warm, view.validations_skipped - skipped

    cold, warm, skipped = cluster.run_app(app())
    assert cold == (2, b"a" * BODY, 2)  # snapshot + validation
    assert warm == (2, b"a" * BODY, 1)  # snapshot only
    assert skipped == 1
    assert view.warm


def test_other_clients_publish_forces_validation(cluster):
    rec, view = pair(cluster, "memo-publish")

    def app():
        yield from view.read()
        yield from rec.write(b"b" * BODY)
        return (yield from reads_of(view))

    assert cluster.run_app(app()) == (4, b"b" * BODY, 2)


def test_lock_then_abort_keeps_the_memo(cluster):
    rec, view = pair(cluster, "memo-abort")

    def app():
        version, _ = yield from view.read()
        assert (yield from rec.try_lock(version))
        yield from rec.abort(version)  # same version, body untouched
        return (yield from reads_of(view))

    assert cluster.run_app(app()) == (2, b"a" * BODY, 1)


def test_txn_token_publish_invalidates_the_memo(cluster):
    rec, view = pair(cluster, "memo-txn")
    runtime = TxnRuntime(cluster.client(3), label="memo")

    def app():
        yield from view.read()
        other = yield from SeqLock.open(cluster.client(3), "memo-txn",
                                        body_size=BODY)

        def move(txn):
            yield from txn.write_record(other, b"t" * BODY)

        yield from runtime.run(move)
        return (yield from reads_of(view))

    assert cluster.run_app(app()) == (4, b"t" * BODY, 2)
    assert runtime.commits == 1


def test_remap_drops_the_memo(cluster):
    rec, view = pair(cluster, "memo-remap")

    def app():
        yield from view.read()
        assert view.warm
        old = view.mapping.desc
        # the path a fenced op takes: re-lookup and retarget the mapping
        yield from view.mapping._remap_with_backoff(1, immediate=True)
        assert view.mapping.desc is not old
        assert not view.warm
        return (yield from reads_of(view))

    assert cluster.run_app(app()) == (2, b"a" * BODY, 2)


def test_full_publish_writes_through_short_publish_forgets(cluster):
    rec, _view = pair(cluster, "memo-own")

    def app():
        version, _ = yield from rec.read()
        assert (yield from rec.try_lock(version))
        yield from rec.publish(version + 1, b"f" * BODY)
        full = yield from reads_of(rec)
        version = full[0]
        assert (yield from rec.try_lock(version))
        # a short body leaves the record's tail unknown to this view
        yield from rec.publish(version + 1, b"s" * 4)
        assert not rec.warm
        short = yield from reads_of(rec)
        return full, short

    full, short = cluster.run_app(app())
    assert full == (4, b"f" * BODY, 1)
    assert short == (6, b"s" * 4 + b"f" * (BODY - 4), 2)


def test_skip_counter_is_labelled_by_region_and_host_only(cluster):
    rec, view = pair(cluster, "memo-labels")

    def app():
        yield from view.read()
        yield from view.read()

    cluster.run_app(app())
    metrics = cluster.client(2).obs.metrics
    series = [inst for inst in metrics.series(
        "coord.seqlock.validations_skipped")
        if dict(inst.labels)["region"] == view.mapping.name]
    # one instrument per (region, host), never one per record
    assert {dict(inst.labels)["host"] for inst in series} == {"1", "2"}
    assert all(set(dict(inst.labels)) == {"region", "host"}
               for inst in series)
    by_host = {dict(inst.labels)["host"]: inst.value for inst in series}
    assert by_host == {"1": 0, "2": 1}
