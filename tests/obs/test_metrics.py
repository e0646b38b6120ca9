"""The metrics registry: counters, gauges, log-bucketed histograms."""

import math

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


def test_counter_counts_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("x.ops", host=1)
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)


def test_same_name_and_labels_share_one_instrument():
    reg = MetricsRegistry()
    assert reg.counter("x.ops", host=1) is reg.counter("x.ops", host=1)
    assert reg.counter("x.ops", host=1) is not reg.counter("x.ops", host=2)


def test_name_is_usable_as_a_label_key():
    reg = MetricsRegistry()
    c = reg.counter("lock.acquisitions", name="mutex", host=0)
    c.inc()
    assert reg.total("lock.acquisitions") == 1


def test_total_sums_across_label_sets():
    reg = MetricsRegistry()
    reg.counter("x.ops", host=1).inc(3)
    reg.counter("x.ops", host=2).inc(4)
    assert reg.total("x.ops") == 7
    assert len(reg.series("x.ops")) == 2


def test_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x.ops")
    with pytest.raises(TypeError):
        reg.gauge("x.ops")
    with pytest.raises(TypeError):
        reg.histogram("x.ops")


def test_total_of_histogram_rejected():
    reg = MetricsRegistry()
    reg.histogram("x.lat").observe(1.0)
    with pytest.raises(TypeError):
        reg.total("x.lat")


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("x.inflight")
    g.add(5)
    g.add(-2)
    assert g.value == 3
    g.set(0)
    assert g.value == 0


def test_get_never_creates():
    reg = MetricsRegistry()
    assert reg.get("x.ops") is None
    made = reg.counter("x.ops")
    assert reg.get("x.ops") is made
    assert len(reg) == 1


def test_histogram_quantiles_within_relative_error():
    h = Histogram("lat", ())
    values = [i * 1e-6 for i in range(1, 1001)]
    for v in values:
        h.observe(v)
    # exact extremes, bounded relative error in between
    assert h.percentile(0) == 1e-6
    assert h.percentile(100) == 1000e-6
    for q in (50, 95, 99):
        exact = values[math.ceil(len(values) * q / 100) - 1]
        assert h.percentile(q) == pytest.approx(exact, rel=0.05)
    assert h.count == 1000
    assert h.mean == pytest.approx(sum(values) / len(values))


def test_histogram_empty_and_tiny_values():
    h = Histogram("lat", ())
    with pytest.raises(ValueError):
        h.percentile(50)
    with pytest.raises(ValueError):
        h.summary()
    h.observe(0.0)  # at/below the smallest bound: bucket 0
    assert h.percentile(50) == 0.0
    with pytest.raises(ValueError):
        h.observe(-1.0)


def test_histogram_single_sample_summary():
    h = Histogram("lat", ())
    h.observe(3e-6)
    s = h.summary()
    assert s.count == 1
    assert s.minimum == s.maximum == 3e-6
    # quantiles clamp to the observed extremes
    assert s.p50 == s.p99 == 3e-6


def test_merged_folds_label_sets():
    reg = MetricsRegistry()
    reg.histogram("x.lat", host=1).observe(1e-6)
    reg.histogram("x.lat", host=2).observe(2e-6)
    merged = reg.merged("x.lat")
    assert merged.count == 2
    assert merged.minimum == 1e-6
    assert merged.maximum == 2e-6
    with pytest.raises(KeyError):
        reg.merged("nope")


def test_merge_rejects_different_scales():
    a = Histogram("x", (), smallest=1e-9)
    b = Histogram("x", (), smallest=1e-6)
    with pytest.raises(ValueError):
        a.merge(b)


def test_snapshot_is_plain_data():
    reg = MetricsRegistry()
    reg.counter("x.ops", host=1).inc(2)
    reg.histogram("x.lat").observe(5e-6)
    snap = reg.snapshot()
    assert snap["x.ops"]["host=1"] == 2
    count, mean, _p50, _p99, maximum = snap["x.lat"]["-"]
    assert count == 1 and mean == 5e-6 and maximum == 5e-6


def test_series_is_label_sorted_whatever_the_registration_order():
    reg = MetricsRegistry()
    for host in (3, 1, 10, 2):
        reg.counter("x.ops", host=host).inc(host)
    reg.counter("x.other", host=0)
    reg.counter("x.ops", host=1, region="b")
    reg.counter("x.ops", host=1, region="a")
    labels = [inst.labels for inst in reg.series("x.ops")]
    assert labels == sorted(labels)
    # label values are strings, so "10" sorts between "1" and "2"
    assert [dict(lbl)["host"] for lbl in labels] == \
        ["1", "1", "1", "10", "2", "3"]
    # the same order the full (name, labels) sort of the registry gives
    assert reg.series("x.ops") == [
        inst for inst in sorted(reg, key=lambda i: (i.name, i.labels))
        if inst.name == "x.ops"]
    assert reg.total("x.ops") == 16


def test_series_sees_instruments_registered_after_a_query():
    reg = MetricsRegistry()
    assert reg.series("x.ops") == []
    assert reg.total("x.ops") == 0
    reg.counter("x.ops", host=2).inc(2)
    first = reg.series("x.ops")
    reg.counter("x.ops", host=1).inc(1)
    assert [dict(i.labels)["host"] for i in reg.series("x.ops")] == ["1", "2"]
    assert reg.total("x.ops") == 3
    # a returned series is the caller's copy
    first.clear()
    assert len(reg.series("x.ops")) == 2
    reg.histogram("x.lat", host=1).observe(1e-6)
    reg.histogram("x.lat", host=0).observe(3e-6)
    assert reg.merged("x.lat").count == 2
