#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kv-zipf-read --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` boots the workload several times (``setup_s`` is the
median), then runs batches until ``--seconds`` of host time have passed
and at least the workload's deterministic batches are done.  It prints
the end-to-end metrics.  Host times are scaled to a reference machine
(see :mod:`reference`).

``--trace 1`` runs the deterministic batches twice on fresh clusters
with the same seed — once plain, once under :mod:`tracing` — checks
that both passes give identical sim metrics, per-layer counts and
final-state digests, checks that another seed changes the inputs, and
prints the per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output checked out and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import machine_speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: boots per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: end-to-end metrics and their units; the first three are host-clock
#: metrics, the last three sim-clock
END_TO_END_UNITS = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "sim_ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
}


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report(metrics: dict, units: dict, details, correct: bool,
            attempted: int, failed: int, errors) -> int:
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    for name, value, unit, note in details:
        print(f"  {name:32s} {value:16.6f} {unit:8s} {note}")
    for message in errors:
        print(f"ERROR: {message}")
    ratio = failed / attempted if attempted else 0.0
    print(f"  {'failed_ratio':32s} {ratio:16.6f} ratio    "
          f"{failed} of {attempted} ops")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _timed_with_speed(fn):
    """Run *fn*, gauging the machine's speed right before and after;
    returns ``(fn's result, fn's wall seconds, speed)``."""
    before = machine_speed()
    t0 = time.perf_counter()
    result = fn()
    took = time.perf_counter() - t0
    return result, took, (before + machine_speed()) / 2


def run_plain(cls, seed: int, seconds: float) -> int:
    # host times are scaled to the reference machine: a section that
    # took t seconds while the machine ran at speed v counts as t * v
    boots, raw_boots = [], []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        wl = cls(seed)
        _, took, speed = _timed_with_speed(wl.setup)
        raw_boots.append(took)
        boots.append(took * speed)
    deadline = time.perf_counter() + seconds
    rates, raw_rates, speeds = [], [], []
    index = 0
    while index < wl.sim_batches or time.perf_counter() < deadline:
        (ops, host_s), _took, speed = _timed_with_speed(
            lambda i=index: wl.run_batch(i))
        raw_rates.append(ops / host_s)
        rates.append(ops / (host_s * speed))
        speeds.append(speed)
        index += 1
    wl.finish()
    metrics = {
        "setup_s": statistics.median(boots),
        "host_ops_per_s": statistics.median(rates),
        "peak_rss_mib": _peak_rss_mib(),
        **wl.sim_metrics(),
    }
    details = [
        ("batches", float(index), "count",
         f"host; {wl.sim_batches} deterministic, median of per-batch "
         "rates"),
        ("machine_speed", statistics.median(speeds), "ratio",
         "host; reference-loop speed vs the reference machine"),
        ("setup_s_unscaled", statistics.median(raw_boots), "s",
         "host; wall clock, not scaled by machine speed"),
        ("host_ops_per_s_unscaled", statistics.median(raw_rates), "1/s",
         "host; wall clock, not scaled by machine speed"),
    ]
    details += wl.details()
    correct = not wl.errors and wl.failed == 0
    return _report(metrics, END_TO_END_UNITS, details, correct,
                   wl.attempted, wl.failed, wl.errors)


def _deterministic_pass(cls, seed: int, trace=None):
    """Setup plus the deterministic batches (traced when *trace* is
    given); returns the finished workload."""
    wl = cls(seed)
    wl.setup()
    if trace is not None:
        wl.timed_hooks.append(trace)
    for index in range(wl.sim_batches):
        wl.run_batch(index)
    wl.finish()
    return wl


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(cls, seed: int) -> int:
    from tracing import PACKAGES, LayerTrace

    plain = _deterministic_pass(cls, seed)
    plain.close()
    trace = LayerTrace()
    traced = _deterministic_pass(cls, seed, trace)
    counts, traced_counts = dict(plain.counts), dict(traced.counts)
    plain_s, traced_s = plain.timed_host_s, traced.timed_host_s

    errors = list(plain.errors) + list(traced.errors)
    # determinism self-check: tracing must not perturb the simulation,
    # and a second run of one seed must replay it exactly
    if plain.sim_metrics() != traced.sim_metrics():
        errors.append("sim metrics differ between two runs of one seed")
    if counts != traced_counts:
        changed = sorted(k for k in counts if counts[k] != traced_counts[k])
        errors.append(f"per-layer counts differ between two runs of one "
                      f"seed: {changed}")
    if plain.digest() != traced.digest():
        errors.append("final-state digest differs between two runs of "
                      "one seed")
    if cls(seed).op_sequence(0) == cls(seed + 1).op_sequence(0):
        errors.append(f"seeds {seed} and {seed + 1} generate the same "
                      "inputs")

    ops = plain.ops_in_sim_batches
    c = counts
    kv_ops = trace.spans["kv.get"][0] + trace.spans["kv.put"][0] \
        + trace.spans["kv.multi_get"][0]
    detoured = c["datapath.server_ops"] + c["datapath.remote_fetches"]
    attempts = c["txn.commits"] + c["txn.aborts"]
    self_s = trace.self_seconds()
    metrics = {
        "simnet.events": trace.events,
        "simnet.events_per_op": _ratio(trace.events, ops),
        "simnet.host_us_per_event": _ratio(plain_s * 1e6, trace.events),
        "rdma.ops_posted": c["rnic.ops_posted"],
        "rdma.doorbells_rung": c["rnic.doorbells_rung"],
        "rdma.wrs_per_op": _ratio(c["rnic.ops_posted"], ops),
        "rdma.bytes_sent": c["rnic.bytes_sent"],
        "client.retries": c["client.retries"],
        "client.pieces_replayed": c["client.pieces_replayed"],
        "client.bytes_moved": c["client.bytes_moved"],
        "master.rpc_served": c["master.rpc_served"],
        **{f"master.rpc_served.{m}": c[f"master.rpc_served.{m}"]
           for m in ("alloc", "free", "lookup", "heartbeat", "notify",
                     "wait_note")},
        "master.rpcs_per_op": _ratio(c["master.rpc_served"], ops),
        "client.setup_events": c["client.setup_events"],
        "client.metadata_cache_hits": c["client.metadata_cache_hits"],
        "client.metadata_cache_misses": c["client.metadata_cache_misses"],
        "client.metadata_cache_hit_ratio": _ratio(
            c["client.metadata_cache_hits"],
            c["client.metadata_cache_hits"]
            + c["client.metadata_cache_misses"]),
        "datapath.server_ops": c["datapath.server_ops"],
        "datapath.remote_fetches": c["datapath.remote_fetches"],
        "datapath.busy_retries": c["datapath.busy_retries"],
        "datapath.one_sided_share": (
            1.0 - _ratio(detoured, kv_ops) if kv_ops else 0.0),
        "kv.read_retries": c["kv.read_retries"],
        "kv.lock_retries": c["kv.lock_retries"],
        "kv.slot_reads_per_get": _ratio(trace.get_slot_reads,
                                        trace.spans["kv.get"][0]),
        "coord.seqlock.lock_failures": c["coord.seqlock.lock_failures"],
        "txn.commits": c["txn.commits"],
        "txn.aborts": c["txn.aborts"],
        "txn.conflicts": c["txn.conflicts"],
        "txn.retries": c["txn.retries"],
        "txn.abort_ratio": _ratio(c["txn.aborts"], attempts),
        "sort.run_sim_s": trace.spans["sort.run"][1],
        "sort.prepare_sim_s": c.get("sort.prepare_sim_s", 0.0),
        **{f"{pkg}.host_self_s": self_s.get(pkg, 0.0) for pkg in PACKAGES},
        "other.host_self_s": self_s.get("other", 0.0),
        "trace.untraced_host_s": plain_s,
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    }
    metrics = {name: float(value) for name, value in metrics.items()}
    units = {name: _per_layer_unit(name) for name in metrics}
    details = [
        (f"span.{name}", total * 1e6 / calls, "us",
         f"sim; {calls} calls, self {self_total * 1e6 / calls:.2f} us/call")
        for name, (calls, total, self_total) in sorted(trace.spans.items())
        if calls
    ]
    correct = not errors and plain.failed == 0 and traced.failed == 0
    return _report(metrics, units, details, correct,
                   plain.attempted + traced.attempted,
                   plain.failed + traced.failed, errors)


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith(("_per_op", "_per_get")):
        return "count/op"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes_sent") or name.endswith("bytes_moved"):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        return run_traced(cls, args.seed)
    return run_plain(cls, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
