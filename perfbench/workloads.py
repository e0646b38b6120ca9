"""The four benchmark workloads.

Every workload is a sequence of *batches*.  Batch ``i`` draws its
inputs from ``numpy.random.default_rng([seed, i])``, so the inputs are
a pure function of the seed.  The first ``sim_batches`` batches are the
deterministic part of a run: every simulated-time (sim) metric and
every per-layer count comes from them alone, so they repeat exactly for
a seed.  Later batches only add host-time samples.

The store receives only the generated inputs (keys, values, arrival
times, transfer pairs, region sizes, sort seeds); it never sees the
benchmark seed.
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import RStoreError
from repro.kv import RKVStore
from repro.obs import context as obs_context
from repro.obs import obs_for
from repro.sanitize import rsan
from repro.simnet.config import KiB, MiB
from repro.sort import RSort

__all__ = ["WORKLOADS", "Workload", "percentile", "counter_totals"]

#: record geometry of TeraGen input (10-byte key, 90-byte value)
_RECORD = 100
_SORT_KEY = 10


def batch_rng(seed: int, index: int) -> np.random.Generator:
    """The input stream of batch *index* under *seed*."""
    return np.random.default_rng([seed, index])


def zipf_cdf(keyspace: int, theta: float) -> np.ndarray:
    """Cumulative zipfian popularity over ranks ``0..keyspace-1``."""
    weights = 1.0 / np.power(np.arange(1, keyspace + 1), theta)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def percentile(values, q: float) -> float:
    """The *q*-th percentile of *values* (0.0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


#: registry counters read by the traced run, summed over label sets
COUNTERS = (
    "rnic.ops_posted", "rnic.doorbells_rung", "rnic.bytes_sent",
    "client.retries", "client.pieces_replayed", "client.bytes_moved",
    "client.metadata_cache_hits", "client.metadata_cache_misses",
    "datapath.server_ops", "datapath.remote_fetches",
    "datapath.busy_retries", "kv.read_retries", "kv.lock_retries",
    "coord.seqlock.lock_failures", "txn.commits", "txn.aborts",
    "txn.conflicts", "txn.retries",
)

#: master RPC methods counted one by one
RPC_METHODS = ("alloc", "free", "lookup", "heartbeat", "notify",
               "wait_note")


def counter_totals(cluster) -> dict[str, float]:
    """The public counters of *cluster*, summed over label sets."""
    registry = obs_for(cluster.sim).metrics
    known = set(registry.names())
    out = {name: registry.total(name) if name in known else 0
           for name in COUNTERS}
    served = registry.series("master.rpc_served")
    out["master.rpc_served"] = sum(c.value for c in served)
    for method in RPC_METHODS:
        out[f"master.rpc_served.{method}"] = sum(
            c.value for c in served if ("method", method) in c.labels)
    out["client.setup_events"] = sum(
        c.setup_events for c in cluster.clients.values())
    return out


def release(cluster) -> None:
    """Let a cluster the benchmark is done with be freed.

    The observability and sanitizer contexts live in
    ``WeakKeyDictionary`` maps keyed by the simulator, but each context
    holds its simulator strongly, so the entries never expire and every
    cluster built in a process stays alive.  Dropping the entries
    breaks that cycle; without it, memory grows with every boot.
    """
    obs_context._contexts.pop(cluster.sim, None)
    rsan._contexts.pop(cluster.sim, None)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


class Workload:
    """Common workload state: failures, op counts, the booted cluster."""

    name = ""
    #: batches whose sim results are reported (the deterministic part)
    sim_batches = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.cluster = None
        #: operations issued and operations that raised
        self.attempted = 0
        self.failed = 0
        #: correctness violations and failed-op messages (first few kept)
        self.errors: list[str] = []
        #: counter deltas and host seconds over the timed sections of
        #: the deterministic batches
        self.counts: dict[str, float] = defaultdict(float)
        self.timed_host_s = 0.0
        #: context managers entered around every timed section of the
        #: deterministic batches (the traced run adds its tracer)
        self.timed_hooks: list = []

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def registry(self):
        return obs_for(self.cluster.sim).metrics

    @contextmanager
    def timed(self, index: int, clock: list):
        """Time the section run inside; appends its host seconds to
        *clock*.  For a deterministic batch it also runs the hooks and
        adds the section's counter deltas to :attr:`counts`."""
        record = index < self.sim_batches
        before = counter_totals(self.cluster) if record else None
        with ExitStack() as hooks:
            if record:
                for hook in self.timed_hooks:
                    hooks.enter_context(hook)
            t0 = time.perf_counter()
            yield
            clock.append(time.perf_counter() - t0)
        if record:
            self.timed_host_s += clock[-1]
            after = counter_totals(self.cluster)
            for name, value in after.items():
                self.counts[name] += value - before[name]

    def close(self) -> None:
        """Release the cluster (see :func:`release`)."""
        if self.cluster is not None:
            release(self.cluster)
            self.cluster = None
            gc.collect()

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def op_failed(self, what: str, exc: Exception) -> None:
        self.failed += 1
        self.error(f"{what}: {type(exc).__name__}: {exc}")

    # -- the interface run.py drives ----------------------------------------

    def setup(self) -> None:
        """Boot the cluster and load the initial state."""
        raise NotImplementedError

    def run_batch(self, index: int) -> tuple[int, float]:
        """Run batch *index*; returns ``(ops, host_seconds)`` of its
        timed part."""
        raise NotImplementedError

    def finish(self) -> None:
        """Check the final state against the reference model."""
        raise NotImplementedError

    def sim_metrics(self) -> dict[str, float]:
        """``sim_ops_per_s``, ``op_p50_us`` and ``op_p99_us``."""
        raise NotImplementedError

    def details(self) -> list[tuple[str, float, str, str]]:
        """Workload-specific metrics: ``(name, value, unit, note)``."""
        return []

    def digest(self) -> str:
        """A digest of the final state (set by :meth:`finish`)."""
        return self._digest

    def op_sequence(self, index: int) -> bytes:
        """The generated inputs of batch *index*, as bytes."""
        raise NotImplementedError

    @property
    def ops_in_sim_batches(self) -> int:
        """Workload ops in the deterministic part (per-op ratios)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# kv-zipf-read


class KvZipfRead(Workload):
    """YCSB-B on RKVStore as an open loop in simulated time.

    Requests arrive on a seeded Poisson schedule and each is timed from
    the instant it was due, so a stall also charges the requests queued
    behind it.  The ladder steps the offered rate; the nominal rung is
    where the headline latencies are read.
    """

    name = "kv-zipf-read"
    MACHINES = 4
    CLIENT_HOSTS = (1, 2, 3)
    KEYS = 1000
    SLOTS = 4096
    KEY_SIZE = 16
    VALUE_SIZE = 64
    THETA = 0.99
    UPDATE_SHARE = 0.05
    #: offered rates (requests per simulated second), low to high; the
    #: top rung stays below the hot key's SeqLock livelock point
    LADDER = (0.5e6, 1.0e6, 1.5e6, 2.0e6, 2.5e6, 3.0e6)
    NOMINAL = 2.5e6
    RUNG_REQUESTS = 1500
    NOMINAL_REQUESTS = 6000
    #: the service-level limit on read p99 for the SLO rate
    READ_P99_LIMIT_US = 50.0
    #: warm-up gets per client host during setup (first contact with a
    #: server pays the data QP connect)
    WARMUP = 64
    sim_batches = len(LADDER)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys = [f"user{i:08d}".encode() for i in range(self.KEYS)]
        # YCSB scatters popularity ranks over the keyspace; the scatter
        # is part of the fixed keyspace layout, not of the seeded
        # request stream, so the table's probe chains are the same for
        # every seed and only the request sequence varies
        self._rank_to_key = np.random.default_rng(2014).permutation(self.KEYS)
        self._cdf = zipf_cdf(self.KEYS, self.THETA)
        #: per key: highest write sequence issued, and the sequence of
        #: the write that completed last (the reference model)
        self._issued = [0] * self.KEYS
        self._landed = [(0.0, 0)] * self.KEYS
        self.rungs: list[dict] = []
        self._digest = ""

    def _value(self, key: int, seq: int) -> bytes:
        return f"{key:08d}:{seq:08d}".encode().ljust(self.VALUE_SIZE, b".")

    def _parse(self, value: bytes) -> tuple[int, int]:
        head = value[:17].decode()
        return int(head[:8]), int(head[9:17])

    def _batch_plan(self, index: int):
        rng = batch_rng(self.seed, index)
        if index < len(self.LADDER):
            rate = self.LADDER[index]
        else:
            rate = self.NOMINAL
        n = (self.NOMINAL_REQUESTS
             if index < len(self.LADDER) and rate == self.NOMINAL
             else self.RUNG_REQUESTS)
        offsets = np.cumsum(rng.exponential(1.0 / rate, n))
        ranks = np.searchsorted(self._cdf, rng.random(n), side="left")
        keys = self._rank_to_key[ranks]
        updates = rng.random(n) < self.UPDATE_SHARE
        hosts = rng.integers(0, len(self.CLIENT_HOSTS), n)
        return rate, offsets, keys, updates, hosts

    def op_sequence(self, index: int) -> bytes:
        _rate, offsets, keys, updates, hosts = self._batch_plan(index)
        return b"".join(a.tobytes() for a in (offsets, keys, updates, hosts))

    @property
    def ops_in_sim_batches(self) -> int:
        return sum(len(self._batch_plan(i)[1])
                   for i in range(self.sim_batches))

    def setup(self) -> None:
        self.cluster = build_cluster(
            num_machines=self.MACHINES,
            config=RStoreConfig(stripe_size=64 * KiB),
            server_capacity=32 * MiB,
        )
        cluster = self.cluster
        self.views = {}

        def load():
            store = yield from RKVStore.create(
                cluster.client(self.CLIENT_HOSTS[0]), "ycsb",
                slots=self.SLOTS, key_size=self.KEY_SIZE,
                value_size=self.VALUE_SIZE,
            )
            for key_id, key in enumerate(self.keys):
                yield from store.put(key, self._value(key_id, 0))
            for host in self.CLIENT_HOSTS:
                self.views[host] = yield from RKVStore.open(
                    cluster.client(host), "ycsb")

        cluster.run_app(load())

        def warm(host):
            view = self.views[host]
            for i in range(self.WARMUP):
                yield from view.get(self.keys[(host * 31 + i) % self.KEYS])

        def warm_all():
            yield cluster.sim.all_of(
                [cluster.spawn(warm(h)) for h in self.CLIENT_HOSTS])

        cluster.run_app(warm_all())

    def run_batch(self, index: int) -> tuple[int, float]:
        rate, offsets, keys, updates, hosts = self._batch_plan(index)
        sim = self.sim
        n = len(offsets)
        latency = np.zeros(n)
        done = np.zeros(n)
        lag = [0.0]

        def request(i, due):
            key = int(keys[i])
            view = self.views[self.CLIENT_HOSTS[int(hosts[i])]]
            try:
                if updates[i]:
                    self._issued[key] += 1
                    seq = self._issued[key]
                    yield from view.put(self.keys[key],
                                        self._value(key, seq))
                    if sim.now >= self._landed[key][0]:
                        self._landed[key] = (sim.now, seq)
                else:
                    value = yield from view.get(self.keys[key])
                    self._check_read(key, value)
            except RStoreError as exc:
                self.op_failed(f"kv request {i} (key {key})", exc)
                latency[i] = np.nan
                return
            latency[i] = sim.now - due
            done[i] = sim.now

        def generator():
            start = sim.now
            procs = []
            for i in range(n):
                due = start + float(offsets[i])
                if due > sim.now:
                    yield sim.timeout(due - sim.now)
                lag[0] = max(lag[0], sim.now - due)
                procs.append(sim.process(request(i, due)))
            yield sim.all_of(procs)
            return start

        clock = []
        with self.timed(index, clock):
            start = self.cluster.run_app(generator())
        self.attempted += n
        if index < self.sim_batches:
            self.rungs.append(self._rung_stats(
                rate, latency, done, updates, start, lag[0]))
        return n, clock[0]

    def _check_read(self, key: int, value) -> None:
        if value is None:
            self.error(f"read of loaded key {key} returned nothing")
            return
        owner, seq = self._parse(bytes(value))
        if owner != key or seq > self._issued[key]:
            self.error(f"read of key {key} returned a value never "
                       f"written to it ({owner}:{seq})")

    def _rung_stats(self, rate, latency, done, updates, start, lag):
        ok = ~np.isnan(latency)
        reads = latency[ok & ~updates] * 1e6
        writes = latency[ok & updates] * 1e6
        quarter = max(1, len(latency) // 4)
        first = np.nanmean(latency[:quarter])
        last = np.nanmean(latency[-quarter:])
        return {
            "rate": rate,
            "achieved": int(ok.sum()) / (float(done.max()) - start),
            "read_p50_us": percentile(reads, 50),
            "read_p99_us": percentile(reads, 99),
            "update_p50_us": percentile(writes, 50),
            "update_p99_us": percentile(writes, 99),
            "reads": len(reads),
            "updates": len(writes),
            # a growing backlog shows as requests late in the rung
            # waiting far longer than early ones
            "backlog": bool(last > 2.0 * first),
            "lag_us": lag * 1e6,
        }

    def _nominal(self) -> dict:
        return self.rungs[self.LADDER.index(self.NOMINAL)]

    def slo_rung(self):
        passing = [r for r in self.rungs
                   if r["read_p99_us"] <= self.READ_P99_LIMIT_US
                   and not r["backlog"]]
        return max(passing, key=lambda r: r["rate"]) if passing else None

    def finish(self) -> None:
        view = self.views[self.CLIENT_HOSTS[0]]

        def read_all():
            values = []
            for lo in range(0, self.KEYS, 100):
                part = yield from view.multi_get(self.keys[lo:lo + 100])
                values.extend(part)
            return values

        values = self.cluster.run_app(read_all())
        for key, value in enumerate(values):
            want = self._value(key, self._landed[key][1])
            if value != want:
                self.error(f"final value of key {key} is {value!r}, the "
                           f"reference model says {want!r}")
        self._digest = _digest(values)

    def sim_metrics(self) -> dict[str, float]:
        nominal = self._nominal()
        return {
            "sim_ops_per_s": nominal["achieved"],
            "op_p50_us": nominal["read_p50_us"],
            "op_p99_us": nominal["read_p99_us"],
        }

    def details(self):
        nominal = self._nominal()
        slo = self.slo_rung()
        rows = []
        for r in self.rungs:
            rows.append((
                f"rung_{r['rate'] / 1e3:.0f}k_read_p99_us", r["read_p99_us"],
                "us",
                f"sim; achieved {r['achieved'] / 1e3:.0f} kops/s, read p50 "
                f"{r['read_p50_us']:.2f} us, backlog "
                f"{'growing' if r['backlog'] else 'flat'}, generator lag "
                f"{r['lag_us']:.2f} us",
            ))
        rows += [
            ("slo_kops", slo["achieved"] / 1e3 if slo else 0.0, "kops/s",
             f"sim; highest rung with read p99 <= "
             f"{self.READ_P99_LIMIT_US:.0f} us and no growing backlog"),
            ("read_p50_us", nominal["read_p50_us"], "us",
             f"sim; nominal {self.NOMINAL / 1e6:.1f} Mops/s, "
             f"{nominal['reads']} reads"),
            ("read_p99_us", nominal["read_p99_us"], "us",
             f"sim; {nominal['reads']} reads"),
            ("update_p50_us", nominal["update_p50_us"], "us",
             f"sim; {nominal['updates']} updates"),
            ("update_p99_us", nominal["update_p99_us"], "us",
             f"sim; {nominal['updates']} updates (fewer than 1000: "
             "a p99 with under ten samples beyond it)"),
        ]
        return rows


# ---------------------------------------------------------------------------
# txn-zipf-write


class TxnZipfWrite(Workload):
    """Closed-loop OCC bank transfers under zipfian contention."""

    name = "txn-zipf-write"
    MACHINES = 4
    CLIENT_HOSTS = (1, 2, 3)
    CLIENTS = 8
    ACCOUNTS = 128
    SLOTS = 512
    OPENING = 1000
    #: milder skew than kv's: with 0.99 the hottest account made the
    #: retry tail, and so p99, jump by 20 % from seed to seed
    THETA = 0.5
    TXNS_PER_CLIENT = 40
    #: whole-transaction retry budget; conflicts never exhaust it
    RETRIES = 1000
    sim_batches = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys = [f"acct-{i:04d}".encode() for i in range(self.ACCOUNTS)]
        self._cdf = zipf_cdf(self.ACCOUNTS, self.THETA)
        self.balances = [self.OPENING] * self.ACCOUNTS
        self.latencies: list[float] = []
        self.sim_elapsed = 0.0
        self.committed = 0
        self._digest = ""

    def _batch_plan(self, index: int):
        rng = batch_rng(self.seed, index)
        n = self.CLIENTS * self.TXNS_PER_CLIENT
        src = np.searchsorted(self._cdf, rng.random(n), side="left")
        dst = np.searchsorted(self._cdf, rng.random(n), side="left")
        # a self-transfer is no transfer: move it to the next account
        dst = np.where(dst == src, (src + 1) % self.ACCOUNTS, dst)
        amounts = rng.integers(1, 50, n)
        return src, dst, amounts

    def op_sequence(self, index: int) -> bytes:
        return b"".join(a.tobytes() for a in self._batch_plan(index))

    @property
    def ops_in_sim_batches(self) -> int:
        return self.sim_batches * self.CLIENTS * self.TXNS_PER_CLIENT

    def setup(self) -> None:
        self.cluster = build_cluster(
            num_machines=self.MACHINES,
            config=RStoreConfig(stripe_size=64 * KiB),
            server_capacity=32 * MiB,
        )
        cluster = self.cluster
        views = {}

        def load():
            store = yield from RKVStore.create(
                cluster.client(self.CLIENT_HOSTS[0]), "ledger",
                slots=self.SLOTS, key_size=16, value_size=16)
            for key in self.keys:
                yield from store.put(key, str(self.OPENING).encode())
            for host in self.CLIENT_HOSTS:
                views[host] = yield from RKVStore.open(cluster.client(host),
                                                       "ledger")
            return store

        self.store = cluster.run_app(load())
        self.views = [views[self.CLIENT_HOSTS[c % len(self.CLIENT_HOSTS)]]
                      for c in range(self.CLIENTS)]
        self.runtimes = [view.txn(label=f"client-{c}", retries=self.RETRIES)
                         for c, view in enumerate(self.views)]

    def run_batch(self, index: int) -> tuple[int, float]:
        src, dst, amounts = self._batch_plan(index)
        sim = self.sim
        per = self.TXNS_PER_CLIENT
        record = index < self.sim_batches
        commits = [0]

        def client(c):
            view, runtime = self.views[c], self.runtimes[c]
            for j in range(c * per, (c + 1) * per):
                a, b, amount = int(src[j]), int(dst[j]), int(amounts[j])

                def transfer(txn, a=a, b=b, amount=amount):
                    x = int((yield from txn.get(view, self.keys[a])))
                    y = int((yield from txn.get(view, self.keys[b])))
                    yield from txn.put(view, self.keys[a],
                                       str(x - amount).encode())
                    yield from txn.put(view, self.keys[b],
                                       str(y + amount).encode())

                began = sim.now
                try:
                    yield from runtime.run(transfer)
                except RStoreError as exc:
                    self.op_failed(f"transfer {j}", exc)
                    continue
                commits[0] += 1
                self.balances[a] -= amount
                self.balances[b] += amount
                if record:
                    self.latencies.append(sim.now - began)

        def batch():
            start = sim.now
            yield sim.all_of([sim.process(client(c))
                              for c in range(self.CLIENTS)])
            return sim.now - start

        clock = []
        with self.timed(index, clock):
            elapsed = self.cluster.run_app(batch())
        self.attempted += len(src)
        self.committed += commits[0]
        if record:
            self.sim_elapsed += elapsed
        return commits[0], clock[0]

    def finish(self) -> None:
        def read_all():
            values = yield from self.store.multi_get(self.keys)
            return [int(v) for v in values]

        balances = self.cluster.run_app(read_all())
        total = sum(balances)
        if total != self.ACCOUNTS * self.OPENING:
            self.error(f"ledger sums to {total}, opened with "
                       f"{self.ACCOUNTS * self.OPENING}")
        if balances != self.balances:
            wrong = sum(1 for x, y in zip(balances, self.balances) if x != y)
            self.error(f"{wrong} balances differ from the reference model")
        commits = sum(rt.commits for rt in self.runtimes)
        if commits != self.committed or \
                commits + self.failed != self.attempted:
            self.error(f"{commits} commits + {self.failed} failures != "
                       f"{self.attempted} attempts")
        self._digest = _digest(balances)

    def sim_metrics(self) -> dict[str, float]:
        n = len(self.latencies)
        return {
            "sim_ops_per_s": n / self.sim_elapsed,
            "op_p50_us": percentile(self.latencies, 50) * 1e6,
            "op_p99_us": percentile(self.latencies, 99) * 1e6,
        }

    def details(self):
        n = len(self.latencies)
        m = self.sim_metrics()
        return [
            ("txn_p50_us", m["op_p50_us"], "us",
             f"sim; {n} committed transfers, retries included"),
            ("txn_p99_us", m["op_p99_us"], "us", f"sim; {n} transfers"),
        ]


# ---------------------------------------------------------------------------
# region-churn


class RegionChurn(Workload):
    """Closed-loop region lifecycles across tenants and metadata shards."""

    name = "region-churn"
    MACHINES = 5
    CLIENT_HOSTS = (1, 2, 3, 4)
    CONTROL_SHARDS = 4
    TENANTS = 4
    CLIENTS = 12
    CYCLES = 10
    STRIPE = 16 * KiB
    #: region sizes are 1..8 units, so regions span 1..4 stripes
    UNIT = 8 * KiB
    PAYLOAD = 256
    #: warm-up lifecycles per client host during setup
    WARMUP = 16
    sim_batches = 9

    def __init__(self, seed: int):
        super().__init__(seed)
        self.alloc_s: list[float] = []
        self.map_s: list[float] = []
        self.cycle_s: list[float] = []
        self.sim_elapsed = 0.0
        self._trail = hashlib.blake2b(digest_size=16)
        self._digest = ""

    def _batch_plan(self, index: int):
        rng = batch_rng(self.seed, index)
        n = self.CLIENTS * self.CYCLES
        sizes = rng.integers(1, 9, n) * self.UNIT
        payloads = rng.integers(0, 256, (n, self.PAYLOAD), dtype=np.uint8)
        offsets = rng.integers(0, self.UNIT - self.PAYLOAD, n)
        return sizes, payloads, offsets

    def op_sequence(self, index: int) -> bytes:
        return b"".join(a.tobytes() for a in self._batch_plan(index))

    @property
    def ops_in_sim_batches(self) -> int:
        return self.sim_batches * self.CLIENTS * self.CYCLES

    def setup(self) -> None:
        self.cluster = build_cluster(
            num_machines=self.MACHINES,
            config=RStoreConfig(
                stripe_size=self.STRIPE,
                control_shards=self.CONTROL_SHARDS,
                # quotas switch admission control on; no client ever
                # holds enough to be refused
                tenant_quota_bytes={f"tenant{t}": 64 * MiB
                                    for t in range(self.TENANTS)},
            ),
            server_capacity=64 * MiB,
        )
        # first contact pays the lazy client-shard channels, the
        # shard-server dials and the client-server QP connects; pay
        # them here so the timed batches measure the steady control
        # path, and keep the cold lifecycle times as a detail
        cold = []
        payload = bytes(self.PAYLOAD)

        def warm(host):
            rstore = self.cluster.client(host)
            for i in range(self.WARMUP):
                name = f"tenant{i % self.TENANTS}/warmup-{host}-{i}"
                began = self.sim.now
                yield from self._lifecycle(rstore, name, 8 * self.UNIT, 0,
                                           payload)
                cold.append(self.sim.now - began)

        def warm_all():
            yield self.sim.all_of([self.cluster.spawn(warm(h))
                                   for h in self.CLIENT_HOSTS])

        self.cluster.run_app(warm_all())
        self.cold_s = cold

    def _lifecycle(self, rstore, name, size, offset, payload):
        """alloc -> map -> write -> read back -> unmap -> free
        (generator); returns the descriptor, alloc and map latencies
        and the bytes read back."""
        sim = self.sim
        began = sim.now
        desc = yield from rstore.alloc(name, size)
        allocated = sim.now
        mapping = yield from rstore.map(name)
        mapped = sim.now
        yield from mapping.write(offset, payload)
        back = yield from mapping.read(offset, len(payload))
        mapping.unmap()
        yield from rstore.free(name)
        return desc, allocated - began, mapped - allocated, back

    def run_batch(self, index: int) -> tuple[int, float]:
        sizes, payloads, offsets = self._batch_plan(index)
        sim = self.sim
        record = index < self.sim_batches
        cycles = [0]
        trail = []

        def client(c):
            rstore = self.cluster.client(
                self.CLIENT_HOSTS[c % len(self.CLIENT_HOSTS)])
            for j in range(c * self.CYCLES, (c + 1) * self.CYCLES):
                name = f"tenant{c % self.TENANTS}/b{index}-c{c}-{j}"
                payload = payloads[j].tobytes()
                began = sim.now
                try:
                    desc, alloc_s, map_s, back = yield from self._lifecycle(
                        rstore, name, int(sizes[j]), int(offsets[j]),
                        payload)
                except RStoreError as exc:
                    self.op_failed(f"lifecycle of {name}", exc)
                    continue
                if back != payload:
                    self.error(f"read-back of {name} differs from the "
                               "bytes written")
                cycles[0] += 1
                trail.append((name, tuple(desc.hosts)))
                if record:
                    self.alloc_s.append(alloc_s)
                    self.map_s.append(map_s)
                    self.cycle_s.append(sim.now - began)

        def batch():
            start = sim.now
            yield sim.all_of([sim.process(client(c))
                              for c in range(self.CLIENTS)])
            return sim.now - start

        clock = []
        with self.timed(index, clock):
            elapsed = self.cluster.run_app(batch())
        self.attempted += len(sizes)
        self._trail.update(repr(sorted(trail)).encode())
        if record:
            self.sim_elapsed += elapsed
        return cycles[0], clock[0]

    def finish(self) -> None:
        client = self.cluster.client(self.CLIENT_HOSTS[0])
        leaked = self.cluster.run_app(client.list_regions())
        if leaked:
            self.error(f"{len(leaked)} regions leaked, e.g. {leaked[0]!r}")
        held = self.registry.total("master.tenant_bytes")
        if held != 0:
            self.error(f"master.tenant_bytes is {held} after every free")
        self._digest = self._trail.hexdigest()

    def sim_metrics(self) -> dict[str, float]:
        return {
            "sim_ops_per_s": len(self.cycle_s) / self.sim_elapsed,
            "op_p50_us": percentile(self.alloc_s, 50) * 1e6,
            "op_p99_us": percentile(self.alloc_s, 99) * 1e6,
        }

    def details(self):
        n = len(self.alloc_s)
        return [
            ("alloc_p50_us", percentile(self.alloc_s, 50) * 1e6, "us",
             f"sim; {n} allocs"),
            ("alloc_p99_us", percentile(self.alloc_s, 99) * 1e6, "us",
             f"sim; {n} allocs"),
            ("map_p99_us", percentile(self.map_s, 99) * 1e6, "us",
             f"sim; {n} warm maps"),
            ("cold_lifecycle_max_us", max(self.cold_s) * 1e6, "us",
             f"sim; slowest of {len(self.cold_s)} first lifecycles in "
             "setup (cold connects and dials)"),
            ("lifecycle_p50_us", percentile(self.cycle_s, 50) * 1e6, "us",
             f"sim; {n} lifecycles"),
        ]


# ---------------------------------------------------------------------------
# sort-bulk


def _record_fingerprints(records: np.ndarray) -> np.ndarray:
    """An order-independent per-record hash (uint64 per row)."""
    weights = np.random.default_rng(99).integers(
        1, 2**63, _RECORD, dtype=np.uint64) | np.uint64(1)
    with np.errstate(over="ignore"):
        h = (records.astype(np.uint64) * weights).sum(axis=1,
                                                      dtype=np.uint64)
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
    return h


def _checksum(records: np.ndarray) -> int:
    with np.errstate(over="ignore"):
        return int(_record_fingerprints(records).sum(dtype=np.uint64))


def _keys_sorted(records: np.ndarray) -> bool:
    """True when the 10-byte keys are in non-descending order.

    Written here rather than taken from ``repro.workloads.kv`` so the
    gate does not share code with the program it checks."""
    if len(records) < 2:
        return True
    keys = records[:, :_SORT_KEY]
    prev, nxt = keys[:-1], keys[1:]
    diff = prev != nxt
    first = diff.argmax(axis=1)
    rows = np.arange(len(first))
    return bool((~diff.any(axis=1) | (prev[rows, first] < nxt[rows, first]))
                .all())


class SortBulk(Workload):
    """RSort over real TeraGen records (wire_scale 1: every byte real)."""

    name = "sort-bulk"
    MACHINES = 4
    RECORDS_PER_WORKER = 25_000
    sim_batches = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.job_s: list[float] = []
        self.records_sorted = 0
        self._outputs: list[tuple[int, int]] = []
        self._next = None
        self._digest = ""

    def _job_seed(self, index: int) -> int:
        return int(batch_rng(self.seed, index).integers(0, 2**31))

    def op_sequence(self, index: int) -> bytes:
        return self._job_seed(index).to_bytes(8, "little")

    @property
    def ops_in_sim_batches(self) -> int:
        return self.sim_batches * self.MACHINES * self.RECORDS_PER_WORKER

    def setup(self) -> None:
        self._next = self._prepare(0)

    def _prepare(self, index: int):
        """Boot a cluster for job *index* and TeraGen its input."""
        # every job gets a freshly booted cluster: a region allocated
        # over freed memory is not zeroed, and the sort's phase barrier
        # assumes a zeroed region (see CHANGES.md)
        self.close()
        self.cluster = build_cluster(
            num_machines=self.MACHINES,
            config=RStoreConfig(stripe_size=1 * MiB),
            server_capacity=256 * MiB,
        )
        job = RSort(self.cluster, self.RECORDS_PER_WORKER,
                    seed=self._job_seed(index), tag=f"job{index}")
        began = self.sim.now
        self.cluster.run_app(job.prepare())
        if index < self.sim_batches:
            self.counts["sort.prepare_sim_s"] += self.sim.now - began
        records = self.cluster.run_app(self._read_region(f"job{index}.input"))
        return job, len(records), _checksum(records)

    def _read_region(self, name: str):
        client = self.cluster.client(0)
        mapping = yield from client.map(name)
        parts = []
        pos = 0
        while pos < mapping.size:
            take = min(4 * MiB, mapping.size - pos)
            parts.append((yield from mapping.read(pos, take)))
            pos += take
        mapping.unmap()
        return np.frombuffer(b"".join(parts),
                             dtype=np.uint8).reshape(-1, _RECORD)

    def run_batch(self, index: int) -> tuple[int, float]:
        if self._next is None:
            self._next = self._prepare(index)
        job, count, checksum = self._next
        self._next = None
        clock = []
        with self.timed(index, clock):
            stats = self.cluster.run_app(job.run())
        self.attempted += count
        output = self.cluster.run_app(job.collect_output())
        if len(output) != count:
            self.error(f"job {index} output holds {len(output)} records, "
                       f"input {count}")
        if not _keys_sorted(output):
            self.error(f"job {index} output is not sorted")
        out_sum = _checksum(output)
        if out_sum != checksum:
            self.error(f"job {index} output checksum differs from input")
        if index < self.sim_batches:
            self.job_s.append(stats.elapsed)
            self.records_sorted += len(output)
            self._outputs.append((len(output), out_sum))
        return len(output), clock[0]

    def finish(self) -> None:
        self._digest = _digest(self._outputs)

    def sim_metrics(self) -> dict[str, float]:
        return {
            "sim_ops_per_s": self.records_sorted / sum(self.job_s),
            "op_p50_us": percentile(self.job_s, 50) * 1e6,
            "op_p99_us": percentile(self.job_s, 99) * 1e6,
        }

    def details(self):
        gbps = self.records_sorted * _RECORD / sum(self.job_s) / 1e9
        return [("sort_sim_GBps", gbps, "GB/s",
                 f"sim; {len(self.job_s)} jobs of "
                 f"{self.MACHINES * self.RECORDS_PER_WORKER} records")]


WORKLOADS = {cls.name: cls for cls in
             (KvZipfRead, TxnZipfWrite, SortBulk, RegionChurn)}
