"""The traced run: per-layer counts and host self-time, from outside.

Nothing in ``src/`` is edited.  While a :class:`LayerTrace` is active
it:

* wraps ``Simulator.step`` to count simulation events;
* wraps public generator entry points (kv get/put, txn run, client
  alloc/map/free, mapping read/write, SeqLock read, RSort run)
  in benchmark-side spans on simulated time, nested per simulated
  process, so each span's self time excludes its children;
* runs ``cProfile`` and folds self time by ``repro.<package>`` (time in
  built-ins is charged to the package of the caller);
* leaves counter reads to the workload, which takes deltas of the
  always-on ``obs_for(sim).metrics`` counters around the same sections.

A trace is entered once per timed section and accumulates across
them.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import re
from collections import defaultdict

from repro.coord import SeqLock
from repro.core.client import Mapping, RStoreClient
from repro.kv import RKVStore
from repro.simnet.kernel import Simulator
from repro.sort import RSort
from repro.txn import TxnRuntime

__all__ = ["LayerTrace", "PACKAGES"]

#: (class, method, span name) — every span wraps a generator method
_ENTRY_POINTS = (
    (RKVStore, "get", "kv.get"),
    (RKVStore, "put", "kv.put"),
    (RKVStore, "multi_get", "kv.multi_get"),
    (TxnRuntime, "run", "txn.run"),
    (RStoreClient, "alloc", "control.alloc"),
    (RStoreClient, "map", "control.map"),
    (RStoreClient, "free", "control.free"),
    (Mapping, "read", "core.read"),
    (Mapping, "write", "core.write"),
    (SeqLock, "read", "coord.seqlock.read"),
    (RSort, "run", "sort.run"),
)

#: packages whose host self time is reported as ``<package>.host_self_s``
PACKAGES = ("simnet", "rdma", "rpc", "core", "datapath", "kv", "coord",
            "txn", "sort", "obs")

_PACKAGE_OF = re.compile(r"[/\\]repro[/\\]([A-Za-z_]+)[/\\]")


class LayerTrace:
    """Re-enterable context manager that instruments timed sections."""

    def __init__(self):
        self.events = 0
        #: span name -> [calls, total sim s, self sim s]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: slot reads made inside kv.get spans
        self.get_slot_reads = 0
        self._stacks: dict[object, list] = defaultdict(list)
        self._saved = []
        self._profile = cProfile.Profile()

    # -- instrumentation --------------------------------------------------

    def _count_step(self, original):
        trace = self

        @functools.wraps(original)
        def step(sim):
            trace.events += 1
            return original(sim)

        return step

    def _span(self, original, name):
        trace = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            sim = _sim_of(obj)
            proc = sim.active_process
            stack = trace._stacks[proc]
            if name == "coord.seqlock.read" and any(
                    frame[0] == "kv.get" for frame in stack):
                trace.get_slot_reads += 1
            frame = [name, sim.now, 0.0]
            stack.append(frame)
            try:
                return (yield from original(obj, *args, **kwargs))
            finally:
                stack.pop()
                took = sim.now - frame[1]
                entry = trace.spans[name]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[2]
                if stack:
                    stack[-1][2] += took
                else:
                    trace._stacks.pop(proc, None)

        return wrapper

    def __enter__(self):
        self._saved.append((Simulator, "step", Simulator.step))
        Simulator.step = self._count_step(Simulator.step)
        for cls, attr, name in _ENTRY_POINTS:
            original = getattr(cls, attr)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._span(original, name))
        self._profile.enable()
        return self

    def __exit__(self, *exc):
        self._profile.disable()
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()
        return False

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Profiled host self time per ``repro`` package (``other`` for
        the rest)."""
        stats = pstats.Stats(self._profile).stats
        out: dict[str, float] = defaultdict(float)
        for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in \
                stats.items():
            if filename == "~" and callers:
                # a built-in: charge it to whoever called it
                for caller, timing in callers.items():
                    out[_package(caller[0])] += timing[2]
            else:
                out[_package(filename)] += tt
        return dict(out)


def _package(filename: str) -> str:
    match = _PACKAGE_OF.search(filename)
    return match.group(1) if match else "other"


def _sim_of(obj):
    """The simulator behind any wrapped receiver."""
    if isinstance(obj, RSort):
        return obj.cluster.sim
    if isinstance(obj, SeqLock):
        return obj.mapping.client.sim
    if isinstance(obj, (RKVStore, TxnRuntime, Mapping)):
        return obj.client.sim
    return obj.sim
