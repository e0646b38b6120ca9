"""The per-simulation observability context.

Components are built from many call sites (the cluster builder, bare
RDMA tests, coordination primitives), so threading a registry through
every constructor would churn the whole API.  Instead each
:class:`~repro.simnet.kernel.Simulator` owns exactly one
:class:`Observability` — components call ``obs_for(self.sim)`` at
construction and land on the same registry and tracer as everything
else in that simulation.  The mapping is weak: contexts die with their
simulators, and two simulations never share instruments (fresh
``build_cluster`` ⇒ fresh counters ⇒ deterministic replay).  A context
refers back to its simulator only weakly: a strong back-reference from
a ``WeakKeyDictionary`` value would keep its own key alive forever.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary, proxy, ref

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["Observability", "obs_for"]


class Observability:
    """One simulation's metrics registry plus its (optional) tracer."""

    def __init__(self, sim):
        self._sim = ref(sim)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(proxy(sim), registry=self.metrics)

    @property
    def sim(self):
        """The simulator (``None`` once it has been freed)."""
        return self._sim()


_contexts: "WeakKeyDictionary" = WeakKeyDictionary()


def obs_for(sim) -> Observability:
    """The :class:`Observability` context of *sim* (created lazily)."""
    ctx = _contexts.get(sim)
    if ctx is None:
        ctx = Observability(sim)
        _contexts[sim] = ctx
    return ctx
