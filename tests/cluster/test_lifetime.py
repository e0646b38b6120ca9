"""A finished cluster is garbage: nothing global keeps it alive."""

import gc
import weakref

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.obs import obs_for
from repro.obs import context as obs_context
from repro.sanitize import rsan as rsan_module
from repro.sanitize import rsan_for


def _used_cluster(**config):
    cluster = build_cluster(num_machines=3, config=RStoreConfig(**config))
    client = cluster.client(1)

    def app():
        yield from client.alloc("r", 64 * 1024)
        mapping = yield from client.map("r")
        yield from mapping.write(0, b"payload")
        return (yield from mapping.read(0, 7))

    assert cluster.run_app(app()) == b"payload"
    return cluster


def test_simulator_is_freed_with_its_cluster():
    cluster = _used_cluster()
    sim_ref = weakref.ref(cluster.sim)
    del cluster
    gc.collect()
    assert sim_ref() is None


def test_simulator_is_freed_with_tracing_and_sanitizer_on():
    cluster = _used_cluster(sanitize=True)
    obs_for(cluster.sim).tracer.enable()
    sim_ref = weakref.ref(cluster.sim)
    obs_ref = weakref.ref(obs_for(cluster.sim))
    rsan_ref = weakref.ref(rsan_for(cluster.sim))
    del cluster
    gc.collect()
    assert sim_ref() is None
    assert obs_ref() is None and rsan_ref() is None


def test_contexts_still_pop_by_simulator():
    cluster = _used_cluster()
    sim = cluster.sim
    ctx = obs_for(sim)
    assert ctx.sim is sim and ctx.tracer.sim.now == sim.now
    assert rsan_for(sim).sim is sim
    assert obs_context._contexts.pop(sim, None) is ctx
    assert rsan_module._contexts.pop(sim, None) is not None
    assert obs_context._contexts.pop(sim, None) is None
    # a popped context is rebuilt fresh on next use
    assert obs_for(sim) is not ctx
