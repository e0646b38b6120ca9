"""Server-side execution of composite data-path operations.

The ``dp_exec`` handler a :class:`~repro.core.server.MemoryServer`
registers on its RPC endpoint.  A client ships one *composite* op — a
kv probe chain, a counter burst — and the server applies it against
the arena, replacing a multi-round one-sided conversation with a
single round trip.

Correctness relies on two disciplines:

* **Atomic application.**  Simulation code between yields runs
  atomically in simulated time, so every slot snapshot is read in one
  yield-free block (never torn) and every mutation re-validates and
  writes in one yield-free block (never interleaved with a racing
  one-sided writer).  CPU time is charged *before* each such block.
* **Equivalent happens-before edges.**  A server-op emits exactly the
  sync edges its one-sided equivalent would — a validated read
  acquires the slot's published version key, a store acquires the
  old version and releases the new one — on the *client's* RSan actor
  id, so mixing modes under the sanitizer stays race-clean and
  mode-equivalent.

Epoch fencing mirrors the NIC's WR-level fence: requests are stamped
with the client's observed shard epoch and a fenced request raises
:class:`~repro.core.errors.StaleEpochError` before touching memory.

This module is *data-plane only*: repro-lint RL007 forbids server-op
handlers from importing master/RPC/shard machinery or dialing a
control endpoint — the server that registers the handler owns the
channel; the executor only ever touches the arena.
"""

from __future__ import annotations

import pickle

from repro.core.errors import RStoreError, StaleEpochError
from repro.datapath import ops
from repro.sanitize.rsan import rsan_for

__all__ = ["ServerOpExecutor"]

#: results that carry a payload worth depositing; pure statuses always
#: return inline (a deposited "busy" would waste the pickup READ)
_DEPOSITABLE = ("hit", "multi", "counted")


class ServerOpExecutor:
    """Applies composite client ops against one server's arena."""

    def __init__(self, server):
        self.server = server
        self.sim = server.sim
        self.nic = server.nic
        self.cpu = server.nic.host.cpu
        self.mr = server.arena_mr
        self.rsan = rsan_for(server.sim)
        _m = server.nic.obs.metrics
        _host = server.host_id
        self._m_applied = _m.counter("datapath.server_ops_applied",
                                     host=_host)
        self._m_deposited = _m.counter("datapath.server_bytes_deposited",
                                       host=_host)
        self._ops = {
            "kv_get": self._kv_get,
            "kv_put": self._kv_put,
            "kv_multi_get": self._kv_multi_get,
            "counter_burst": self._counter_burst,
        }

    # -- entry point ---------------------------------------------------------

    def execute(self, request: dict):
        """The ``dp_exec`` RPC handler (generator)."""
        shard = request.get("shard", 0)
        epoch = request.get("epoch", 0)
        if self.nic.fenced(shard, epoch):
            raise StaleEpochError(
                f"server-op stamped epoch {epoch} is behind shard "
                f"{shard}'s fence {self.nic.fence_for(shard)}"
            )
        handler = self._ops.get(request.get("op"))
        if handler is None:
            raise RStoreError(f"unknown server op {request.get('op')!r}")
        result = yield from handler(request)
        self._m_applied.inc()
        deposit = request.get("deposit")
        if deposit is not None and result[0] in _DEPOSITABLE:
            result = yield from self._deposit(deposit, result)
        return result

    # -- helpers -------------------------------------------------------------

    def _snapshot(self, addr: int, length: int) -> bytes:
        """Read arena bytes with no yield — atomic in simulated time."""
        return self.mr.buffer.read(self.mr.offset_of(addr), length)

    def _sync_key(self, req: dict, slot_off: int, version: int) -> tuple:
        # the SeqLock view's key: region name + record offset + version
        return ("seqlock", req["region"], slot_off, version)

    def _deposit(self, deposit, result):
        """Write the pickled result into the client's fetch buffer.

        The RPC reply is sent only after this handler returns, so the
        deposit is durably in place before the client's one-sided
        pickup READ can possibly be issued.
        """
        addr, capacity = deposit
        blob = pickle.dumps(result)
        if len(blob) > capacity:
            raise RStoreError(
                f"result of {len(blob)} bytes exceeds the fetch buffer "
                f"({capacity} bytes) — raise datapath_fetch_bytes"
            )
        yield from self.cpu.copy(len(blob))
        self.mr.buffer.write(self.mr.offset_of(addr), blob)
        self._m_deposited.inc(len(blob))
        return ("deposited", len(blob))

    # -- kv ops --------------------------------------------------------------

    def _probe(self, req: dict, key: bytes, slots):
        """Walk one probe run (generator).

        This is where server-side execution earns its keep on deep
        chains: the prober touches only the slot *header* (version +
        key) per hop — local memory, a few dozen bytes — and pays for
        the value exactly once, on the matching slot.  The one-sided
        equivalent must READ the full slot every hop because it cannot
        know a slot misses until the bytes arrive.

        Yields CPU charges; returns one of::

            ("hit", slot_off, version, value)   key found, read validated
            ("free", ...)                       never-used slot ends chain
            ("busy",)                           a writer holds a slot word
            ("continue",)                       run exhausted, chain goes on
        """
        key_size = req["key_size"]
        head = ops.WORD + ops.WORD + ops.pad(key_size)
        size = ops.slot_size(key_size, req["value_size"])
        for slot_off, addr in slots:
            yield from self.cpu.copy(head)
            header = self._snapshot(addr, head)  # consistent: no yield
            version = int.from_bytes(header[:ops.WORD], "little")
            if version % 2 == 1:
                return ("busy",)
            key_len = int.from_bytes(header[ops.WORD:2 * ops.WORD],
                                     "little")
            slot_key = (header[2 * ops.WORD:2 * ops.WORD + key_len]
                        if key_len not in (0, ops.TOMBSTONE) else b"")
            if key_len != 0 and (key_len == ops.TOMBSTONE
                                 or slot_key != key):
                # validated observation of a non-matching slot: the
                # one-sided prober acquires its version key too
                self.rsan.sync_acquire(
                    req["actor"], self._sync_key(req, slot_off, version))
                continue  # occupied by someone else: keep probing
            if key_len == 0:
                # never-used slot ends the chain; its version key is
                # what the one-sided prober would have validated
                self.rsan.sync_acquire(
                    req["actor"], self._sync_key(req, slot_off, version))
                return ("free", slot_off, version, None)
            # key match: now pay for the value and re-validate — the
            # CPU charge yields, so the slot may have changed under us
            yield from self.cpu.copy(size - head)
            blob = self._snapshot(addr, size)  # consistent: no yield
            cur_version = int.from_bytes(blob[:ops.WORD], "little")
            if cur_version % 2 == 1 or cur_version != version:
                return ("busy",)  # racing writer: caller re-drives
            # the one-sided prober acquires the validated snapshot's
            # version key (SeqLock.read) — mirror it at the validated
            # instant
            self.rsan.sync_acquire(req["actor"],
                                   self._sync_key(req, slot_off, version))
            _len, _key, value = ops.parse_body(blob[ops.WORD:], key_size)
            return ("hit", slot_off, version, value)
        return ("continue",)

    def _kv_get(self, req: dict):
        outcome = yield from self._probe(req, req["key"], req["slots"])
        if outcome[0] == "hit":
            return ("hit", outcome[3])
        if outcome[0] == "free":
            return ("free",)
        return outcome  # ("busy",) or ("continue",)

    def _kv_put(self, req: dict):
        """Store into the key's own slot if this run holds it, else into
        the first tombstone, else into the never-used slot ending the
        chain — the one-sided writer's choice, so a key is never stored
        twice.  ``tomb_seen`` says an earlier run already offered a
        tombstone: a never-used slot here then answers ``("absent",)``
        and the router claims that tombstone (``claim``: store into the
        request's one slot unless a racer took it for another key)."""
        key, value = req["key"], req["value"]
        key_size, value_size = req["key_size"], req["value_size"]
        size = ops.slot_size(key_size, value_size)
        body = ops.encode_body(key, value, key_size, value_size,
                               tombstone=req.get("tombstone", False))
        if req.get("claim"):
            slot_off, addr = req["slots"][0]
            return (yield from self._kv_store(req, body, size, slot_off,
                                              addr))
        tomb = None
        for slot_off, addr in req["slots"]:
            yield from self.cpu.copy(size)
            blob = self._snapshot(addr, size)
            version = int.from_bytes(blob[:ops.WORD], "little")
            if version % 2 == 1:
                return ("busy",)
            self.rsan.sync_acquire(req["actor"],
                                   self._sync_key(req, slot_off, version))
            key_len, slot_key, _val = ops.parse_body(blob[ops.WORD:],
                                                     key_size)
            if key_len == ops.TOMBSTONE:
                if tomb is None:
                    tomb = (slot_off, addr)
                continue
            if key_len == 0:
                if tomb is None and req.get("tomb_seen"):
                    return ("absent",)
                target = tomb or (slot_off, addr)
            elif slot_key == key:
                target = (slot_off, addr)
            else:
                continue  # occupied by another key: keep probing
            return (yield from self._kv_store(req, body, size, *target))
        return ("continue", tomb)

    def _kv_store(self, req: dict, body: bytes, size: int, slot_off: int,
                  addr: int):
        """Claim one slot for the request's key (generator).  Charge the
        publish copy first (it yields), then re-validate + write in one
        atomic block."""
        yield from self.cpu.copy(size)
        blob = self._snapshot(addr, size)
        cur_version = int.from_bytes(blob[:ops.WORD], "little")
        if cur_version % 2 == 1:
            return ("busy",)
        cur_len, cur_key, _val = ops.parse_body(blob[ops.WORD:],
                                                req["key_size"])
        if cur_len not in (0, ops.TOMBSTONE) and cur_key != req["key"]:
            return ("busy",)  # a racer claimed it for another key
        new_version = cur_version + 2
        actor = req["actor"]
        # lock + publish edges at the apply instant — identical to
        # the one-sided try_lock/publish pair, with no observable
        # odd-version window because nothing yields in between
        self.rsan.sync_acquire(
            actor, self._sync_key(req, slot_off, cur_version))
        self.rsan.sync_release(
            actor, self._sync_key(req, slot_off, new_version))
        self.mr.buffer.write(
            self.mr.offset_of(addr),
            new_version.to_bytes(ops.WORD, "little") + body,
        )
        return ("stored", new_version)

    def _kv_multi_get(self, req: dict):
        """Batched lookups whose whole probe chain lives on this host."""
        results = []
        for key, slots in req["entries"]:
            sub = dict(req, key=key, slots=slots)
            outcome = yield from self._kv_get(sub)
            if outcome[0] == "free" or outcome[0] == "continue":
                # a full single-host chain that ends or exhausts is a
                # definitive miss — same verdict the one-sided prober
                # reaches after its probe window
                outcome = ("miss",)
            results.append(outcome)
        return ("multi", results)

    # -- counters ------------------------------------------------------------

    def _counter_burst(self, req: dict):
        """Apply a burst of FAA deltas to one counter word.

        One read-modify-write, atomic in simulated time — equivalent
        to the deltas landing back-to-back on the remote FAA unit.
        Counter words are RSan-exempt on the one-sided path, so no
        sync edges are emitted here either.
        """
        deltas = req["deltas"]
        yield from self.cpu.copy(ops.WORD * max(1, len(deltas)))
        offset = self.mr.offset_of(req["addr"])
        word = int.from_bytes(self.mr.buffer.read(offset, ops.WORD),
                              "little")
        values = []
        for delta in deltas:
            word = (word + delta) % (1 << 64)
            values.append(word)
        self.mr.buffer.write(offset, word.to_bytes(ops.WORD, "little"))
        return ("counted", values)
