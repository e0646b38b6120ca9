"""A sequence lock: writer-versioned optimistic reads over a body.

Layout (the body immediately follows the version word)::

    [ version 8B ][ body ... ]

Version word semantics (the protocol ``kv/hashkv`` pioneered inline,
generalized here):

* ``0``      — never written
* even > 0   — stable; bumped by 2 on every published mutation
* odd        — a writer holds the word (CAS'd up from the even value)

Readers never lock: snapshot the whole record in one one-sided read,
then validate by re-reading the version word; a change (or an odd
value) means the read raced a writer — retry.  Writers serialize
through a remote CAS on the version word, then publish: the body WRITE
and the next even version's WRITE in one doorbell on the record's QP,
placed in that order by RC (:meth:`SeqLock.stage` /
:meth:`SeqLock.settle` split it so many records share one flush).

A ``SeqLock`` is a cheap *view* over any mapped region — data
structures instantiate one per record (hashkv: one per slot) — while
``create``/``open`` give it a named region of its own for standalone
use.

Transactional writers (``repro.txn``) lock with a **unique odd
token** instead of ``version + 1``: the token names the holder, so an
ambiguous CAS completion (the NIC may or may not have applied it) is
resolved with one follow-up read of the word — the RemoteLock
discipline, applied to the version word.  Readers are oblivious: any
odd value means "writer in flight".

**Version memo.**  Each view remembers ``(version, body)`` from its
last validated read, or from its own full-body :meth:`publish`, tied
to the mapping's descriptor at the time (a remap drops it).  When a
later snapshot carries that same even version the validation READ is
skipped and the memo body is returned: the 8-byte version word is read
atomically, and at the instant it reads *v* the record holds exactly
the body published with *v*.  That rests on one invariant — every body
mutation bumps the version (kv put/delete, txn and 2PL publishes and
the server-op put all do; an abort restores *v* with the body
untouched) — so a repeated version names a repeated body.  The memo
body, not the possibly torn snapshot body, is what the caller gets.
"""

from __future__ import annotations

from repro.core.errors import RegionUnavailableError, RStoreError

from repro.coord.base import Backoff, CoordError, read_word, region_name

__all__ = ["SeqLock"]

_WORD = 8


class SeqLock:
    """Optimistic-read / CAS-write concurrency over one record."""

    def __init__(self, mapping, offset: int, body_size: int,
                 max_read_retries: int = 64):
        if body_size < 0:
            raise CoordError("body_size cannot be negative")
        self.mapping = mapping
        self.offset = offset
        self.body_size = body_size
        self.max_read_retries = max_read_retries
        # -- metrics
        _m = mapping.client.obs.metrics
        _labels = dict(region=mapping.name, offset=offset,
                       host=mapping.client.nic.host.host_id)
        self._m_read_retries = _m.counter("coord.seqlock.read_retries",
                                          **_labels)
        self._m_lock_failures = _m.counter("coord.seqlock.lock_failures",
                                           **_labels)
        # per region and host, not per record: one instrument per slot
        # would bloat the registry for no extra insight
        self._m_skipped = _m.counter("coord.seqlock.validations_skipped",
                                     region=mapping.name,
                                     host=mapping.client.nic.host.host_id)
        #: ``(version, body, desc)`` this view knows to be consistent,
        #: or None
        self._memo = None

    def _sync_key(self, version: int) -> tuple:
        """The happens-before key of one published version: a validated
        reader of version *v* joins whatever the writer that published
        *v* released."""
        return ("seqlock", self.mapping.name, self.offset, version)

    @property
    def read_retries(self) -> int:
        """Snapshot reads rerun because a writer was in flight."""
        return int(self._m_read_retries.value)

    @property
    def lock_failures(self) -> int:
        """CAS lock attempts that lost the version race."""
        return int(self._m_lock_failures.value)

    @property
    def validations_skipped(self) -> int:
        """Reads of this view's region and host the memo answered
        without a validation READ (shared by every view there)."""
        return int(self._m_skipped.value)

    @property
    def warm(self) -> bool:
        """Whether this view holds a memo (it has validated or fully
        published a version since its last remap)."""
        return (self._memo is not None
                and self._memo[2] is self.mapping.desc)

    @property
    def record_size(self) -> int:
        return _WORD + self.body_size

    # -- the version memo -------------------------------------------------------

    def memo_body(self, version: int):
        """The remembered body of even *version*, or None (and counts a
        skipped validation on a hit).  Callers that take their own
        snapshots — batched readers — use this to skip validating
        one."""
        memo = self._memo
        if (memo is None or memo[0] != version
                or memo[2] is not self.mapping.desc):
            return None
        self._m_skipped.inc()
        return memo[1]

    def remember(self, version: int, body: bytes, desc) -> None:
        """Record a validated ``(version, body)`` read under *desc*, the
        descriptor the snapshot was taken through."""
        self._memo = (version, bytes(body), desc)

    # -- setup (control path, standalone use) --------------------------------

    @classmethod
    def create(cls, client, name: str, body_size: int,
               preferred_host=None):
        """Allocate and map a named single-record region (generator)."""
        region = region_name(name)
        yield from client.alloc(region, _WORD + body_size, replication=1,
                                preferred_host=preferred_host)
        mapping = yield from client.map(region)
        return cls(mapping, 0, body_size)

    @classmethod
    def open(cls, client, name: str, body_size: int):
        """Map an existing record from another client (generator)."""
        mapping = yield from client.map(region_name(name))
        return cls(mapping, 0, body_size)

    # -- readers (data path) ---------------------------------------------------

    def read(self):
        """One consistent ``(version, body)`` snapshot (generator).

        Retries while a writer is in flight; raises :class:`CoordError`
        after ``max_read_retries`` racing reads (livelock that long in
        simulation means a writer died holding the word).

        A snapshot whose version the memo already holds skips the
        validation READ and returns the memo body.
        """
        mapping = self.mapping
        client = mapping.client
        rsan = client.rsan
        for _attempt in range(self.max_read_retries):
            desc = mapping.desc
            with rsan.exempt(client._rsan_actor):
                blob = yield from mapping.read(self.offset, self.record_size)
                version = int.from_bytes(blob[:_WORD], "little")
                if version % 2 == 1:
                    self._m_read_retries.inc()
                    continue
                body = self.memo_body(version)
                if body is None:
                    check = yield from mapping.read(self.offset, _WORD)
            if body is None:
                if int.from_bytes(check, "little") != version:
                    self._m_read_retries.inc()
                    continue
                body = blob[_WORD:]
                self.remember(version, body, desc)
            rsan.sync_acquire(client._rsan_actor, self._sync_key(version))
            return version, body
        raise CoordError(
            f"record at offset {self.offset} kept changing under "
            f"{self.max_read_retries} reads"
        )

    # -- writers (data path) ---------------------------------------------------

    def _lock_word(self, version: int, token: int = None) -> int:
        if version % 2 == 1:
            raise CoordError(f"cannot lock from odd version {version}")
        if token is not None and token % 2 == 0:
            raise CoordError(f"lock token {token} must be odd")
        return version + 1 if token is None else token

    def stage_lock(self, batch, version: int, token: int = None):
        """Queue the lock CAS (even *version* to odd) on *batch*;
        returns its future for :meth:`settle_lock`.  Many records'
        CASes share one flush this way — the txn intent round."""
        lock_word = self._lock_word(version, token)
        client = self.mapping.client
        with client.rsan.exempt(client._rsan_actor):
            return batch.cas(self.mapping, self.offset, version, lock_word)

    def settle_lock(self, fut, version: int, token: int = None):
        """Whether the CAS *fut* took the word (generator).

        With no *token* an ambiguous CAS completion propagates — the
        caller cannot tell whether it holds the word.  With a unique
        odd *token* the word itself answers: an ambiguous completion is
        resolved by re-reading it, so lock acquisition is exactly-once
        under injected completion faults.
        """
        client = self.mapping.client
        rsan = client.rsan
        try:
            old = yield from fut.wait()
        except RegionUnavailableError:
            if token is None:
                raise
            # ambiguous completion: our token is unique, so one read of
            # the word reveals whether the CAS landed (reads replay
            # internally, riding out the fault that ate the ack)
            with rsan.exempt(client._rsan_actor):
                observed = yield from read_word(self.mapping, self.offset)
            # anything other than our token — including the unchanged
            # even version — counts as a loss; the caller re-snapshots
            old = version if observed == token else ~version
        if old != version:
            self._m_lock_failures.inc()
            return False
        # the CAS observed version: join the publisher of that version
        rsan.sync_acquire(client._rsan_actor, self._sync_key(version))
        return True

    def try_lock(self, version: int, token: int = None):
        """CAS the even *version* to odd (generator); returns success.

        The lock word becomes ``version + 1`` (the classic protocol) or
        the caller's unique odd *token*; :meth:`settle_lock` says how an
        ambiguous completion resolves in each case.
        """
        lock_word = self._lock_word(version, token)
        client = self.mapping.client
        with client.rsan.exempt(client._rsan_actor):
            fut = yield from self.mapping.cas_async(self.offset, version,
                                                    lock_word)
        got = yield from self.settle_lock(fut, version, token)
        return got

    def stage(self, batch, locked_version: int, body: bytes = b"",
              new_version: int = None):
        """Queue a publish on *batch* (generator); returns the pending
        publish for :meth:`settle`.

        The body WRITE goes first and the version WRITE second, in one
        flush.  A record never straddles a stripe (and a locked record
        is never replicated: atomics refuse replicated regions), so both
        ride one QP and RC order lands the body before the version — a
        reader never sees the new version over the old body.
        ``locked_version`` is the odd value we CAS'd in (``version + 1``,
        or the caller's unique token).  Token holders must pass
        *new_version* explicitly (the pre-lock version + 2); by default
        the next even version is ``locked_version + 1``.
        """
        if locked_version % 2 == 0:
            raise CoordError("publishing a record we never locked")
        if new_version is None:
            new_version = locked_version + 1
        if new_version % 2 == 1 or new_version <= 0:
            raise CoordError(
                f"published version {new_version} must be a positive "
                "even value"
            )
        if len(body) > self.body_size:
            raise CoordError(
                f"body of {len(body)} bytes exceeds record body "
                f"{self.body_size}"
            )
        mapping = self.mapping
        client = mapping.client
        rsan = client.rsan
        pending = _Publish(locked_version, new_version, bytes(body),
                           mapping.desc)
        self._memo = None
        # release under the version we are about to publish, before the
        # writes leave: readers validating it join this clock
        rsan.sync_release(client._rsan_actor, self._sync_key(new_version))
        stripe = pending.desc.stripe_size
        if self.offset // stripe != (self.offset + self.record_size - 1) \
                // stripe:
            # no single QP orders the two writes: settle writes them
            # one after the other instead
            return pending
        with rsan.exempt(client._rsan_actor):
            if body:
                pending.futures.append((yield from batch.write(
                    mapping, self.offset + _WORD, body, replay=False)))
            pending.futures.append((yield from batch.write(
                mapping, self.offset, new_version.to_bytes(8, "little"),
                replay=False)))
        return pending

    def settle(self, pending):
        """Finish a staged publish, exactly once (generator).

        If both staged WRITEs landed, that is all.  Otherwise the
        version word decides: anything but our lock word means our
        version WRITE landed, and RC order put the body before it, so
        the publish is done; our lock word means it did not, so the
        body and then the version are written again, one after the
        other, while we still hold the record.  Raises if that hits
        faults; calling ``settle`` again resumes at the word check, so
        callers replay it until it returns.

        A full-length body becomes this view's memo once the version
        write is known to have landed; a shorter one leaves part of the
        record unknown, so the memo stays dropped.
        """
        futures, pending.futures = pending.futures, []
        landed = bool(futures)
        for fut in futures:
            try:
                yield from fut.wait()
            except RStoreError:
                landed = False
        if landed:
            self._published(pending, pending.desc)
            return
        mapping = self.mapping
        client = mapping.client
        with client.rsan.exempt(client._rsan_actor):
            word = yield from read_word(mapping, self.offset)
            if word != pending.locked_version:
                if word == pending.new_version:
                    self._published(pending, mapping.desc)
                return
            if pending.body:
                yield from mapping.write(self.offset + _WORD, pending.body)
            yield from mapping.write(
                self.offset, pending.new_version.to_bytes(8, "little")
            )
        # the writes may have remapped: the memo names the last layout
        self._published(pending, mapping.desc)

    def _published(self, pending, desc) -> None:
        if len(pending.body) == self.body_size:
            self.remember(pending.new_version, pending.body, desc)

    def publish(self, locked_version: int, body: bytes = b"",
                new_version: int = None):
        """Write *body* (optional) and bump to the next even version
        (generator): :meth:`stage` and :meth:`settle` around one flush,
        so the body and version WRITEs share one doorbell."""
        batch = self.mapping.client.batch()
        pending = yield from self.stage(batch, locked_version, body,
                                        new_version)
        yield from batch.flush()
        yield from self.settle(pending)

    def stage_abort(self, batch, original_version: int):
        """Queue :meth:`abort`'s version restore on *batch* (generator);
        returns its future."""
        if original_version % 2 == 1:
            raise CoordError("abort restores the pre-lock even version")
        client = self.mapping.client
        with client.rsan.exempt(client._rsan_actor):
            fut = yield from batch.write(
                self.mapping, self.offset,
                original_version.to_bytes(8, "little"))
        return fut

    def abort(self, original_version: int):
        """Drop the write lock without mutating (generator): restore
        the pre-lock even version, body untouched."""
        batch = self.mapping.client.batch()
        fut = yield from self.stage_abort(batch, original_version)
        yield from batch.flush()
        yield from fut.wait()

    def write(self, body: bytes, backoff: Backoff = None):
        """Full optimistic write cycle (generator): snapshot the
        version, lock, publish; retries with backoff under contention.
        Returns the new (even) version."""
        pause = backoff or Backoff.for_client(
            self.mapping.client, f"seqlock-{self.mapping.name}"
        )
        while True:
            version, _old = yield from self.read()
            locked = yield from self.try_lock(version)
            if not locked:
                yield from pause.pause()
                continue
            yield from self.publish(version + 1, body)
            return version + 2


class _Publish:
    """One staged publish: what :meth:`SeqLock.settle` needs to finish
    it."""

    __slots__ = ("locked_version", "new_version", "body", "desc",
                 "futures")

    def __init__(self, locked_version, new_version, body, desc):
        self.locked_version = locked_version
        self.new_version = new_version
        self.body = body
        #: the descriptor the publish was staged through (its layout
        #: decides whether the two WRITEs share a QP)
        self.desc = desc
        #: the staged WRITE futures, body first (empty once settled)
        self.futures = []
