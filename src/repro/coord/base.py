"""Shared plumbing for the coordination primitives.

Every primitive in :mod:`repro.coord` follows the same separation
discipline as the store itself:

* **setup (control path)** — ``create`` allocates a small named region
  through the master and maps it; ``open`` maps an existing one.  These
  are the only master RPCs a primitive ever makes.
* **steady state (data path)** — all coordination runs on one-sided
  ``faa``/``cas``/``read``/``write`` against the mapped region.  No
  server CPU, no master, no messages.

Coordination regions are allocated with ``replication=1`` because
NIC-side atomics cannot be mirrored consistently across replicas (see
``Mapping._atomic``); a coordination word that outlives its server must
be re-created, not repaired.
"""

from __future__ import annotations

from repro.core.backoff import Backoff
from repro.core.errors import RStoreError

__all__ = ["CoordError", "Backoff", "region_name", "read_word", "write_word"]

#: all coordination regions live under one reserved name prefix
_PREFIX = "coord."


class CoordError(RStoreError):
    """Coordination-layer failure (protocol misuse or livelock)."""


def region_name(name: str) -> str:
    """The store-level region name backing the primitive *name*."""
    return name if name.startswith(_PREFIX) else _PREFIX + name


def read_word(mapping, offset: int):
    """One-sided read of an 8-byte little-endian word (generator)."""
    raw = yield from mapping.read(offset, 8)
    return int.from_bytes(raw, "little")


def write_word(mapping, offset: int, value: int):
    """One-sided write of an 8-byte little-endian word (generator)."""
    yield from mapping.write(offset, (value % (1 << 64)).to_bytes(8, "little"))
