"""Pinned event order of the randomized harness.

The simulation is deterministic, so a seed's run is a fixed sequence
of queue entries.  These values were captured from the kernel before
its bare-callback fast path landed; the fast path had to reproduce
them exactly.  A later kernel change that adds, drops or reorders an
entry changes ``order`` (and usually ``events`` and ``now``) and fails
here loudly: if that change is intended, re-pin the values in the same
commit and say why.

* ``outcome``: blake2b-128 of the op results and the final region bytes
* ``now``: the final simulated time, compared exactly
* ``events``: simulator steps taken
* ``order``: blake2b-128 of the clock after every step plus every
  traced span in recording order (see ``run_schedule``)
"""

import hashlib

import pytest

from tests.harness.schedule import run_schedule

PINNED = {
    101: ("fbfa25641b14f8136f13ea035964eda2", 0.00972555086872703, 2316,
          "11abbcbc78d9683b65076323c449f24f"),
    202: ("8cd7c2c47cea0ac63d3434d953cb0fd8", 0.009745655531768047, 2365,
          "a7b85541a4ba55cab55fce82fbb326c2"),
    303: ("db63c55f8a8549a64d39d84c652b8651", 0.009709895924982784, 2025,
          "8c08d06cdf64ec3625f54f1074784477"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_event_order_matches_the_pinned_run(seed):
    digest = run_schedule(seed, trace=True, record_order=True)
    outcome = hashlib.blake2b(digest_size=16)
    outcome.update(repr(digest["results"]).encode())
    outcome.update(digest["final"])
    want_outcome, want_now, want_events, want_order = PINNED[seed]
    assert outcome.hexdigest() == want_outcome
    assert digest["now"] == want_now
    assert digest["events"] == want_events
    assert digest["order"] == want_order


def test_recording_the_order_does_not_perturb_the_run():
    plain = run_schedule(101, trace=True)
    recorded = run_schedule(101, trace=True, record_order=True)
    assert recorded["results"] == plain["results"]
    assert recorded["final"] == plain["final"]
    assert recorded["now"] == plain["now"]
    assert recorded["spans"] == plain["spans"]
