"""Runtime determinism sanitizer: per-stream draw/state ledgers.

The static flow rules (R009-R012) prove stream discipline at the source
level; this package checks it at runtime.  It installs an observer on
the :mod:`repro.sim.rng` factories so every labelled Generator the
library creates is wrapped in a counting proxy, then asserts that the
resulting per-stream ledgers — draw counts and ``BitGenerator`` state
digests — agree across replays the reproduction contract requires to be
bitwise identical:

* scalar vs delta evaluation, sharded solves included
  (``tsajs solve --sanitize``);
* repeated serial runs of one experiment (``tsajs run --sanitize``);
* a journal-resumed sweep vs a fresh one (exercised in the test suite).

No path draws and then rewinds a stream, so draw counts are always
compared alongside the state digests.

Typical test usage::

    from repro.sanitize import sanitized, assert_ledgers_match

    with sanitized() as first:
        run_once()
    with sanitized() as second:
        run_once()
    assert_ledgers_match(first.snapshot(), second.snapshot())
"""

from __future__ import annotations

from repro.sanitize.ledger import (
    DeterminismSanitizer,
    SanitizedGenerator,
    StreamLedger,
    assert_ledgers_match,
    sanitized,
    state_digest,
)

__all__ = [
    "DeterminismSanitizer",
    "SanitizedGenerator",
    "StreamLedger",
    "assert_ledgers_match",
    "sanitized",
    "state_digest",
]
