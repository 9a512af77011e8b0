"""Stream ledgers, the counting Generator proxy, and the sanitizer."""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.errors import DeterminismViolation
from repro.sim import rng as rng_module


def state_digest(bit_generator: Any) -> str:
    """Short stable digest of a ``BitGenerator``'s full state.

    The state dict is canonicalised (sorted keys, numpy scalars coerced
    to int) so the digest is a pure function of the mathematical state.
    """
    blob = json.dumps(bit_generator.state, sort_keys=True, default=int)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class StreamLedger:
    """Running account of one labelled RNG stream."""

    label: str
    #: Number of draw calls made through the proxy.  State assignments
    #: (``bit_generator.state = ...``) are not draws and not counted —
    #: they go through the passed-through real ``bit_generator``.
    draws: int = 0
    #: Explicit mid-run checkpoints (state digests), in order.
    checkpoints: List[str] = field(default_factory=list)


class SanitizedGenerator:
    """Counting proxy around a ``numpy.random.Generator``.

    Every callable attribute is wrapped to increment the ledger's draw
    count before delegating; ``bit_generator`` passes through to the real
    object so state reads and digests see the underlying stream, and
    ``spawn`` wraps the children so derived streams are ledgered too.

    The proxy is duck-type compatible with ``Generator`` for everything
    the library does (no ``isinstance`` checks exist in ``src/``).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        ledger: StreamLedger,
        sanitizer: "DeterminismSanitizer",
    ) -> None:
        self._rng = rng
        self._ledger = ledger
        self._sanitizer = sanitizer

    @property
    def bit_generator(self) -> Any:
        return self._rng.bit_generator

    @property
    def ledger(self) -> StreamLedger:
        return self._ledger

    def spawn(self, n_children: int) -> List["SanitizedGenerator"]:
        children = self._rng.spawn(n_children)
        return [
            self._sanitizer.wrap(child, f"{self._ledger.label}/spawn{index}")
            for index, child in enumerate(children)
        ]

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._rng, name)
        if callable(attr):
            ledger = self._ledger

            def counted(*args: Any, **kwargs: Any) -> Any:
                ledger.draws += 1
                return attr(*args, **kwargs)

            return counted
        return attr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SanitizedGenerator({self._ledger.label!r}, "
            f"draws={self._ledger.draws})"
        )


class DeterminismSanitizer:
    """Wraps labelled streams and snapshots their ledgers for comparison."""

    def __init__(self) -> None:
        self.ledgers: Dict[str, StreamLedger] = {}
        #: Last proxy wrapped per label (its live state feeds digests).
        self._proxies: Dict[str, SanitizedGenerator] = {}

    def wrap(
        self, rng: np.random.Generator, label: str
    ) -> np.random.Generator:
        """Observer hook: wrap one freshly-created stream.

        Re-creating the same label (e.g. ``child:0:100`` on a resumed
        run) reuses the existing ledger so draws keep accumulating under
        one account.
        """
        if isinstance(rng, SanitizedGenerator):
            return rng
        ledger = self.ledgers.get(label)
        if ledger is None:
            ledger = StreamLedger(label=label)
            self.ledgers[label] = ledger
        proxy = SanitizedGenerator(rng, ledger, self)
        self._proxies[label] = proxy
        return proxy  # type: ignore[return-value]

    def checkpoint(self) -> None:
        """Record a state-digest checkpoint on every live stream."""
        for label in sorted(self._proxies):
            proxy = self._proxies[label]
            self.ledgers[label].checkpoints.append(
                state_digest(proxy.bit_generator)
            )

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Current per-stream account: draws, checkpoints, final state."""
        result: Dict[str, Dict[str, Any]] = {}
        for label in sorted(self.ledgers):
            ledger = self.ledgers[label]
            proxy = self._proxies.get(label)
            result[label] = {
                "draws": ledger.draws,
                "checkpoints": list(ledger.checkpoints),
                "state": state_digest(proxy.bit_generator)
                if proxy is not None
                else None,
            }
        return result


def assert_ledgers_match(
    reference: Dict[str, Dict[str, Any]],
    candidate: Dict[str, Dict[str, Any]],
    context: str = "replay",
) -> None:
    """Raise :class:`DeterminismViolation` unless two snapshots agree.

    Every stream must carry the same draw count, state digest and
    checkpoint sequence in both snapshots.
    """
    problems: List[str] = []
    missing = sorted(set(reference) - set(candidate))
    extra = sorted(set(candidate) - set(reference))
    if missing:
        problems.append(f"streams missing from candidate: {', '.join(missing)}")
    if extra:
        problems.append(f"unexpected streams in candidate: {', '.join(extra)}")
    for label in sorted(set(reference) & set(candidate)):
        ref, cand = reference[label], candidate[label]
        if ref["state"] != cand["state"]:
            problems.append(
                f"{label}: final state {ref['state']} != {cand['state']}"
            )
        if ref["checkpoints"] != cand["checkpoints"]:
            problems.append(
                f"{label}: checkpoint sequence diverged "
                f"({len(ref['checkpoints'])} vs {len(cand['checkpoints'])} "
                "checkpoints)"
            )
        if ref["draws"] != cand["draws"]:
            problems.append(
                f"{label}: draw count {ref['draws']} != {cand['draws']}"
            )
    if problems:
        detail = "\n  ".join(problems)
        raise DeterminismViolation(
            f"RNG ledgers diverged across {context}:\n  {detail}"
        )


@contextmanager
def sanitized() -> Iterator[DeterminismSanitizer]:
    """Install a fresh sanitizer on the stream factories for one block.

    The previous observer (usually none) is restored on exit, so nested
    or sequential uses are independent.  Process-local: worker processes
    of a pool do not inherit the observer, which is why the sanitized
    CLI paths force serial execution.
    """
    sanitizer = DeterminismSanitizer()
    previous = rng_module._STREAM_OBSERVER
    rng_module.set_stream_observer(sanitizer.wrap)
    try:
        yield sanitizer
    finally:
        rng_module.set_stream_observer(previous)
