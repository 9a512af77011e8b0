"""In-memory spans recorded around the program's layer entry points.

The traced benchmark run installs a :class:`Tracer` and patches each
layer's public function *where its caller looks it up* (a class
attribute for methods, the calling module's global for functions the
caller imported by name).  Every patched call records one span: name,
tag, start, end, parent span and request id.  Spans stay in memory
until the traced run ends; :func:`aggregate` then folds them into
per-(name, tag) call counts, inclusive time and self time.

Nothing here touches the program's own recorder: the measured runs keep
the default ``NullRecorder`` and are never patched.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    """One recorded call.  ``parent`` is an index into the span list (-1 = root)."""

    __slots__ = ("name", "tag", "start", "end", "parent", "request", "counts")

    def __init__(
        self, name: str, tag: str, start: float, parent: int, request: str
    ) -> None:
        self.name = name
        self.tag = tag
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.counts: Optional[Dict[str, float]] = None

    def add(self, key: str, value: float) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0.0) + value

    def row(self) -> List[Any]:
        return [
            self.name, self.tag, self.start, self.end, self.parent,
            self.request, self.counts or {},
        ]


class Tracer:
    """Span stack for one process.  Records only inside a :meth:`request`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request: Optional[str] = None

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Attribute every span opened inside the block to ``request_id``."""
        if self._request is not None:
            raise RuntimeError(f"request {self._request!r} is still open")
        self._request = request_id
        try:
            yield
        finally:
            self._request = None

    def detach(self) -> None:
        """Stop recording in this process (registered for forked children)."""
        self._request = None
        self._stack = []

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else ""

    def open(self, name: str, tag: str = "") -> Optional[Span]:
        if self._request is None:
            return None
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, tag, self.clock(), parent, self._request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = self.clock()
        self._stack.pop()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (called once, when tracing ends).

        The first line names the fields; each further line is one span.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": list(Span.__slots__)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.row(), separators=(",", ":")) + "\n")


@dataclass(frozen=True)
class Probe:
    """One patch point.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``tag``
    derives a span tag from the parent span's name and the call's
    arguments; ``after`` adds counts to the span from the call's result.
    """

    target: str
    name: str
    tag: Optional[Callable[[str, tuple, dict], str]] = None
    after: Optional[Callable[[Span, Any, tuple, dict], None]] = None


def _wrap(tracer: Tracer, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tag = probe.tag(tracer.parent_name(), args, kwargs) if probe.tag else ""
        span = tracer.open(probe.name, tag)
        try:
            result = fn(*args, **kwargs)
            if span is not None and probe.after is not None:
                probe.after(span, result, args, kwargs)
            return result
        finally:
            tracer.close(span)

    return wrapper


@contextmanager
def instrument(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[None]:
    """Patch every probe's target for the duration of the block."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for probe in probes:
            module_name, _, path = probe.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched: Any = classmethod(_wrap(tracer, probe, original.__func__))
            else:
                patched = _wrap(tracer, probe, original)
            setattr(owner, attr, patched)
            restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


@dataclass
class Stat:
    """Aggregate of the spans sharing one (name, tag)."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


def _covered(start: float, end: float, children: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    covered = 0.0
    reach = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, reach)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
        reach = max(reach, min(child_end, end))
    return covered


def aggregate(
    spans: Sequence[Span], requests: Optional[Callable[[str], bool]] = None
) -> Dict[Tuple[str, str], Stat]:
    """Per-(name, tag) calls, inclusive time and self time.

    A span's self time is its duration minus the part of that interval
    its child spans cover.  ``requests`` keeps only spans whose request
    id it accepts (children are still subtracted from kept parents).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    stats: Dict[Tuple[str, str], Stat] = {}
    for index, span in enumerate(spans):
        if requests is not None and not requests(span.request):
            continue
        stat = stats.setdefault((span.name, span.tag), Stat())
        duration = span.end - span.start
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - _covered(
            span.start, span.end, children.get(index, [])
        )
        for key, value in (span.counts or {}).items():
            stat.counts[key] = stat.counts.get(key, 0.0) + value
    return stats


def self_time_by_name(stats: Dict[Tuple[str, str], Stat]) -> Dict[str, float]:
    """Self time summed over tags, keyed by span name."""
    out: Dict[str, float] = {}
    for (name, _tag), stat in stats.items():
        out[name] = out.get(name, 0.0) + stat.self_s
    return out
