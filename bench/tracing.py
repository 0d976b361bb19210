"""In-memory spans recorded around calls into bruhatmc's public functions.

Nothing here changes the program: a traced run replaces a public function
*where the calling module references it* (for example
``bruhatmc.cli.estimate_comparability``) with a wrapper that records a span,
and puts the original back afterwards.  Spans stay in memory and are written
out once, when the run ends.  Worker processes are not traced: a span around
``run_blocks`` covers the pool as a whole.
"""
from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable, args: tuple, describe: Callable | None = None, kwargs=None):
        """Run fn(*args, **kwargs) inside a span; ``describe(args, result)`` adds attributes."""
        with self.span(name) as rec:
            result = fn(*args, **(kwargs or {}))
            if describe is not None:
                rec["attrs"].update(describe(args, result))
        return result

    @contextlib.contextmanager
    def patched(self, points):
        """Wrap each (owner, attribute, span name, describe) for the duration."""
        saved = []
        try:
            for owner, attr, name, describe in points:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, describe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrapper(self, name, original, describe):
        def traced(*args, **kwargs):
            return self.call(name, original, args, describe, kwargs)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """Span duration minus the time its direct children cover."""
    return duration(span) - sum(duration(s) for s in spans if s["parent"] == span["id"])
