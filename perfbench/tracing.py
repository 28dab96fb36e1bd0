"""In-memory span recorder that wraps public calls from outside the program.

:class:`Tracer` replaces a method on its class with a wrapper that records
one :class:`~benchstats.Span` per call (name, start, end, parent span,
trace id) and restores the original on :meth:`Tracer.uninstall`.  Spans
stay in memory until the caller writes them out.  Parents are tracked per
thread, so a call made on another thread starts a new root.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import time
from typing import Callable, Counter, List, Optional, Tuple

from benchstats import Span

#: ``hook(counters, args, result)`` — updates counts after a traced call.
CountHook = Callable[[Counter, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = collections.Counter()
        #: Stamped on every span; the benchmark sets it to the sizing
        #: run's seed.
        self.trace_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[type, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, self.trace_id)
            )

    def wrap(
        self, owner: type, attribute: str, name: str, hook: Optional[CountHook] = None
    ) -> None:
        """Trace every call of ``owner.attribute`` as a span ``name``."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "trace": span.trace_id,
                        }
                    )
                    + "\n"
                )
