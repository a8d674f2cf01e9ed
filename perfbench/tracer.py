"""In-memory spans recorded from the benchmark's own code.

The program under test is never edited. In a traced run the benchmark rebinds
public functions on linkform's module objects (``wrap``), so a call from one
module into another passes through a span; ``restore`` puts the originals
back. Each span records its name, start, end, the span that caused it and the
identifier of the request (one workload iteration) it belongs to.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.totals: dict[str, list[float]] = {}
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._request = 0
        self._next_span = 0

    def new_request(self) -> None:
        """Later spans share a fresh request identifier."""
        self._request += 1

    def reset_totals(self) -> None:
        self.totals = {}

    def _open(self, name: str) -> None:
        self._next_span += 1
        self._stack.append([name, self._next_span, perf_counter(), 0.0])

    def _close(self, keep: bool) -> None:
        end = perf_counter()
        name, span_id, start, child_s = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if keep:
            parent = self._stack[-1][1] if self._stack else 0
            self.spans.append((self._request, span_id, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close(True)

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        keep: bool = True,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Rebind ``module.attr`` to a spanned call; ``observe`` sees each result after the span ends.

        ``keep=False`` aggregates the calls into the totals without storing one
        span each, for leaf functions called hundreds of thousands of times.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(keep)
            if observe is not None:
                observe(result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        """Span duration minus the time its child spans cover."""
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for request, span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"request": request, "span": span_id, "parent": parent,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
