"""In-memory span tracer that wraps public mirrorbreak functions from outside.

The tracer replaces a module attribute with a wrapper that records one span
per call: name, start, end, the index of the enclosing span, the instance id
set by the caller, and optional attributes computed from the call's
arguments and result. Spans stay in memory until the caller writes them.

Wrapping must target the namespace the caller looks the name up in. The
driver does ``from .chains import absorb_gate``, so the span for the
driver's calls is installed on ``mirrorbreak.driver.absorb_gate``, not on
``mirrorbreak.chains``.

Modules are taken with ``importlib.import_module``: ``import mirrorbreak.unswap
as U`` binds the *function* ``unswap`` that ``mirrorbreak/__init__.py``
re-exports under the same name as its submodule, so patching ``U`` would
patch a function object and wrap nothing.

The program is single-threaded at the Python level, so spans nest strictly
and a span's children never overlap; its self time is its duration minus
the sum of its children's durations.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# span record layout: [name, start, end, parent, instance, attrs]
NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller's own code."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, module_name: str, attr: str, name: str, inspect=None) -> None:
        """Replace ``module_name.attr`` with a recording wrapper.

        ``inspect(args, kwargs, result)`` may return a dict of attributes to
        store on the span; it runs after the span has closed, so its cost is
        not charged to the wrapped call.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        if not callable(original):
            raise TypeError(f"{module_name}.{attr} is not callable")

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if inspect is not None:
                self.spans[idx][ATTRS] = inspect(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> list[str]:
        """Put every wrapped name back; returns the names that did not
        come back to their original object (empty on success)."""
        broken = []
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                broken.append(f"{module.__name__}.{attr}")
        return broken

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, sink) -> None:
        """Write spans to a text sink as newline-delimited JSON."""
        for i, s in enumerate(self.spans):
            sink.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "instance": s[INSTANCE], "attrs": s[ATTRS],
            }, separators=(",", ":")) + "\n")
