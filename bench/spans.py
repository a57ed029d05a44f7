"""Layer spans for the traced benchmark run.

A `Tracer` replaces functions on the module attributes that callers look
up (for example `classify.corners` and `theta.corners`), so that calls
between layers are recorded as well as the benchmark's own calls.  Spans
are aggregated per name as they close instead of being stored one by one:
a traced rank-6 sweep opens close to a million of them.

Self time is a span's duration minus the time its direct child spans
cover.  A generator function is traced one resumption at a time, so its
self time excludes the consumer's work between items.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from time import perf_counter


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "errors", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.hits = 0


class Tracer:
    """Aggregated spans keyed by layer name.

    `edges[(parent, child)]` counts calls of `child` made directly under
    an open `parent` span, and `edge_errors` the ones that raised, so
    ratios such as rejects per `construct` during generation are measured
    where the work happens.  Forked pool workers inherit the wrappers but
    record nothing: workers are not traced.
    """

    def __init__(self):
        self.layers: dict = {}
        self.edges: Counter = Counter()
        self.edge_errors: Counter = Counter()
        self._stack: list = []  # [name, child seconds] per open span
        self._patched: list = []
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def _close(self, name, start, frame, failed):
        dur = perf_counter() - start
        stack = self._stack
        stack.pop()
        st = self.layers.get(name)
        if st is None:
            st = self.layers[name] = LayerStats()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - frame[1]
        parent = stack[-1][0] if stack else None
        self.edges[parent, name] += 1
        if failed:
            st.errors += 1
            self.edge_errors[parent, name] += 1
        if stack:
            stack[-1][1] += dur

    def wrap(self, name, fn, hit=None):
        """Span around each call; `hit(result)` marks useful outcomes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, start, frame, True)
                raise
            self._close(name, start, frame, False)
            if hit is not None and hit(result):
                self.layers[name].hits += 1
            return result

        return traced

    def wrap_generator(self, name, fn):
        """One span per resumption; `hits` counts the items yielded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.enabled:
                yield from it
                return
            while True:
                frame = [name, 0.0]
                self._stack.append(frame)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._close(name, start, frame, False)
                    return
                except BaseException:
                    self._close(name, start, frame, True)
                    raise
                self._close(name, start, frame, False)
                self.layers[name].hits += 1
                yield item

        return traced

    def patch(self, module, attr, name, *, generator=False, hit=None):
        original = getattr(module, attr)
        if generator:
            wrapped = self.wrap_generator(name, original)
        else:
            wrapped = self.wrap(name, original, hit)
        setattr(module, attr, wrapped)
        self._patched.append((module, attr, original))

    def unpatch(self):
        """Put every original function back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def stats(self, name) -> LayerStats:
        return self.layers.get(name) or LayerStats()
