"""Spans and counts recorded from outside the ionwire package.

Each traced function is replaced at the name its callers look up, so the
package itself is not modified. Spans nest by call order; a span's self
time is its duration minus the durations of its direct children.
"""

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    """Records spans in memory and per-name counters for one pass."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []   # (module, attribute, original, wrapper)

    def add(self, module, attr, name, count=None):
        """Trace ``module.attr`` as span ``name``.

        ``count(counts, bound_arguments, result)`` adds work counters.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            self.counts[name + "_calls"] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        self._patches.append((module, attr, original, traced))

    def install(self):
        for module, attr, _original, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original, _traced in self._patches:
            setattr(module, attr, original)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def totals(self):
        """Per span name: (inclusive seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            inclusive[name] += end - start
            own[name] += end - start - children
        return inclusive, own
