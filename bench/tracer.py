"""In-memory spans around the public calls the CLI makes into each module.

The tracer patches module attributes for the duration of one traced run and
restores them afterwards. Wrappers pass arguments and results through
unchanged; a name the program no longer has is recorded as missing, and the
metrics that need it are reported absent.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # One [name, parent index, start, end] per call, in start order.
        self.spans = []
        self.counts = defaultdict(int)
        self.missing = set()
        self._stack = []
        self._patched = []

    def span(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` may add counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None, wrapper=None):
        """Replace `owner.attr` with a traced version for this run."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        self._patched.append((owner, attr, original))
        fn = wrapper(original) if wrapper is not None else original
        setattr(owner, attr, self.span(name, fn, after))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self):
        """({name: total seconds}, {name: self seconds}, {name: calls},
        {name: [durations]}) over all spans; self time excludes the time
        covered by child spans."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        durations = defaultdict(list)
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            durations[name].append(end - start)
        return total, own, calls, durations

    def current_root(self) -> int:
        """Index of the outermost span still open."""
        return self._stack[0]

    def root_of(self, index: int) -> str:
        """Name of the outermost span enclosing span `index`."""
        while self.spans[index][1] >= 0:
            index = self.spans[index][1]
        return self.spans[index][0]
