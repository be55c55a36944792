"""In-process spans for the traced run.

The traced run imports the program and wraps the public calls of each
layer from here: the program's own source is never edited. A span
records its name, layer, start, end, parent span, thread and a group id
shared by one request or campaign point. Spans stay in memory and are
written out when the run ends.

Strategy callbacks fire once per message delivery (millions per run),
so they are not spans: each outermost callback adds its duration to an
aggregate on the enclosing span (the executor run), which keeps the
overhead to two clock reads and the summary exact — the aggregate is
subtracted from that span's self time like a child span would be.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "group", "thread", "agg")

    def __init__(self, span_id, name, layer, parent, group, thread):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.group = group
        self.thread = thread
        self.agg = None
        self.start = _clock()
        self.end = None


class Tracer:
    """Span store plus the patch table that installs and removes the
    layer wrappers."""

    def __init__(self):
        self.spans = []
        self.samples = defaultdict(list)
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._wrapped_classes = set()

    # -- spans ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name, layer, group=None, parent=None):
        """Open a span on this thread's stack (child of its top span
        unless ``parent`` names another)."""
        top = self.current()
        if parent is None and top is not None:
            parent = top.id
        if group is None and top is not None:
            group = top.group
        span = Span(next(self._ids), name, layer, parent, group, threading.get_ident())
        self.spans.append(span)
        self._stack().append(span)
        return span

    def end(self, span):
        span.end = _clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def detached(self, name, layer, group=None):
        """A span that is not pushed on any stack: it ends on another
        thread (a pool chunk from submit to its result callback)."""
        top = self.current()
        span = Span(
            next(self._ids), name, layer, top.id if top else None,
            group if group is not None else (top.group if top else None),
            threading.get_ident(),
        )
        self.spans.append(span)
        return span

    @staticmethod
    def close(span):
        span.end = _clock()

    def sample(self, name, value):
        self.samples[name].append(value)

    def count(self, name, value=1):
        self.counts[name] += value

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def restore(self):
        """Remove every wrapper, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._wrapped_classes.clear()

    def wrap(self, owner, attr, layer, name=None, group=None, after=None, parent=None):
        """Replace ``owner.attr`` with a spanned call. ``group(args)``
        names the span's group, ``parent(args)`` its parent span id when
        the caller is on another thread (an HTTP client), and
        ``after(span, args, result)`` records counts and samples from
        the call's result."""
        func = getattr(owner, attr)
        span_name = name or f"{layer}.{attr}"
        tracer = self

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            span = tracer.begin(
                span_name, layer,
                group(args) if group else None,
                parent(args) if parent else None,
            )
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, result)
            return result

        self._patch(owner, attr, spanned)

    def wrap_generator(self, owner, attr, layer, name):
        """Wrap a function returning an iterator so that every ``next``
        it serves is a span (the time the consumer spent inside it)."""
        func = getattr(owner, attr)
        tracer = self

        def stepped(iterator):
            while True:
                span = tracer.begin(name, layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                yield item

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            return stepped(iter(func(*args, **kwargs)))

        self._patch(owner, attr, spanned)

    def wrap_callbacks(self, cls, attrs, layer):
        """Aggregate ``cls``'s callbacks into the enclosing span: counts
        and summed duration of the outermost call only, so a strategy
        delegating to another is not counted twice."""
        if cls in self._wrapped_classes:
            return
        self._wrapped_classes.add(cls)
        local = self._local
        tracer = self
        for attr in attrs:
            func = getattr(cls, attr)
            func = getattr(func, "__wrapped__", func)

            @functools.wraps(func)
            def aggregated(*args, _func=func):
                if getattr(local, "inside", False):
                    return _func(*args)
                local.inside = True
                started = _clock()
                try:
                    return _func(*args)
                finally:
                    elapsed = _clock() - started
                    local.inside = False
                    top = tracer.current()
                    if top is not None:
                        if top.agg is None:
                            top.agg = {}
                        entry = top.agg.get(layer)
                        if entry is None:
                            top.agg[layer] = [1, elapsed]
                        else:
                            entry[0] += 1
                            entry[1] += elapsed

            self._patch(cls, attr, aggregated)

    # -- output --------------------------------------------------------

    def dump(self, path):
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``
        or Perfetto open it)."""
        events = []
        for span in self.spans:
            if span.end is None:
                continue
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": span.start * 1e6, "dur": (span.end - span.start) * 1e6,
                "pid": 1, "tid": span.thread,
                "args": {"id": span.id, "parent": span.parent, "group": span.group,
                         **({"agg": span.agg} if span.agg else {})},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus the part of it
    its children cover, plus the aggregated callback layers."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.end is not None:
            children[span.parent].append((span.start, span.end))
    layers = defaultdict(float)
    for span in spans:
        if span.end is None:
            continue
        own = span.end - span.start
        inner = [(max(s, span.start), min(e, span.end)) for s, e in children.get(span.id, ())]
        covered = union_length([(s, e) for s, e in inner if e > s])
        aggregated = sum(total for _, total in (span.agg or {}).values())
        layers[span.layer] += max(0.0, own - covered - aggregated)
        for layer, (_, total) in (span.agg or {}).items():
            layers[layer] += total
    return dict(layers)
