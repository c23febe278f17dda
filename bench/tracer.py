'''Outside-in tracing: spans around the package's public functions.

The tracer replaces a function at the module attribute where callers look
it up (for example `pipeline.pairwise_score_table`, which `fit_model` and
`score_grid` resolve through the `pipeline` module's globals), records one
span per call with the span that caused it, and puts the original back on
uninstall. Nothing in the package changes. A target that no longer exists
is reported as absent instead of failing the run.
'''

import contextlib
import functools
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        '''Duration minus the time covered by direct child spans.'''
        return self.duration - self.child_s


class Tracer:
    '''Records spans in memory; one span stack per thread.

    Args:
        targets: Iterable of (module, attribute, span name, counter).
            counter is None or a function (args, kwargs) -> dict of counts,
            evaluated after the call so its cost stays outside the span.
    '''

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.absent = []
        self._local = threading.local()
        self._saved = []

    def install(self):
        self.absent = []
        for module, attr, name, counter in self.targets:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    @contextlib.contextmanager
    def span(self, name):
        '''A span around a block of the caller's own code.'''
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
                if counter is not None:
                    try:
                        span.counts = counter(args, kwargs)
                    except (TypeError, ValueError, IndexError, KeyError,
                            AttributeError):
                        # a changed signature loses the count, not the run
                        span.counts = None

        return traced

    def mark(self) -> int:
        return len(self.spans)


def totals(spans, name) -> tuple:
    '''(summed self time, summed counts) for one span name; the self time
    is None when no such span was recorded.'''
    self_s, counts, seen = 0.0, {}, False
    for span in spans:
        if span.name != name:
            continue
        seen = True
        self_s += span.self_s
        for key, value in (span.counts or {}).items():
            counts[key] = counts.get(key, 0) + value
    return (self_s if seen else None), counts
