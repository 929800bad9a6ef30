"""Spans, self time and sample statistics for the tracker benchmark.

Tracing works from outside the program: :meth:`Tracer.patch` swaps public
functions of the tracker for wrappers that record a span around each call
and puts the originals back afterwards.  Untraced runs execute the
unmodified functions, so tracing costs nothing when it is off.

A span is ``[name, start_ns, end_ns, parent, root]``: ``parent`` is the
index of the enclosing span (-1 for none) and ``root`` is the id shared by
every span of one frame or step.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter_ns

MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it


def percentile(values, q):
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL` samples lie
    beyond the rank, so a reported tail is never set by a handful of
    samples.
    """
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_TAIL}")
    return sorted(values)[rank - 1]


def min_samples(q):
    """Smallest sample count for which :func:`percentile` accepts ``q``."""
    n = MIN_TAIL + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_TAIL:
        n += 1
    return n


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._root = -1

    def wrap(self, fn, name, root=False):
        """Return ``fn`` recording a span called ``name`` around each call.

        A ``root`` span starts a new frame or step id.
        """
        spans = self.spans
        open_ = self._open

        def traced(*args, **kwargs):
            if root:
                self._root += 1
            record = [name, 0, 0, open_[-1] if open_ else -1, self._root]
            open_.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()

        return traced

    @contextmanager
    def patch(self, targets):
        """Wrap ``(owner, attribute, span name, is_root)`` targets for a block."""
        saved = []
        try:
            for owner, attr, name, root in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, root))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of a span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans):
    """Totals by span name over every root: inclusive ns, self ns and calls.

    Returns ``(by_name, roots)`` where ``by_name`` maps a name to
    ``{"total_ns", "self_ns", "calls"}`` and ``roots`` lists the duration of
    each root span (frame or step) in ns.
    """
    by_name = defaultdict(lambda: {"total_ns": 0, "self_ns": 0, "calls": 0})
    roots = []
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        row = by_name[name]
        row["total_ns"] += end - start
        row["self_ns"] += own
        row["calls"] += 1
        if parent < 0:
            roots.append(end - start)
    return dict(by_name), roots


def dump(spans):
    """JSON-ready form of ``spans`` with the names stored once."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    return {"fields": ["name", "start_ns", "end_ns", "parent", "root"],
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in spans]}
