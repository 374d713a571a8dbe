"""In-memory span recorder that wraps module-level functions of the program.

The program is not edited: ``Tracer.wrap`` replaces a module attribute with a
recording wrapper, and ``Tracer.unwrap_all`` puts every original back.  The
program reaches its layers through module attributes (``linalg.sym_eig_batch``,
``network._batched_gauss`` ...), so a wrapper installed on the module that
makes the call sees every call.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  Spans stay in memory until ``write``.  A
span's self time is its duration minus the durations of its direct children;
the calls are single-threaded and strictly nested, so the children never
overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, observe=None):
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments that
        returns it.  ``observe(result, *args)`` runs after the span has closed,
        to read counts from the return value.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(self.spans)
            record = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result, *args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in recording order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self seconds, number of calls)."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (span_name, *_), own in zip(self.spans, self.self_times()):
            out[span_name][0] += own
            out[span_name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def coverage(self, roots: tuple[str, ...]) -> float:
        """Self times summed over the subtrees of the named spans, divided by
        their wall time.  Well-formed nesting gives 1.0; a child that escapes
        its parent's interval, or a span left open, moves it away from 1.
        """
        own = self.self_times()
        root_of = [-1] * len(self.spans)
        wall = 0.0
        covered = 0.0
        for i, (span_name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                if start < p_start or end > p_end:
                    return float("nan")
                root_of[i] = root_of[parent]
            if root_of[i] < 0 and span_name in roots:
                root_of[i] = i
                wall += end - start
            if root_of[i] >= 0:
                covered += own[i]
        return covered / wall if wall > 0 else float("nan")

    def write(self, path, header: dict):
        """Write the header and every span (times in ms from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_name, start, end, parent in self.spans:
                fh.write(
                    json.dumps([span_name, round((start - origin) * 1e3, 6),
                                round((end - start) * 1e3, 6), parent]) + "\n"
                )
