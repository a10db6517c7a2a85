"""Spans and per-layer counts for the traced run.

A span is (id, parent, request, name, start_ns, end_ns).  Spans stay in
memory: the first MAX_SPANS are kept whole for the results file, and every
span, kept or not, is folded into a per-key aggregate (calls, busy ns,
errors, and a sum of one work quantity such as codewords), from which the
per-layer metrics are derived.  Aggregates are kept apart per phase
(``cold``, ``own`` or ``probe``) so that a workload's own calls are never
mixed with the probe round that fills in the layers it does not call.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

MAX_SPANS = 20000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.agg: dict[tuple[str, str], list] = {}
        self.phase = "own"
        self.request = 0
        self._stack: list[int] = []
        self._next = 1

    def wrap(
        self,
        fn: Callable,
        name: str,
        key: Optional[Callable[..., str]] = None,
        work: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """fn with a span around every call.

        key(args, result) names the aggregate the call is folded into
        (default: the span name; result is None when the call raised);
        work(result, *args) is the quantity summed there.
        """
        ns = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            t0 = ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = ns()
                self._stack.pop()
                self._record(sid, parent, name, t0, t1,
                             key(args, None) if key else name, 0, True)
                raise
            t1 = ns()
            self._stack.pop()
            amount = work(out, *args) if work else 0
            self._record(sid, parent, name, t0, t1,
                         key(args, out) if key else name, amount, False)
            return out

        traced.__wrapped__ = fn
        return traced

    def _record(self, sid, parent, name, t0, t1, key, amount, error) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, self.request, name, t0, t1))
        else:
            self.dropped += 1
        entry = self.agg.get((self.phase, key))
        if entry is None:
            entry = self.agg[(self.phase, key)] = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += amount
        entry[3] += error

    def layer(self, key: str, phases: tuple[str, ...] = ("own", "probe")) -> Optional[list]:
        """[calls, busy_ns, work, errors] for key from the first phase that
        has it, or None."""
        for phase in phases:
            entry = self.agg.get((phase, key))
            if entry is not None:
                return entry
        return None

    def dump(self) -> dict[str, Any]:
        return {
            "spans_fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "layers": [
                {"phase": phase, "key": key, "calls": e[0], "busy_ns": e[1],
                 "work": e[2], "errors": e[3]}
                for (phase, key), e in sorted(self.agg.items())
            ],
        }


def patch(tracer: Tracer, module, attr: str, name: str, **kw) -> None:
    """Route calls that the program makes through module.attr via a span.

    The package binds names across modules at import, so a call made inside
    the program is seen only by replacing the binding the caller looks up.
    Used in the traced run only; the untraced run never patches.
    """
    setattr(module, attr, tracer.wrap(getattr(module, attr), name, **kw))
