"""Spans around the engine's layers, recorded from outside the engine.

Each traced function is replaced, while traced passes run, by a
wrapper stored on the attribute the caller looks up: `simnet.route` is looked
up in `simnet`'s globals by `Scheduler.send`, and `check_assignment` is bound
in `formation`'s namespace by its `from .rules_engine import`, so that is
where it is wrapped. Spans stay in memory and are folded into per-name
totals when the pass ends; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

# on_result(args, result, duration_ns) lets a wrapper count outcomes where the
# work happens, without a second span.
OnResult = Callable[[tuple, Any, int], None]


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1), in call order
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.replaying = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple], str],
        on_result: OnResult | None = None,
    ) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if on_result is not None:
                on_result(args, result, end - start)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def drain(self) -> dict[str, list[int]]:
        """Fold the recorded spans into {name: [calls, total_ns, self_ns]}
        and forget them."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        totals: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            label, start, end, _ = span
            entry = totals.setdefault(label, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[i]
        self.spans.clear()
        return totals
