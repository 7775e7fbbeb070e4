"""In-memory span recorder for the traced benchmark run.

Spans are recorded at layer boundaries from outside the library: the tracer
replaces the module-level names through which one splab layer calls the next
(``splab.cli.classify_equilibrium``, ``splab.equilibrium.build_wtp_schedule``
and so on) with wrappers, and the benchmark opens spans around its own direct
calls.  Nothing under ``src/`` is changed; ``uninstall`` puts the original
names back.

A span is (name, start, end, parent, item): ``item`` is the id of the request
that caused it (one CLI call, one ``thresholds()`` call or one audited point).
Self time is a span's duration minus the part of its interval that its child
spans cover, so the self times of every span under a root add up to the
root's duration exactly when the spans nest.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

ROOT_SPAN = "bench.pass"


class Tracer:
    """Spans and counters for the passes run while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.item = -1
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._item = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._item.append(self.item)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    @contextmanager
    def span(self, name: str):
        """Span around a block; records nothing while the tracer is off."""
        if not self.active:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        span_name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a function that records a span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = original
        self.replace(owner, attr, traced)

    def count_calls(self, owner: object, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` with a function that only counts calls."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        self.replace(owner, attr, counted)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until ``uninstall``."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def passes(self) -> list[dict]:
        """Per root span: its duration, self time and span count by name.

        Raises RuntimeError if a span is still open, or if the self times of
        a pass do not add up to its root's duration (spans that overlap or
        leave their parent's interval).
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        n = len(self._start)
        start, end, parent, name = self._start, self._end, self._parent, self._name
        covered = [0] * n
        cover_end = list(start)
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], cover_end[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                cover_end[p] = hi
        out: list[dict] = []
        current = None
        for i in range(n):
            if parent[i] < 0:
                current = {
                    "root_ns": end[i] - start[i],
                    "self_ns": Counter(),
                    "calls": Counter(),
                }
                out.append(current)
            label = self.names[name[i]]
            current["self_ns"][label] += end[i] - start[i] - covered[i]
            current["calls"][label] += 1
        for index, record in enumerate(out):
            total = sum(record["self_ns"].values())
            if total != record["root_ns"]:
                raise RuntimeError(
                    f"pass {index}: self times add to {total} ns, root span is "
                    f"{record['root_ns']} ns"
                )
        return out

    def span_count(self) -> int:
        return len(self._start)

    def write(self, path) -> None:
        """Write every span as gzipped JSON columns (times relative to the first)."""
        base = self._start[0] if len(self._start) else 0
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent", "item"],
            "names": self.names,
            "name": self._name.tolist(),
            "start_ns": [t - base for t in self._start],
            "end_ns": [t - base for t in self._end],
            "parent": self._parent.tolist(),
            "item": self._item.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
