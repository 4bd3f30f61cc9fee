"""In-memory span tracer that wraps a layer's public functions from outside.

The benchmark changes no program code: a traced run replaces each
layer's public function (a class attribute or a module attribute, at
the place its callers look it up) with a wrapper that records one span
per call, and restores the originals afterwards.  A span is
``[name, start, end, parent, attrs]`` with ``perf_counter`` times; the
parent comes from a context variable, so nesting is right for plain
calls and for concurrent asyncio tasks alike.  Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, ATTRS = range(5)

#: Spans named ``api.*`` time the benchmark's own calls into the public
#: API; they give children a parent but are not a layer, so their self
#: time counts as unattributed.
API_PREFIX = "api."


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._current.get(), {}]
        self.spans.append(record)
        token = self._current.set(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._current.reset(token)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Trace ``owner.attr`` as span ``name`` until :meth:`unwrap_all`.

        ``attrs(args, kwargs, result)`` may return extra span fields
        (rows processed, bytes written).
        """
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                with self.span(name) as record:
                    result = await original(*args, **kwargs)
                    if attrs is not None:
                        record[ATTRS].update(attrs(args, kwargs, result))
                    return result

        else:

            def wrapper(*args, **kwargs):
                with self.span(name) as record:
                    result = original(*args, **kwargs)
                    if attrs is not None:
                        record[ATTRS].update(attrs(args, kwargs, result))
                    return result

        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, table) -> None:
        """Wrap every ``(module, class or None, attr, span, attrs)`` row."""
        for module_name, class_name, attr, name, attrs in table:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self.wrap(owner, attr, name, attrs)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, attrs in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, **attrs,
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    result = []
    for index, record in enumerate(spans):
        covered, reach = 0.0, record[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, record[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(record[END] - record[START] - covered)
    return result


def summarise(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``calls``, ``self_s``, ``total_s``, ``durations``
    and the summed numeric ``attrs``."""
    out: dict[str, dict] = {}
    for record, own in zip(spans, self_times(spans)):
        entry = out.setdefault(record[NAME], {
            "calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": [],
        })
        entry["calls"] += 1
        entry["self_s"] += own
        duration = record[END] - record[START]
        entry["total_s"] += duration
        entry["durations"].append(duration)
        for key, value in record[ATTRS].items():
            entry[key] = entry.get(key, 0) + value
    return out


def unattributed_share(spans: list[list], wall_s: float) -> float:
    """Share of ``wall_s`` not covered by any layer's self time."""
    attributed = sum(
        own for record, own in zip(spans, self_times(spans))
        if not record[NAME].startswith(API_PREFIX)
    )
    return max(0.0, 1.0 - attributed / wall_s) if wall_s > 0 else 0.0
