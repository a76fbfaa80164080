"""Spans around the public functions of the returntime layers.

`Tracer.install()` replaces each public function of the traced layer modules
with a wrapper that records a span (name, start, end, parent). It does so in
every returntime namespace that holds the function, so a function imported by
name, such as `experiment.build_sequences` or `rnnsm.integrate`, is wrapped
where it is called. Spans are named `<defining module>.<function>`, kept in
memory, and written out with `write()`. `Tracer.uninstall()` puts every
original function back. Nothing under `src/` changes.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "returntime"
LAYERS = (
    "data", "features", "net", "rnnsm", "quadrature",
    "experiment", "baselines", "cox", "metrics", "synth",
)


def _count_integrand_calls(tracer: "Tracer", args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    f = args[0]

    def counted(x):
        tracer.counts["quadrature.integrate.evals"] += 1
        return f(x)

    return (counted, *args[1:]), kwargs


def _count_lanes(tracer: "Tracer", batch) -> None:
    tracer.counts["features.pad_batch.real_steps"] += int(batch.lengths.sum())
    tracer.counts["features.pad_batch.lanes"] += int(batch.targets.size)


def _count_sessions(tracer: "Tracer", result) -> None:
    tracer.counts["data.read_sessions_jsonl.sessions"] += len(result[0])


# Counts taken at a layer boundary, so ratios are measured where the work is.
_BEFORE = {"quadrature.integrate": _count_integrand_calls}
_AFTER = {
    "features.pad_batch": _count_lanes,
    "data.read_sessions_jsonl": _count_sessions,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, name: str):
        before, after = _BEFORE.get(name), _AFTER.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        layer_modules = {f"{PACKAGE}.{layer}" for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for namespace in namespaces():
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in layer_modules:
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                setattr(namespace, attr, wrappers[id(obj)])
                self._patched.append((namespace, attr, obj))

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; return those that are not restored."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        leftovers = [
            f"{namespace.__name__}.{attr}"
            for namespace, attr, original in self._patched
            if getattr(namespace, attr) is not original
        ]
        self._patched = []
        return leftovers

    @contextlib.contextmanager
    def active(self, problems: list[str]):
        """Install for the body; append any attribute left unrestored to problems."""
        self.install()
        try:
            yield self
        finally:
            problems.extend(f"not restored after tracing: {a}" for a in self.uninstall())

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time), self time being the span minus its children."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += (end - start) - children[i]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def covered_seconds(self, roots: set[int]) -> float:
        """Time under layer spans whose parent is one of the given spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent in roots)

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin, "parent": parent,
                }) + "\n")


def namespaces() -> list:
    """The loaded returntime package and its modules."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
