"""Outside-in instrumentation: wrap fogsched functions, record spans and counts.

`Patcher` replaces a function everywhere the fogsched package binds it (a
``from .placement import herafc_place`` in simkit is a second binding of the
same object) and puts every original back on exit.  `Tracer` makes the
wrappers: a span wrapper records (name, start, end, parent) per call in
compact arrays; a count wrapper only counts, for functions called hundreds
of thousands of times.  Self time of a span is its duration minus the
durations of its direct children (the process is single-threaded, so the
children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


def fogsched_modules() -> list:
    """The fogsched package and every one of its loaded submodules."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "fogsched" or name.startswith("fogsched."))]


class Patcher:
    """Context manager that wraps module functions and methods, then restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, make_wrapper) -> None:
        """Wrap `module.attr` in every fogsched namespace that binds it."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in fogsched_modules():
            names = [name for name, value in vars(mod).items()
                     if value is original]
            for name in names:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        """Wrap a plain method or classmethod defined on `cls`."""
        descriptor = cls.__dict__[attr]
        self._saved.append((cls, attr, descriptor))
        if isinstance(descriptor, classmethod):
            setattr(cls, attr, classmethod(make_wrapper(descriptor.__func__)))
        else:
            setattr(cls, attr, make_wrapper(descriptor))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, on_return=None):
        """Wrapper factory: record one span per call, then call
        `on_return(result, seconds)`."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = len(start)
                name_of.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(sid)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[sid] = clock()
                    stack.pop()
                if on_return is not None:
                    on_return(result, end[sid] - start[sid])
                return result
            return wrapper
        return make

    def count(self, name: str, on_return=None):
        """Wrapper factory: count calls under `name`, then call `on_return(result)`."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += 1
                if on_return is not None:
                    on_return(result)
                return result
            return wrapper
        return make

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_of[i]]]
            entry["calls"] += 1
            entry["s"] += duration[i]
            entry["self_s"] += duration[i] - child_time[i]
        return out

    def write_csv(self, path: str) -> None:
        """Write every span as `run_id,span,parent,name,start_s,end_s`."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run_id},{i},{self.parent[i]},"
                         f"{self.names[self.name_of[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
