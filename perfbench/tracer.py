"""Call counts and self time for the public functions of finsite's layers.

The benchmark wraps every public module-level function of each layer module
from the outside; finsite itself is not modified.  A span is one call, or for
a generator function one resumption, so the time a generator spends producing
items is charged to it and not to its consumer.  Self time is a span's
duration minus the durations of the spans it encloses.

Because finsite modules import each other's functions with
``from .x import y``, a wrapper is installed in every finsite module
namespace (and module-level dict, such as the CLI's decider table) that holds
the original function.  The benchmark installs a tracer only in a process
that exits after the traced pass, so wrappers are never removed.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

LAYERS = (
    "fincat",
    "sieves",
    "fibration",
    "presheaf",
    "deciders",
    "limits",
    "generate",
    "experiments",
    "bundles",
    "cli",
    "corpus",
)


class Tracer:
    def __init__(self):
        # "<layer>.<function>" -> [calls, self_ns]
        self.stats: dict[str, list[int]] = {}
        self.active = False
        # Open spans, innermost last: [start_ns, ns spent in child spans]
        self.stack: list[list[int]] = []

    def install(self) -> None:
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules["finsite." + layer]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap("{}.{}".format(layer, name), obj))
        for modname, module in list(sys.modules.items()):
            if modname != "finsite" and not modname.startswith("finsite."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                self._patch(namespace, key, value, wrapped)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._patch(value, k, v, wrapped)

    @staticmethod
    def _patch(table: dict, key, value, wrapped) -> None:
        hit = wrapped.get(id(value))
        if hit is not None and hit[0] is value:
            table[key] = hit[1]

    def _close(self, rec: list[int], frame: list[int]) -> None:
        stack = self.stack
        stack.pop()
        duration = perf_counter_ns() - frame[0]
        rec[1] += duration - frame[1]
        if stack:
            stack[-1][1] += duration

    def _wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0])
        stack = self.stack
        close = self._close

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not self.active:
                    return (yield from inner)
                rec[0] += 1
                while True:
                    frame = [perf_counter_ns(), 0]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close(rec, frame)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec[0] += 1
            frame = [perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec, frame)

        return wrapper
