"""Outside-in span tracing of the landmark_coverage layers.

The tracer wraps the public functions of the package's layer modules (and
``GeneSpace.decode``) from outside: every module attribute bound to a
wrapped function object is rebound to the wrapper, because the modules
import each other's functions by name.  Nothing under ``src/`` changes.

Each call records a span ``[name, start, end, parent, thread]``.  Parents
come from a per-thread stack, so spans opened by worker threads never
claim a span of another thread as their parent.  Spans stay in memory
until :meth:`Tracer.summary` folds them into per-name calls, inclusive
time and self time (duration minus the union of the child intervals).
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import threading
import time
from collections import defaultdict

LAYER_MODULES = ("coverage", "deployment", "ega", "geometry", "observer", "cli")
# Leaf helpers that cost less per call than a span; their time stays in the caller.
UNTRACED = frozenset({"geometry.cm_to_mm", "geometry.landmark_normal"})
_RUSAGE = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, on_call=None):
        spans = self.spans
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            spans.append(span)
            stack.append(span)
            done = on_call(args, kwargs) if on_call is not None else None
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if done is not None:
                    done()

        return traced

    def _strengths_grid_hook(self, args, kwargs):
        """Counts gate elements, occlusion pairs and page faults per call."""
        given = dict(zip(("points", "rotations", "landmarks"), args), **kwargs)
        b = len(given["points"])
        g = len(given["rotations"])
        k = len(given["landmarks"])
        faults0 = resource.getrusage(_RUSAGE).ru_minflt
        counters = self.counters

        def done():
            counters["coverage.gate_elements"] += b * g * k
            counters["coverage.occlusion_pairs"] += b * k * k
            counters["coverage.strengths_grid.minor_faults"] += (
                resource.getrusage(_RUSAGE).ru_minflt - faults0
            )

        return done

    # -- installing ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer functions and rebind every module reference."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        }
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short in LAYER_MODULES:
            mod = modules[f"{package.__name__}.{short}"]
            for attr, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and f"{short}.{attr}" not in UNTRACED
                ):
                    hook = self._strengths_grid_hook if attr == "strengths_grid" else None
                    wrapped[id(value)] = (value, self._wrap(f"{short}.{attr}", value, hook))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        gene_space = modules[f"{package.__name__}.ega"].GeneSpace
        self._restore.append((gene_space, "decode", gene_space.decode))
        gene_space.decode = self._wrap("ega.GeneSpace.decode", gene_space.decode)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- summarising -----------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, thread in self.spans:
            if parent is not None and parent[4] == thread:
                children[id(parent)].append((start, end))
        layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(id(span), ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            entry = layers[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - covered
        return dict(layers)

    def descendant_calls(self, ancestor: str, name: str) -> int:
        """Calls of ``name`` made, at any depth, inside spans of ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and parent[0] != ancestor:
                parent = parent[3]
            count += parent is not None
        return count
