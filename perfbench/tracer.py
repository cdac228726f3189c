"""In-memory span tracer that wraps the public entry points of each layer.

Nothing under ``src/`` is instrumented: :meth:`Tracer.install` replaces the
public functions and methods listed in :data:`FUNCTION_LAYERS`,
:data:`METHOD_LAYERS` and :data:`KERNEL_OPS` with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  Every wrapped call
records a span ``[layer, start, end, parent]``; a layer's *self* time is
its spans' durations minus the part covered by their child spans, so the
self times of all layers add up exactly to the time covered by root spans.

Kernel spans are recorded for outermost calls only: a public kernel
operation called from inside another one (``conjoin`` -> ``and_``, a
rename fallback -> ``ite``) is part of its caller's span.  Two families
are the exception and are always recorded, because they are the costs a
later change is expected to isolate: ``support`` (the walk ``rename``
runs before renaming) and garbage collection.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: Layer of each wrapped module-level function, by ``module:name``.  A
#: function is replaced in every loaded ``repro`` module that bound it by
#: name, so ``from x import f`` call sites are traced too.
FUNCTION_LAYERS: Dict[str, str] = {
    "repro.algorithms.engine:run_batch": "parallel.batch",
    "repro.parallel.shards:run_shard_group": "parallel.query",
    "repro.boolprog.parser:parse_program": "boolprog.front",
    "repro.boolprog.parser:parse_concurrent_program": "boolprog.front",
    "repro.boolprog.typecheck:check_program": "boolprog.front",
    "repro.boolprog.typecheck:check_concurrent_program": "boolprog.front",
    "repro.boolprog.cfg:build_cfg": "boolprog.front",
    "repro.analysis.passes:optimize": "boolprog.front",
    "repro.fixedpoint.evaluator:evaluate_nested": "fixedpoint",
    "repro.fixedpoint.evaluator:evaluate_simultaneous": "fixedpoint",
}

#: Layer of each wrapped method, by ``module:Class.method``.
METHOD_LAYERS: Dict[str, str] = {
    "repro.api.session:AnalysisSession.solve": "api.solve",
    "repro.api.session:AnalysisSession.check": "api.check",
    "repro.encode.templates:SequentialEncoder.encode_base": "encode",
    "repro.encode.templates:SequentialEncoder.encode_target": "encode",
    "repro.encode.concurrent:ConcurrentEncoder.encode": "encode",
}

#: Public kernel methods and the op family each is counted under.
#: ``forall`` runs the ``exists`` kernel on a complement and ``iff`` the
#: ``xor`` kernel; ``implies``/``conjoin``/``disjoin`` call ``and_``/``or_``
#: and are therefore not wrapped themselves.
KERNEL_OPS: Dict[str, str] = {
    "and_": "and",
    "or_": "or",
    "xor": "xor",
    "iff": "xor",
    "ite": "ite",
    "exists": "exists",
    "forall": "exists",
    "and_exists": "and_exists",
    "rename": "rename",
    "restrict": "restrict",
    "support": "support",
    "collect_garbage": "gc",
}

#: Kernel layers recorded even when nested inside another kernel call.
ALWAYS_RECORDED = ("bdd.support", "bdd.gc")

#: The op families reported per layer (``bdd.<op>.*``).
OP_FAMILIES = ("and", "or", "xor", "ite", "exists", "and_exists", "rename", "restrict", "support")

#: Layers whose self time is reported; kernel families are ``bdd.<op>``.
LAYERS = (
    "parallel.batch",
    "parallel.query",
    "api.solve",
    "api.check",
    "boolprog.front",
    "encode",
    "fixedpoint",
) + tuple(f"bdd.{op}" for op in OP_FAMILIES) + ("bdd.gc",)


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, method or attr


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index]`` per span, in open order.
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time of the outermost span of each layer.
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: List[Tuple[int, float]] = []  # (span index, child time)
        self._open_per_layer: Counter = Counter()
        self._kernel_depth = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------
    def _enter(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append((len(self.spans) - 1, 0.0))
        self._open_per_layer[layer] += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        layer = span[0]
        duration = end - span[1]
        self.self_s[layer] += duration - child
        self._open_per_layer[layer] -= 1
        if not self._open_per_layer[layer]:
            self.busy_s[layer] += duration
            self.calls[layer] += 1
        if self._stack:
            parent_index, parent_child = self._stack[-1]
            self._stack[-1] = (parent_index, parent_child + duration)

    def _wrap(self, layer: str, fn: Callable, kernel: bool = False) -> Callable:
        tracer = self
        always = layer in ALWAYS_RECORDED

        if not kernel:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tracer._enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
            return traced

        @functools.wraps(fn)
        def traced_kernel(*args, **kwargs):
            if tracer._kernel_depth and not always:
                return fn(*args, **kwargs)
            tracer._enter(layer)
            tracer._kernel_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._kernel_depth -= 1
                tracer._exit()
        return traced_kernel

    # -- installation -----------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every listed entry point (the ``repro`` package must be imported)."""
        for path, layer in FUNCTION_LAYERS.items():
            module, name = _resolve(path)
            original = getattr(module, name)
            traced = self._wrap(layer, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, traced)
        for path, layer in METHOD_LAYERS.items():
            cls, name = _resolve(path)
            self._patch(cls, name, self._wrap(layer, cls.__dict__[name]))
        from repro.bdd import BddManager
        from repro.bdd._array import ArrayBddManager

        # Resolve every store's methods before patching any: the array store
        # inherits most operations from BddManager but overrides ``rename``,
        # ``restrict`` and ``collect_garbage``.
        originals = {
            cls: {name: getattr(cls, name) for name in KERNEL_OPS}
            for cls in (BddManager, ArrayBddManager)
        }
        for cls, methods in originals.items():
            for name, original in methods.items():
                wrapped = self._wrap(f"bdd.{KERNEL_OPS[name]}", original, kernel=True)
                if name in cls.__dict__:
                    self._patch(cls, name, wrapped)
                else:
                    self._undo.append((cls, name, None))
                    setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- results ----------------------------------------------------------
    def root_time(self) -> float:
        """Summed duration of root spans (equals the sum of all self times)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines ``[layer, start, end, parent]``."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
