"""Out-of-program tracing: wrap public layer functions with span timers.

Nothing here edits the program.  :func:`install` replaces selected functions
and methods of ``repro`` with thin wrappers that open a span on entry and
close it on exit; :func:`uninstall` puts the originals back.  Spans live in
memory (name, thread, start, end, parent, request id where known, batch size
for module calls) and are written out once, when the run ends.

A layer's *self* time is its span's duration minus the time its child spans
(on the same thread) cover.  Aggregates are kept per phase (``setup`` or
``timed``) so the per-layer metrics of the timed phase are not mixed with
set-up work.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept for the span file; aggregates keep counting past this.
MAX_SPANS = 150_000


class Recorder:
    """Per-thread span stacks plus per-phase aggregates."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()
        self.spans: List[Tuple] = []
        self.dropped = 0
        # (phase, name) -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, module span name, batch size) -> [calls, self seconds]
        self.by_batch: Dict[Tuple[str, str, int], List[float]] = defaultdict(lambda: [0, 0.0])
        # (phase, name) -> [count, sum]
        self.samples: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, rid: Optional[int] = None, batch: int = -1) -> list:
        stack = self._stack()
        parent = stack[-1][3] if stack else None
        # [name, start, child seconds, span id, parent id, request id, children, batch]
        frame = [name, time.perf_counter(), 0.0, next(self._ids), parent, rid, 0, batch]
        stack.append(frame)
        return frame

    def exit(self, frame: list, rename: Optional[str] = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, span_id, parent, rid, children, batch = frame
        if rename is not None:
            name = rename
        duration = end - start
        if stack:
            stack[-1][2] += duration
            stack[-1][6] += 1
        phase = self.phase
        if phase is None:
            return
        with self._lock:
            entry = self.totals[(phase, name)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
            if batch >= 0:
                per_batch = self.by_batch[(phase, name, batch)]
                per_batch[0] += 1
                per_batch[1] += duration - child
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, name, threading.current_thread().name,
                                   start - self.origin, end - self.origin, rid,
                                   batch if batch >= 0 else None, phase))
            else:
                self.dropped += 1

    def sample(self, name: str, value: float) -> None:
        """Record one observation (a wait, a row count) in the current phase."""
        if self.phase is None:
            return
        with self._lock:
            entry = self.samples[(self.phase, name)]
            entry[0] += 1
            entry[1] += value

    # -- reading -------------------------------------------------------
    def total(self, name: str, phase: str = "timed") -> Tuple[int, float, float]:
        calls, inclusive, own = self.totals.get((phase, name), (0, 0.0, 0.0))
        return int(calls), inclusive, own

    def observed(self, name: str, phase: str = "timed") -> Tuple[int, float]:
        count, total = self.samples.get((phase, name), (0, 0.0))
        return int(count), total

    def names(self, phase: str = "timed") -> List[str]:
        return sorted(name for (span_phase, name) in self.totals if span_phase == phase)

    def write(self, path) -> None:
        fields = ("id", "parent", "name", "thread", "start_s", "end_s", "request_id", "batch",
                  "phase")
        with open(path, "w") as handle:
            json.dump({"fields": fields, "dropped": self.dropped,
                       "spans": self.spans}, handle)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
class Patches:
    """Installed wrappers, so they can be removed again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []
        self.missing: List[str] = []

    def method(self, owner, attribute: str, name: str,
               before: Optional[Callable] = None, after: Optional[Callable] = None,
               rid: Optional[Callable] = None, span: bool = True) -> None:
        """Wrap ``owner.attribute`` (a plain, static or class method).

        ``span=False`` runs only the hooks: for calls that mostly block
        (a dispatcher's timed wait), whose duration is idle time.
        """
        raw = inspect.getattr_static(owner, attribute, None)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attribute}")
            return
        original = getattr(owner, attribute)
        wrapper = self._wrapper(original, name, before, after, rid, span)
        if isinstance(raw, staticmethod):
            setattr(owner, attribute, staticmethod(wrapper))
        else:
            setattr(owner, attribute, wrapper)
        self._undo.append(lambda: setattr(owner, attribute, raw))

    def function(self, module, attribute: str, name: str,
                 rid: Optional[Callable] = None) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it by name."""
        original = getattr(module, attribute, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attribute}")
            return
        wrapper = self._wrapper(original, name, None, None, rid, True)
        for holder in list(sys.modules.values()):
            holder_name = getattr(holder, "__name__", "")
            if not holder_name.startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._undo.append(lambda h=holder, k=key: setattr(h, k, original))

    def _wrapper(self, original, name, before, after, rid, span):
        recorder = self.recorder

        def traced(*args, **kwargs):
            if recorder.phase is None:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            if not span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            frame = recorder.enter(name, rid(args) if rid is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def module_calls(self, module_class) -> None:
        """Wrap ``Module.__call__``: self time per module class, glue for containers.

        A module whose call ran other modules is a container; its self time
        (reshapes, residual adds, stacking outputs) is counted as
        ``nn.glue``.  Leaf modules count under ``nn.<Class>``, with grouped
        convolutions split out as ``nn.Conv2dDepthwise``.  The batch size is
        kept on the span so the table can break self time down by it.
        """
        recorder = self.recorder
        original = module_class.__call__

        def traced_call(module, *args, **kwargs):
            if recorder.phase is None:
                return original(module, *args, **kwargs)
            kind = type(module).__name__
            if kind == "Conv2d" and getattr(module, "groups", 1) > 1:
                kind = "Conv2dDepthwise"
            batch = _batch_size(args[0]) if args else 0
            frame = recorder.enter(f"nn.{kind}", batch=batch)
            try:
                return original(module, *args, **kwargs)
            finally:
                if frame[6]:
                    frame[7] = -1
                    recorder.exit(frame, rename="nn.glue")
                else:
                    recorder.exit(frame)

        module_class.__call__ = traced_call
        self._undo.append(lambda: setattr(module_class, "__call__", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _batch_size(value) -> int:
    shape = getattr(getattr(value, "data", value), "shape", None)
    return int(shape[0]) if shape else 0


def install(recorder: Recorder) -> Patches:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro import nn
    from repro.cloud import serialization
    from repro.core.dataset_augmenter import DatasetAugmenter
    from repro.core.extractor import ModelExtractor
    from repro.core.model_augmenter import AugmentedModel, ModelAugmenter
    from repro.nn.tensor import Tensor
    from repro.serve.batcher import Batcher
    from repro.serve.cluster.admission import AdmissionScheduler
    from repro.serve.cluster.router import ClusterRouter
    from repro.serve.gateway import wire
    from repro.serve.middleware.chain import MiddlewareChain
    from repro.serve.proxy import ExtractionProxy
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import InferenceServer

    patches = Patches(recorder)
    patches.method(DatasetAugmenter, "augment_images", "dataset_augmenter.augment")
    patches.method(ModelAugmenter, "augment_image_model", "model_augmenter.augment")
    patches.function(serialization, "pack_model", "cloud.pack")
    patches.function(serialization, "pack_arrays", "cloud.pack")
    patches.function(serialization, "unpack_into_model", "cloud.unpack")
    patches.method(ModelExtractor, "extract", "extractor.extract")
    patches.method(Tensor, "backward", "trainer.backward")
    for optimizer in (nn.optim.SGD, nn.optim.Adam):
        patches.method(optimizer, "step", "trainer.optimizer")
    patches.module_calls(nn.Module)
    patches.method(AugmentedModel, "forward", "model.forward")

    patches.method(ExtractionProxy, "augment_batch", "proxy.augment")
    patches.method(ExtractionProxy, "select", "proxy.select")

    def batch_rows(args, kwargs) -> None:
        batcher, chunk = args[0], args[2]
        recorder.sample("batcher.rows", len(chunk))
        recorder.sample("batcher.padded", batcher.padded_size(len(chunk)) - len(chunk))

    patches.method(Batcher, "run_batch", "batcher.run_batch", before=batch_rows)
    patches.method(ModelRegistry, "get", "registry.get")

    def queue_wait(args, kwargs) -> None:
        now = time.perf_counter()
        for request in args[2]:
            recorder.sample("server.queue_wait", now - request.submitted_at)

    # Private hooks: a refactor that renames them drops the metric to 0 and
    # names the hook on stderr rather than failing the run.
    patches.method(InferenceServer, "_execute", "server.execute", before=queue_wait)
    patches.method(ClusterRouter, "_dispatch_async", "cluster.dispatch")

    def released(args, result) -> None:
        if result is not None:
            scheduler, ticket = args[0], result[0]
            recorder.sample("cluster.admission_wait", scheduler.clock() - ticket.enqueued_at)

    patches.method(AdmissionScheduler, "submit", "cluster.admission_submit")
    patches.method(AdmissionScheduler, "next_ready", "cluster.admission_next",
                   after=released, span=False)
    patches.method(MiddlewareChain, "enter", "middleware.chain")
    patches.method(MiddlewareChain, "exit", "middleware.chain")
    patches.method(MiddlewareChain, "execute_batch", "middleware.chain")
    patches.function(wire, "encode_frame", "wire.encode",
                     rid=lambda args: getattr(args[0], "request_id", None))
    patches.function(wire, "decode_payload", "wire.decode")
    for name in patches.missing:
        print(f"perfbench: trace hook {name} not found; its metric reads 0",
              file=sys.stderr)
    return patches


def self_time_table(recorder: Recorder, ops: int, phase: str = "timed") -> List[str]:
    """Per-layer self time per operation, largest first, then nn by batch size.

    Inclusive time is left blank for ``nn.glue``: containers nest, so their
    inclusive times overlap.
    """
    per_op = 1e3 / max(ops, 1)
    lines = [f"{'layer':36s} {'calls':>8s} {'self ms/op':>11s} {'incl ms/op':>11s}"]
    rows = [(recorder.total(name, phase), name) for name in recorder.names(phase)]
    for (calls, inclusive, own), name in sorted(rows, key=lambda row: -row[0][2]):
        shown = "" if name == "nn.glue" else f"{inclusive * per_op:11.4f}"
        lines.append(f"{name:36s} {calls:8d} {own * per_op:11.4f} {shown:>11s}")
    lines.append(f"{'module class @ batch size':36s} {'calls':>8s} {'self ms/op':>11s} "
                 f"{'self ms/call':>12s}")
    for (span_phase, name, batch), (calls, own) in sorted(recorder.by_batch.items()):
        if span_phase == phase:
            lines.append(f"{name + ' @ ' + str(batch):36s} {int(calls):8d} "
                         f"{own * per_op:11.4f} {own * 1e3 / calls:12.4f}")
    return lines
