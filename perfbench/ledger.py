"""The traced run's span recorder and per-layer ledger.

:meth:`Ledger.install` wraps the public functions of each layer from
the benchmark process -- class attributes and module-level names -- so
the program's own source stays untouched.  Every wrapped call becomes a
span: name, thread, start, end and the span that was open on the same
thread when it began.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans
cover; children always nest on their parent's thread, so that is the
sum of the children's durations.

Bytes copied by ``KVCache.select`` and ``KVCache.concat`` are computed
from the shapes of the buffers they return, not measured.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict, deque
from typing import NamedTuple

from stats import median, percentile

#: ``(module path, attribute, span name)`` of every module-level name
#: the ledger wraps.  Callers bind these names at import time, so each
#: binding site is wrapped separately.
_MODULE_TARGETS = [
    ("repro.llm.generation", "greedy_decode_batch",
     "llm.generation.decode_batch"),
    ("repro.llm.interface", "greedy_decode_batch",
     "llm.generation.decode_batch"),
    ("repro.units", "default_kb", "units.default_kb"),
    ("repro.experiments.context", "default_kb", "units.default_kb"),
    ("repro.service.app", "default_kb", "units.default_kb"),
    ("repro.quantity.grounder", "grounder_for", "quantity.grounder_for"),
    ("repro.service.app", "grounder_for", "quantity.grounder_for"),
    ("repro.experiments.context", "get_context", "experiments.get_context"),
    ("repro.service.app", "get_context", "experiments.get_context"),
]

SETUP_SPANS = ("experiments.get_context", "units.default_kb",
               "quantity.grounder_for")


class Span(NamedTuple):
    """One finished call.  Plain values only, so the collector stops
    tracking it: a traced run holds hundreds of thousands of these, and
    tracked ones would make every full collection pause the load."""

    id: int
    name: str
    thread: str
    start: float
    end: float
    parent: int             # id of the enclosing span on this thread, or -1
    child: float            # seconds covered by child spans
    value: float            # rows, bytes or batch size, per span kind

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class _Open:
    """A call still on its thread's stack."""

    __slots__ = ("id", "name", "start", "child", "value")

    def __init__(self, span_id: int, name: str, start: float):
        self.id, self.name, self.start = span_id, name, start
        self.child = 0.0
        self.value = 0.0


def _kv_bytes(cache) -> int:
    return sum(buf.nbytes for buf in cache.keys) + sum(
        buf.nbytes for buf in cache.values)


class Ledger:
    """Spans plus the few cross-span records the per-layer metrics need."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        #: ContinuousBatcher submit time per prompt token sequence.
        self._sched_submit: dict[tuple, float] = {}
        #: (admit time, seconds queued) per admitted scheduler prompt.
        self.sched_waits: list[tuple[float, float]] = []
        #: MicroBatcher submit times per (batcher name, item), FIFO.
        self._micro_submit: dict[tuple, deque] = defaultdict(deque)
        #: (batch start, seconds queued) per micro-batched item.
        self.micro_waits: list[tuple[float, float]] = []
        #: trace id -> dispatch seconds, for the transport share.
        self.dispatch_by_trace: dict[str, float] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, before=None, after=None):
        ledger = self
        ids = self._ids

        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            parent = stack[-1] if stack else None
            call = _Open(next(ids), name, time.perf_counter())
            if before is not None:
                before(call, parent, args)
            stack.append(call)
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += end - call.start
                if after is not None and returned:
                    after(call, end, args, result)
                ledger.spans.append(Span(
                    call.id, name, threading.current_thread().name,
                    call.start, end,
                    parent.id if parent is not None else -1,
                    call.child, call.value))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, before, after))

    def install(self) -> None:
        """Wrap every layer boundary; call before the workload's set-up,
        so bound methods captured during construction are wrapped too."""
        import importlib

        from repro.engine.runner import BatchRunner
        from repro.llm.generation import DecodeSession
        from repro.llm.model import KVCache, TransformerModel
        from repro.llm.tokenizer import Tokenizer
        from repro.quantity.grounder import QuantityGrounder
        from repro.service.app import DimensionService
        from repro.service.batcher import MicroBatcher
        from repro.service.scheduler import ContinuousBatcher
        from repro.service.solver import MWPSolver

        def rows(call, parent, args):
            call.value = len(args[1])

        def copied(call, end, args, result):
            call.value = _kv_bytes(result)

        encode = Tokenizer.encode

        def sched_submit(call, parent, args):
            batcher, item = args[0], args[1]
            key = tuple(encode(batcher.lm.tokenizer, item[0]))
            self._sched_submit[key] = call.start

        def sched_admit(call, parent, args):
            for ids in args[1]:
                submitted = self._sched_submit.pop(tuple(ids), None)
                if submitted is not None:
                    self.sched_waits.append(
                        (call.start, call.start - submitted))

        def micro_submit(call, parent, args):
            self._micro_submit[(args[0].name, args[1])].append(call.start)

        def micro_batch(kind):
            def before(call, parent, args):
                call.value = len(args[1])
                if parent is not None and parent.name.startswith("quantity."):
                    return      # extract_batch nested in ground_batch
                for text in args[1]:
                    queue = self._micro_submit.get((kind, text))
                    if queue:
                        self.micro_waits.append(
                            (call.start, call.start - queue.popleft()))
            return before

        def dispatch(call, end, args, result):
            trace = args[3] if len(args) > 3 else None
            if trace is not None:
                self.dispatch_by_trace[trace.trace_id] = end - call.start

        self._patch(TransformerModel, "infer_step", "llm.model.infer_step",
                    before=rows)
        self._patch(TransformerModel, "infer_prefill",
                    "llm.model.infer_prefill", before=rows)
        self._patch(TransformerModel, "infer_window",
                    "llm.model.infer_window", before=rows)
        self._patch(KVCache, "select", "llm.model.kv_select", after=copied)
        self._patch(KVCache, "concat", "llm.model.kv_concat", after=copied)
        self._patch(DecodeSession, "step", "llm.generation.session_step")
        self._patch(DecodeSession, "admit", "llm.generation.session_admit",
                    before=sched_admit)
        self._patch(Tokenizer, "encode", "llm.tokenizer.encode")
        self._patch(Tokenizer, "decode", "llm.tokenizer.decode")
        self._patch(ContinuousBatcher, "submit", "service.scheduler.submit",
                    before=sched_submit)
        self._patch(MWPSolver, "prepare", "service.solver.prepare")
        self._patch(MWPSolver, "finish", "service.solver.finish")
        self._patch(QuantityGrounder, "extract", "quantity.extract")
        self._patch(QuantityGrounder, "ground_batch", "quantity.ground_batch",
                    before=micro_batch("ground"))
        self._patch(QuantityGrounder, "extract_batch",
                    "quantity.extract_batch", before=micro_batch("extract"))
        self._patch(QuantityGrounder, "link_best", "quantity.link_best")
        self._patch(MicroBatcher, "submit", "service.batcher.submit",
                    before=micro_submit)
        self._patch(BatchRunner, "generate_all", "engine.generate_all")
        self._patch(DimensionService, "dispatch", "service.app.dispatch",
                    after=dispatch)
        for module_name, attr, name in _MODULE_TARGETS:
            self._patch(importlib.import_module(module_name), attr, name)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (tests install and remove)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derivation -----------------------------------------------------

    def in_window(self, windows: list[tuple[float, float]]) -> list[Span]:
        """Spans that began inside any of ``windows``."""
        return [s for s in self.spans
                if any(start <= s.start < end for start, end in windows)]

    @staticmethod
    def covered(spans: list[Span], thread_prefix: str) -> float:
        """Seconds that top-level spans on matching threads cover."""
        return sum(s.duration for s in spans
                   if s.parent < 0 and s.thread.startswith(thread_prefix))

    @staticmethod
    def queue_wait_p50(waits: list[tuple[float, float]],
                       windows: list[tuple[float, float]]) -> float:
        """Median wait, in ms, of the items dequeued inside ``windows``."""
        inside = [wait for at, wait in waits
                  if any(start <= at < end for start, end in windows)]
        return 1e3 * percentile(inside, 0.5) if inside else 0.0

    def setup_ms(self, windows: list[tuple[float, float]]) -> dict[str, float]:
        """Median, over the set-up repeats, of each set-up layer's time."""
        out = {}
        for name in SETUP_SPANS:
            per_setup = [1e3 * sum(s.duration for s in self.in_window([w])
                                   if s.name == name)
                         for w in windows]
            out[f"{name}.ms"] = median(per_setup)
        return out

    def layer_metrics(self, windows: list[tuple[float, float]]
                      ) -> dict[str, float]:
        """Every per-layer metric the spans alone determine, over the
        measured ``windows``; workloads add the rest."""
        spans = self.in_window(windows)
        seconds = sum(end - start for start, end in windows)
        by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            by_name[span.name].append(span)

        def calls(name):
            return float(len(by_name[name]))

        def total_ms(name, self_only=False):
            return 1e3 * sum(s.self_time if self_only else s.duration
                             for s in by_name[name])

        def mean_ms(name):
            group = by_name[name]
            return total_ms(name) / len(group) if group else 0.0

        def mean_value(group):
            return sum(s.value for s in group) / len(group) if group else 0.0

        out = {}
        for short in ("infer_step", "infer_prefill"):
            name = f"llm.model.{short}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.ms"] = total_ms(name)
            out[f"{name}.rows_mean"] = mean_value(by_name[name])
        out["llm.model.infer_window.calls"] = calls("llm.model.infer_window")
        for short in ("kv_select", "kv_concat"):
            name = f"llm.model.{short}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.ms"] = total_ms(name)
            out[f"{name}.mb_copied"] = sum(
                s.value for s in by_name[name]) / 1e6
        for short in ("session_step", "session_admit", "decode_batch"):
            name = f"llm.generation.{short}"
            out[f"{name}.ms"] = total_ms(name, self_only=True)
        for short in ("encode", "decode"):
            out[f"llm.tokenizer.{short}.ms"] = total_ms(
                f"llm.tokenizer.{short}")
        out["service.scheduler.queue_wait_p50_ms"] = self.queue_wait_p50(
            self.sched_waits, windows)
        out["service.scheduler.worker_busy_share"] = (
            self.covered(spans, "continuous-batcher") / seconds)
        out["service.scheduler.memo_hits"] = 0.0
        for short in ("prepare", "finish"):
            out[f"service.solver.{short}.ms_mean"] = mean_ms(
                f"service.solver.{short}")
        out["quantity.extract.ms_mean"] = mean_ms("quantity.extract")
        for short in ("ground_batch", "extract_batch"):
            name = f"quantity.{short}"
            out[f"{name}.ms_mean"] = mean_ms(name)
            out[f"{name}.batch_mean"] = mean_value(by_name[name])
        out["quantity.link_best.calls"] = calls("quantity.link_best")
        out["quantity.link_best.ms_mean"] = mean_ms("quantity.link_best")
        out["service.batcher.queue_wait_p50_ms"] = self.queue_wait_p50(
            self.micro_waits, windows)
        out["service.batcher.batch_mean"] = mean_value(
            [s for s in spans if s.parent < 0
             and s.thread.startswith("micro-batcher")])
        out["engine.generate_all.ms"] = total_ms("engine.generate_all")
        out["engine.completion_cache.hit_rate"] = 0.0
        out["engine.conversion_cache.hit_rate"] = 0.0
        dispatch = [s.duration for s in by_name["service.app.dispatch"]]
        out["service.app.dispatch.p50_ms"] = (
            1e3 * percentile(dispatch, 0.5) if dispatch else 0.0)
        out["service.http.transport.p50_ms"] = 0.0
        out["loadgen.lateness_p99_ms"] = 0.0
        return out
