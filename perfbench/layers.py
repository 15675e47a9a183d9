"""Span recording around the SDK's layer entry points (traced runs only).

:func:`install` monkeypatches the public entry point of every layer the
benchmark attributes time to, so that each call inside a measured op
records one span ``(op, span_id, parent, name, start, end)``.  Spans
live in memory (:class:`Recorder`) and are written once, at exit.
Nothing here touches ``src/``; untraced runs never call :func:`install`.

An op is opened with :meth:`Recorder.op`; calls outside any op
(verification, the daemon's warm-up) record nothing.  A traced worker
records its set-up as one op of its own (the cbackend ``cc`` metrics).  :func:`attribute` turns the
spans of each op into per-layer *self* times — a span's duration minus
the part of it covered by its child spans — and checks that the self
times of one op add up to its latency.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: Root marker: the parent id of a span opened directly inside an op.
ROOT = 0

#: Per-op accounting tolerance: the self times of an op's spans must sum
#: to its latency within this many milliseconds plus ACCOUNT_TOL_SHARE of
#: the latency.  Overlap between concurrent children (runtime-engine task
#: bodies on pool threads) is the only expected source of error.
ACCOUNT_TOL_MS = 0.05
ACCOUNT_TOL_SHARE = 0.01

#: Span name -> the per-layer metric its self time is reported under.
SELF_METRIC = {
    "serve.request": "serve.http_ms",
    "serve.handle": "serve.handle_self_ms",
    "serve.admission_wait": "serve.admission_wait_ms",
    "inputs.gather": "inputs.gather_ms",
    "pipeline.run_stage": "pipeline.run_stage_self_ms",
    "pipeline.stage_key": "pipeline.stage_key_ms",
    "pipeline.cache_lookup": "pipeline.cache_lookup_ms",
    "ekl.parse": "ekl.parse_ms",
    "ekl.lower": "ekl.lower_ms",
    "tensorpipe.lower": "tensorpipe.lower_ms",
    "ir.verify_typed": "ir.verify_typed_ms",
    "ir.canonicalize": "ir.canonicalize_ms",
    "ir.fusion": "ir.fusion_ms",
    "hls.synth": "hls.synth_ms",
    "codegen.compile": "codegen.compile_ms",
    # A cc run inside an op (a cold cbackend compile) is codegen work;
    # set-up cc runs are reported apart as cbackend.cc_ms.
    "cbackend.cc": "codegen.compile_ms",
    "kernel.run": "kernel.run_ms",
    "engine.run": "engine.self_ms",
    "engine.submit": "engine.submit_ms",
    "engine.policy": "engine.policy_ms",
    "engine.task": "engine.task_ms",
}

Span = Tuple[int, int, int, str, float, float]


class Recorder:
    """In-memory span and counter store shared by all wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], float] = {}
        self.modules: List[Tuple[int, Any]] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._ids = itertools.count(ROOT + 1)
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Attribute every wrapped call in the block to op ``op_id``."""
        token = self.current.set((op_id, ROOT))
        try:
            yield
        finally:
            self.current.reset(token)

    def count(self, name: str, amount: float = 1) -> None:
        ctx = self.current.get()
        if ctx is None:
            return
        key = (ctx[0], name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call inside an op;
        ``after(result, args)`` runs after the span closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = self.current.get()
            if ctx is None:
                return fn(*args, **kwargs)
            op_id, parent = ctx
            span_id = next(self._ids)
            token = self.current.set((op_id, span_id))
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                self.current.reset(token)
                self.spans.append((op_id, span_id, parent, name, start, end))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write spans and counters (the at-exit trace file)."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "counts": [[op, name, value] for (op, name), value
                                  in self.counts.items()]}, handle)


def load(path: str) -> Tuple[List[Span], Dict[Tuple[int, str], float]]:
    with open(path) as handle:
        data = json.load(handle)
    spans = [tuple(span) for span in data["spans"]]
    counts = {(op, name): value for op, name, value in data["counts"]}
    return spans, counts


_INHERITED = object()


def _patch(owner: Any, attr: str, replacement: Callable,
           undo: List[Tuple[Any, str, Any]]) -> None:
    original = owner.__dict__.get(attr, _INHERITED) \
        if isinstance(owner, type) else getattr(owner, attr)
    undo.append((owner, attr, original))
    setattr(owner, attr, replacement)


def install(rec: Recorder, *, server: bool = False) -> Callable[[], None]:
    """Wrap every layer entry point; returns a function undoing it.

    ``server`` additionally wraps the ``basecamp serve`` request path
    (the daemon bootstrap sets it).
    """
    import repro.basecamp.inputs as inputs
    import repro.frontends.ekl as ekl
    import repro.frontends.ekl.lower as ekl_lower
    import repro.hls as hls
    import repro.ir as ir
    import repro.tensorpipe as tensorpipe
    import repro.tensorpipe.cbackend as cbackend
    import repro.tensorpipe.codegen as codegen
    from repro.pipeline.cache import StageCache
    from repro.pipeline.report import PipelineReport
    from repro.pipeline.session import PipelineSession
    from repro.runtime.engine import MinLoadPolicy, RuntimeEngine
    from repro.runtime.scheduler import HEFTScheduler, RoundRobinScheduler

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        _patch(owner, attr, rec.wrap(original, name, after), undo)

    def counted(name):
        return lambda result, args: rec.count(name)

    # pipeline: the cached stage runner and its key/cache probes.
    patch(PipelineSession, "run_stage", "pipeline.run_stage",
          counted("pipeline.run_stage_calls"))
    patch(PipelineSession, "stage_key", "pipeline.stage_key")

    def lookup_outcome(result, args):
        rec.count("pipeline.cache_lookups")
        if result[0]:
            rec.count("pipeline.cache_hits")

    patch(StageCache, "lookup", "pipeline.cache_lookup", lookup_outcome)
    original_record = PipelineReport.record

    def record(self, *args, **kwargs):
        rec.count("pipeline.report_events")
        return original_record(self, *args, **kwargs)

    _patch(PipelineReport, "record", record, undo)

    # frontends.ekl and the tensorpipe lowerings (the stage bodies import
    # these names at call time, so patching the module attribute works).
    patch(ekl, "parse_kernel", "ekl.parse")
    patch(ekl_lower, "lower_kernel_to_ekl", "ekl.lower")
    patch(ekl_lower, "lower_ekl_to_esn", "ekl.lower")
    patch(tensorpipe, "lower_esn_to_teil", "tensorpipe.lower")
    patch(tensorpipe, "lower_teil_to_affine", "tensorpipe.lower")

    # ir: typed verification, canonicalization, fusion.
    patch(ir, "verify_typed", "ir.verify_typed",
          counted("ir.verify_typed_calls"))
    patch(ir.CanonicalizePass, "run", "ir.canonicalize")

    def fused(result, args):
        pass_, module = args[0], args[1]
        rec.count("ir.fusion_runs")
        rec.count("ir.fused_buffers", pass_.fused)
        ctx = rec.current.get()
        if ctx is not None:  # ops counted after the op, off the clock
            rec.modules.append((ctx[0], module))

    patch(ir.FusionPass, "run", "ir.fusion", fused)

    # hls
    patch(hls, "synthesize_kernel", "hls.synth")

    # tensorpipe.codegen / cbackend
    # A cached artifact is returned again by identity (CompiledKernel
    # compares by value, so track identities, weakly).
    seen: Dict[int, weakref.ref] = {}

    def compiled(kernel, args):
        rec.count("codegen.calls")
        known = seen.get(id(kernel))
        if known is not None and known() is kernel:
            rec.count("codegen.hits")
        else:
            seen[id(kernel)] = weakref.ref(kernel)
        if kernel.fallback:
            rec.count("codegen.fallbacks")

    patch(codegen, "compile_affine", "codegen.compile", compiled)

    def ran(outputs, args):
        kernel, inputs_ = args[0], args[1]
        rec.count("kernel.runs")
        rec.count("kernel.flops", kernel.flops)
        rec.count("kernel.bytes",
                  sum(getattr(a, "nbytes", 8) for a in inputs_.values())
                  + sum(getattr(a, "nbytes", 8) for a in outputs.values()))

    patch(codegen.CompiledKernel, "run", "kernel.run", ran)
    original_cc = cbackend.compile_shared_object

    def compile_shared_object(cc, source, key):
        built = not os.path.exists(
            os.path.join(cbackend.cache_dir(), f"{key}.so"))
        result = wrapped_cc(cc, source, key)
        if built:
            rec.count("cbackend.cc_calls")
        return result

    wrapped_cc = rec.wrap(original_cc, "cbackend.cc")
    _patch(cbackend, "compile_shared_object", compile_shared_object, undo)

    # runtime.engine: the event loop, submission, policy decisions and
    # the task bodies (which run on the engine's worker threads, so their
    # spans are parented explicitly on the engine.run span).
    run_spans: Dict[int, Tuple[int, int]] = {}
    original_run = RuntimeEngine.run

    def engine_run(self, *args, **kwargs):
        ctx = rec.current.get()
        if ctx is None:
            return original_run(self, *args, **kwargs)
        span_id = next(rec._ids)
        token = rec.current.set((ctx[0], span_id))
        run_spans[id(self)] = (ctx[0], span_id)
        before = self.rescheduled_tasks
        start = _now()
        try:
            return original_run(self, *args, **kwargs)
        finally:
            end = _now()
            run_spans.pop(id(self), None)
            rec.current.reset(token)
            rec.spans.append((ctx[0], span_id, ctx[1], "engine.run",
                              start, end))
            rec.count("engine.rescheduled_tasks",
                      self.rescheduled_tasks - before)

    _patch(RuntimeEngine, "run", engine_run, undo)
    original_submit = RuntimeEngine.submit

    def submit(self, fn, *args, **kwargs):
        engine = self

        def task(*task_args, **task_kwargs):
            owner = run_spans.get(id(engine))
            if owner is None:
                return fn(*task_args, **task_kwargs)
            token = rec.current.set(owner)
            try:
                return traced_task(fn, *task_args, **task_kwargs)
            finally:
                rec.current.reset(token)

        for attr in ("_everest_resources", "_everest_output_bytes",
                     "_everest_tuning"):
            if hasattr(fn, attr):
                setattr(task, attr, getattr(fn, attr))
        return wrapped_submit(self, task, *args, **kwargs)

    wrapped_submit = rec.wrap(original_submit, "engine.submit")
    traced_task = rec.wrap(lambda fn, *a, **k: fn(*a, **k), "engine.task")
    _patch(RuntimeEngine, "submit", submit, undo)
    for policy in (HEFTScheduler, RoundRobinScheduler, MinLoadPolicy):
        patch(policy, "schedule", "engine.policy")
    patch(MinLoadPolicy, "place", "engine.policy")

    # basecamp.inputs / basecamp.serve
    patch(inputs, "gather_inputs", "inputs.gather")
    if server:
        _install_server(rec, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        undo.clear()

    return uninstall


OP_HEADER = "X-Perfbench-Op"


class _TimedSemaphore:
    """The service's worker semaphore, timing each blocking acquire."""

    def __init__(self, semaphore, acquire: Callable) -> None:
        self._semaphore = semaphore
        self._acquire = acquire

    def __enter__(self):
        self._acquire(self._semaphore)
        return self

    def __exit__(self, *exc_info):
        self._semaphore.release()
        return False


def _install_server(rec: Recorder, undo) -> None:
    from repro.basecamp import serve

    original_post = serve._Handler.do_POST

    def do_post(self):
        op = self.headers.get(OP_HEADER)
        if op is None:
            return original_post(self)
        with rec.op(int(op)):
            return traced_post(self)

    traced_post = rec.wrap(original_post, "serve.request")
    _patch(serve._Handler, "do_POST", do_post, undo)
    _patch(serve.BasecampService, "handle",
           rec.wrap(serve.BasecampService.handle, "serve.handle"), undo)
    _patch(serve.BasecampService, "_admit",
           rec.wrap(serve.BasecampService._admit, "serve.admission_wait"),
           undo)
    acquire = rec.wrap(lambda semaphore: semaphore.acquire(),
                       "serve.admission_wait")
    original_init = serve.BasecampService.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._workers = _TimedSemaphore(self._workers, acquire)

    _patch(serve.BasecampService, "__init__", init, undo)


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def attribute(spans: List[Span], roots: Dict[int, Tuple[float, float]],
              root_metric: str) -> Tuple[Dict[str, float], int,
                                         Dict[str, float]]:
    """Per-layer self times summed over ops, in milliseconds.

    ``roots`` maps op id -> (start, end) of the op as the harness timed
    it; the root's own self time (latency covered by no layer span) is
    reported under ``root_metric``.  Every span is first clipped to its
    parent's interval: a daemon-side span can end after the client
    already holds the reply.  Returns (layer totals, ops whose self times
    do not sum to their latency within the stated tolerance or that hold
    a span without a parent in the op, extra totals: ``engine.run_ms``
    durations).
    """
    by_op: Dict[int, List[Span]] = {}
    for span in spans:
        if span[0] in roots:
            by_op.setdefault(span[0], []).append(span)
    totals: Dict[str, float] = {}
    durations: Dict[str, float] = {"engine.run_ms": 0.0}
    violations = 0
    for op, (op_start, op_end) in roots.items():
        bounds = {ROOT: (op_start, op_end)}
        clipped = []
        orphaned = False
        # Parents start before their children and take lower ids.
        for _, span_id, parent, name, start, end in sorted(
                by_op.get(op, ()), key=lambda s: (s[4], s[1])):
            if parent not in bounds:
                orphaned = True
                continue
            low, high = bounds[parent]
            start = min(max(start, low), high)
            end = max(min(end, high), start)
            bounds[span_id] = (start, end)
            clipped.append((span_id, parent, name, start, end))
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, parent, _, start, end in clipped:
            children.setdefault(parent, []).append((start, end))
        root_self = (op_end - op_start) - _covered(children.get(ROOT, []),
                                                   op_start, op_end)
        totals[root_metric] = totals.get(root_metric, 0.0) + root_self * 1e3
        accounted = root_self
        for span_id, _, name, start, end in clipped:
            own = (end - start) - _covered(children.get(span_id, []),
                                           start, end)
            metric = SELF_METRIC[name]
            totals[metric] = totals.get(metric, 0.0) + own * 1e3
            accounted += own
            if name == "engine.run":
                durations["engine.run_ms"] += (end - start) * 1e3
        latency = op_end - op_start
        if orphaned or abs(accounted - latency) * 1e3 > ACCOUNT_TOL_MS \
                + ACCOUNT_TOL_SHARE * latency * 1e3:
            violations += 1
    return totals, violations, durations
