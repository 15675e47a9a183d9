"""Tile runner for the ``compiled`` numpy backend.

The source that :class:`~repro.tensorpipe.codegen.AffineCompiler`
emits wraps each shardable nest in a closure ``fn(t0, t1)`` over a
half-open row range and calls ``__tile(fn, extent, work)``.  This module
provides that runner: small nests (``work`` below a threshold) run
serially as ``fn(0, extent)``; large ones split ``[0, extent)`` into
balanced contiguous chunks executed on a persistent thread pool.  The
generated numpy code releases the GIL inside array operations, so even
a modest pool overlaps memory stalls — and chunked evaluation of long
expression chains additionally keeps tiles cache-resident, which is why
the tiled path beats one full-array pass on large kernels.

Chunking never changes results: the split axis is an output (parallel)
dimension, every reduction loop runs in full inside each chunk, and
chunks write disjoint row ranges of the destination buffers.

Pool sizing: an explicit ``jobs`` argument (``basecamp run --jobs`` /
``session.execute(jobs=...)``) wins, then the ``REPRO_JOBS`` environment
variable, then ``os.cpu_count()`` capped at 8.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

from repro.errors import EverestError
from repro.telemetry.trace import current_span, get_tracer

#: Minimum per-nest iteration count (loop-trip product) before the tile
#: runner fans out; below it the closure runs serially — thread handoff
#: would cost more than it buys.  Tests override via ``REPRO_TILE_THRESHOLD``.
DEFAULT_TILE_THRESHOLD = 65536

#: Cap on the default pool size (the CPU count); the serve daemon also
#: rejects a request's ``jobs`` above it.
MAX_JOBS = 8

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()
#: Pools replaced by a grow, kept alive until :func:`shutdown_pool`:
#: a thread that fetched the pool before the grow may still submit to
#: it, and ``ThreadPoolExecutor.shutdown`` (with or without ``wait``)
#: would make that submit raise.  Growth is monotone and capped by the
#: largest ``jobs`` ever requested, so the retired set stays small.
_RETIRED: List[ThreadPoolExecutor] = []


def _env_int(name: str, minimum: int) -> Optional[int]:
    """Parse an integer environment knob, or None when unset/empty.

    Both pool knobs (``REPRO_JOBS``, ``REPRO_TILE_THRESHOLD``) validate
    through here so a typo'd value surfaces as a uniform
    :class:`EverestError` instead of a raw ``ValueError``.
    """
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise EverestError(
            f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise EverestError(f"{name} must be >= {minimum}, got {value}")
    return value


def resolve_jobs(explicit: Optional[int] = None) -> int:
    """The worker-pool size: explicit > ``REPRO_JOBS`` > cpu count (<=8).

    ``explicit`` may come from outside input (a serve request body), so
    anything but a plain ``int`` — a string, a float, a bool — raises
    :class:`EverestError` rather than being coerced.
    """
    if explicit is not None:
        if isinstance(explicit, bool) or not isinstance(explicit, int):
            raise EverestError(
                f"jobs must be an integer, got {explicit!r}")
        if explicit < 1:
            raise EverestError(f"jobs must be >= 1, got {explicit}")
        return explicit
    env = _env_int("REPRO_JOBS", 1)
    if env is not None:
        return env
    return min(MAX_JOBS, os.cpu_count() or 1)


def tile_threshold() -> int:
    env = _env_int("REPRO_TILE_THRESHOLD", 0)
    return DEFAULT_TILE_THRESHOLD if env is None else env


def _pool_for(jobs: int) -> ThreadPoolExecutor:
    """The shared pool, grown (never shrunk) to at least ``jobs`` workers.

    Growing *retires* the smaller pool instead of shutting it down: a
    concurrent kernel that already holds the old pool must still be able
    to submit its tiles (``shutdown`` would fail that submit with
    "cannot schedule new futures after shutdown").  Retired pools keep
    their idle workers until :func:`shutdown_pool` reaps them.
    """
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE < jobs:
            if _POOL is not None:
                _RETIRED.append(_POOL)
            _POOL = ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="repro-tile")
            _POOL_SIZE = jobs
        return _POOL


def pool_size() -> int:
    """Current worker count of the shared pool (0 before first fan-out);
    exported as the ``repro_tile_pool_workers`` gauge by the serve
    daemon's ``GET /metrics``."""
    with _POOL_LOCK:
        return _POOL_SIZE


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests, interpreter shutdown)."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        for pool in _RETIRED:
            pool.shutdown(wait=True)
        _RETIRED.clear()
        _POOL = None
        _POOL_SIZE = 0


def split_ranges(extent: int, parts: int) -> List[tuple]:
    """Balanced contiguous half-open chunks covering ``[0, extent)``."""
    parts = max(1, min(parts, extent))
    base, rem = divmod(extent, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < rem else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def make_tile(jobs: Optional[int] = None,
              threshold: Optional[int] = None) -> Callable:
    """Build the ``__tile`` runner a kernel invocation binds to."""
    jobs = resolve_jobs(jobs)
    limit = tile_threshold() if threshold is None else threshold

    def __tile(fn: Callable[[int, int], None], extent: int,
               work: int) -> None:
        if jobs <= 1 or extent < 2 or work < limit:
            fn(0, extent)
            return
        ranges = split_ranges(extent, jobs)
        if len(ranges) == 1:
            fn(0, extent)
            return
        pool = _pool_for(jobs)
        tracer = get_tracer()
        if tracer.enabled:
            # Context vars do not cross the pool boundary, so capture the
            # submitting span here and hand it to each worker explicitly —
            # tile spans then parent under the stage/run span that fanned
            # out, and land on their worker's thread track in the trace.
            parent = current_span()

            def run_chunk(t0: int, t1: int) -> None:
                with tracer.span("tile", parent=parent, category="exec") \
                        as span:
                    span.attrs.update(rows=t1 - t0, t0=t0, work=work)
                    fn(t0, t1)

            futures = [pool.submit(run_chunk, t0, t1) for t0, t1 in ranges]
        else:
            futures = [pool.submit(fn, t0, t1) for t0, t1 in ranges]
        for future in futures:
            future.result()  # propagate worker exceptions

    return __tile
