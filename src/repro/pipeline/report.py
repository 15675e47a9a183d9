"""Structured per-stage instrumentation of a pipeline session.

Every stage execution (or cache hit) appends a :class:`StageTiming` event
to the session's :class:`PipelineReport` — the SDK-level analogue of the
per-kernel :class:`repro.hls.KernelReport`.  The report answers "where did
this compile spend its time, and what did the cache save?".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict

#: How many of the newest events :attr:`PipelineReport.events` keeps.
MAX_REPORT_EVENTS = 4096


@dataclass
class StageTiming:
    """One stage execution event.

    ``aux`` marks informational sub-events (e.g. the per-pass timings the
    ``canonicalize`` stage emits); they appear in summaries but do not
    count toward the stage cache statistics or the total.
    """

    stage: str
    seconds: float
    cached: bool
    parallel: bool = False
    detail: str = ""
    aux: bool = False


@dataclass
class PipelineReport:
    """The accumulated timing/caching record of one session.

    ``total_seconds``, ``cache_hits``, ``cache_misses`` and
    :meth:`stage_seconds` are running totals over every recorded event;
    ``events`` holds the newest :data:`MAX_REPORT_EVENTS` of them, so a
    long-lived session (the ``basecamp serve`` daemon) stays bounded.
    """

    events: Deque[StageTiming] = field(
        default_factory=lambda: deque(maxlen=MAX_REPORT_EVENTS))
    total_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    _stage_seconds: Dict[str, float] = field(default_factory=dict,
                                             repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, stage: str, seconds: float, *, cached: bool,
               parallel: bool = False, detail: str = "",
               aux: bool = False) -> StageTiming:
        event = StageTiming(stage, seconds, cached, parallel, detail, aux)
        with self._lock:  # sessions record from many threads
            self.events.append(event)
            if not aux:
                self.total_seconds += seconds
                if cached:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
                    self._stage_seconds[stage] = \
                        self._stage_seconds.get(stage, 0.0) + seconds
        return event

    def stage_seconds(self) -> Dict[str, float]:
        """Total executed (non-cached) seconds per stage name."""
        with self._lock:
            return dict(self._stage_seconds)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "events": [
                {"stage": e.stage, "seconds": e.seconds, "cached": e.cached,
                 "parallel": e.parallel, "detail": e.detail, "aux": e.aux}
                for e in self.events
            ],
        }

    def summary(self) -> str:
        lines = [
            f"pipeline: {len(self.events)} stage events, "
            f"{self.total_seconds * 1e3:.1f} ms executed, "
            f"{self.cache_hits} cache hits / {self.cache_misses} misses"
        ]
        for event in self.events:
            mark = "cache" if event.cached else f"{event.seconds * 1e3:8.2f}ms"
            flags = " [parallel]" if event.parallel else ""
            detail = f"  ({event.detail})" if event.detail else ""
            lines.append(f"  {event.stage:18s} {mark:>10s}{flags}{detail}")
        return "\n".join(lines)


class StageClock:
    """Context manager measuring one stage execution."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "StageClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start
