"""Span-based tracing behind the ``REPRO_TRACE`` knob.

A *span* is one named, timed region of work with a parent link:
``sweep`` contains ``cache_scan`` and ``chunk_attempt`` spans, a worker's
``chunk_solve`` span contains ``group_solve`` and ``checkpoint_write``
spans, a solve contains ``transient`` and per-``segment`` spans.  The
exported span tree is what ``tools/repro_trace.py`` renders into the
per-phase time breakdown and the per-scenario sweep timeline.

The knob mirrors ``REPRO_CHECKS`` (:mod:`repro.checking.contracts`):

``REPRO_TRACE=off`` (default)
    Nothing is recorded.  Every instrumentation point costs exactly one
    environment lookup (gated under 1% of a 52k-state solve by
    ``benchmarks/bench_observability.py``).
``REPRO_TRACE=summary``
    Phase-level spans are recorded (solves, sweep phases, chunk
    attempts, checkpoint writes); the per-segment / per-apply *detail*
    spans stay off.
``REPRO_TRACE=full``
    Everything, including :func:`detail_span` instrumentation inside the
    uniformisation segment loops and the matrix-free operator applies.

The environment variable is re-read on every :func:`current_tracer`
call so tests can flip modes with ``monkeypatch.setenv``;
:func:`override_trace` installs a scoped in-process tracer that wins
over the environment.  Span IDs are ``<pid>-<counter>`` with one shared
process-wide counter, so IDs are unique across every tracer of a process
*and* across the driver/worker process boundary; the current parent is
tracked in a :class:`contextvars.ContextVar`, which keeps nesting correct
across threads.

Timestamps come from the injectable clock of :mod:`repro.obs.clock`.
Monotonic clocks are per-process, so worker spans shipped back inside
result payloads are *re-based* onto the driver timeline when
:meth:`Tracer.ingest` re-parents them under the driver's chunk-attempt
span.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ContextManager

from repro.obs.clock import now

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Iterable, Iterator, Mapping

__all__ = [
    "DEFAULT_MODE",
    "ENV_VAR",
    "Span",
    "TRACE_MODES",
    "Tracer",
    "current_tracer",
    "detail_span",
    "ingest_spans",
    "install_tracer",
    "override_trace",
    "record_span",
    "span",
    "span_from_record",
    "trace_mode",
]

#: The supported values of the ``REPRO_TRACE`` knob.
TRACE_MODES = ("off", "summary", "full")

#: Name of the controlling environment variable.
ENV_VAR = "REPRO_TRACE"

#: Mode used when the environment variable is unset: tracing stays out of
#: production hot paths unless explicitly requested.
DEFAULT_MODE = "off"

#: Process-wide span-ID counter, shared by every tracer so driver and
#: worker tracers living in one process can never collide.
_SPAN_IDS = itertools.count(1)

#: Current parent span ID (per execution context, so threads nest
#: independently).  Shared across tracers: at most one tracer is active
#: in a process at a time.
_CURRENT_SPAN: ContextVar[str | None] = ContextVar("repro_obs_current_span", default=None)


@dataclass(frozen=True)
class Span:
    """One finished span: a named, timed region with a parent link."""

    name: str
    span_id: str
    parent_id: str | None
    start: float
    end: float
    pid: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span duration in clock seconds (never negative)."""
        return max(0.0, self.end - self.start)

    def as_record(self) -> dict[str, Any]:
        """The span as a JSON-friendly flat dict (one JSONL line)."""
        record: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


def span_from_record(record: "Mapping[str, Any]") -> Span:
    """Rebuild a :class:`Span` from an :meth:`Span.as_record` dict."""
    return Span(
        name=str(record["name"]),
        span_id=str(record["span_id"]),
        parent_id=None if record.get("parent_id") is None else str(record["parent_id"]),
        start=float(record["start"]),
        end=float(record["end"]),
        pid=int(record.get("pid", 0)),
        attrs=dict(record.get("attrs") or {}),
    )


class Tracer:
    """Collects spans; thread-safe; the clock is injectable.

    Spans accumulate in memory (:meth:`spans`, :meth:`export_jsonl`).
    *mode* is ``"summary"`` or ``"full"`` -- an off tracer is simply no
    tracer (see :func:`current_tracer`).
    """

    def __init__(
        self,
        mode: str = "full",
        *,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if mode not in TRACE_MODES or mode == "off":
            raise ValueError(
                f"tracer mode {mode!r} must be 'summary' or 'full' "
                "(an off tracer is no tracer)"
            )
        self.mode = mode
        self._clock = clock if clock is not None else now
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    @staticmethod
    def _next_id() -> str:
        return f"{os.getpid():x}-{next(_SPAN_IDS):x}"

    def current_span_id(self) -> str | None:
        """The span ID new spans would be parented under, if any."""
        return _CURRENT_SPAN.get()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> "Iterator[str]":
        """Open one span around the ``with`` body; yields the span ID."""
        span_id = self._next_id()
        parent_id = _CURRENT_SPAN.get()
        token = _CURRENT_SPAN.set(span_id)
        start = self._clock()
        try:
            yield span_id
        finally:
            end = self._clock()
            _CURRENT_SPAN.reset(token)
            self._add(
                Span(
                    name=name,
                    span_id=span_id,
                    parent_id=parent_id,
                    start=start,
                    end=end,
                    pid=os.getpid(),
                    attrs=attrs,
                )
            )

    def record(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent_id: str | None = None,
        **attrs: Any,
    ) -> str:
        """Record a span whose extent was timed externally (async work).

        Used by the executor loop, where a chunk attempt starts at
        ``submit`` and ends at its ``poll`` outcome -- no ``with`` block
        brackets it.  Without an explicit *parent_id* the current
        context's span is the parent.  Returns the new span's ID.
        """
        span_id = self._next_id()
        if parent_id is None:
            parent_id = _CURRENT_SPAN.get()
        self._add(
            Span(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                start=start,
                end=end,
                pid=os.getpid(),
                attrs=attrs,
            )
        )
        return span_id

    def ingest(
        self,
        records: "Iterable[Mapping[str, Any]]",
        *,
        parent_id: str | None,
        align_start: float | None = None,
    ) -> int:
        """Adopt foreign span records, re-parenting their roots.

        Worker processes ship their spans back inside the chunk result
        payload; this re-parents every *root* record (``parent_id is
        None`` -- the worker's ``chunk_solve`` span) under *parent_id*
        (the driver's ``chunk_attempt`` span) while the workers' internal
        parent links are kept.  Because monotonic clocks are per-process,
        *align_start* re-bases the records' timestamps so their earliest
        start coincides with it (the attempt's submit time on the driver
        timeline).  Returns the number of spans adopted.
        """
        spans = [span_from_record(record) for record in records]
        if not spans:
            return 0
        offset = 0.0
        if align_start is not None:
            offset = align_start - min(item.start for item in spans)
        for item in spans:
            self._add(
                Span(
                    name=item.name,
                    span_id=item.span_id,
                    parent_id=item.parent_id if item.parent_id is not None else parent_id,
                    start=item.start + offset,
                    end=item.end + offset,
                    pid=item.pid,
                    attrs=item.attrs,
                )
            )
        return len(spans)

    def _add(self, item: Span) -> None:
        with self._lock:
            self._spans.append(item)

    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Snapshot of every finished span, completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop every collected span."""
        with self._lock:
            self._spans.clear()

    def export_jsonl(self, path: str | os.PathLike[str]) -> int:
        """Write every span to *path* as JSON lines; returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for item in spans:
                handle.write(json.dumps(item.as_record(), sort_keys=True, default=str) + "\n")
        return len(spans)


# ----------------------------------------------------------------------
# The active tracer: a scoped override wins over the environment knob.
# ----------------------------------------------------------------------

_installed: Tracer | None = None
_forced_off: bool = False
_env_tracer: Tracer | None = None


def install_tracer(tracer: Tracer | None) -> None:
    """Install *tracer* as the process-wide active tracer (``None`` removes).

    Long-lived entry points (the experiments runner's ``--trace``) use
    this directly; tests and scoped callers should prefer
    :func:`override_trace`.
    """
    global _installed
    _installed = tracer


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is off.

    This is the hot-path guard: with no installed tracer and
    ``REPRO_TRACE`` unset (or off) the cost is exactly one environment
    lookup -- the contract the observability overhead gate measures.
    """
    if _installed is not None:
        return _installed
    if _forced_off:
        return None
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    mode = raw.strip().lower()
    if mode in ("", "off"):
        return None
    if mode not in TRACE_MODES:
        raise ValueError(
            f"{ENV_VAR}={mode!r} is not a valid trace mode; expected one of {TRACE_MODES}"
        )
    global _env_tracer
    tracer = _env_tracer
    if tracer is None or tracer.mode != mode:
        tracer = Tracer(mode=mode)
        _env_tracer = tracer
    return tracer


def trace_mode() -> str:
    """Return the active trace mode (``"off"``, ``"summary"`` or ``"full"``)."""
    if _installed is not None:
        return _installed.mode
    if _forced_off:
        return "off"
    raw = os.environ.get(ENV_VAR, DEFAULT_MODE).strip().lower() or DEFAULT_MODE
    if raw not in TRACE_MODES:
        raise ValueError(
            f"{ENV_VAR}={raw!r} is not a valid trace mode; expected one of {TRACE_MODES}"
        )
    return raw


@contextmanager
def override_trace(
    mode: str,
    *,
    clock: "Callable[[], float] | None" = None,
) -> "Iterator[Tracer | None]":
    """Force the trace *mode* within a ``with`` block (re-entrant).

    Yields the scoped :class:`Tracer` (or ``None`` for ``mode="off"``,
    which disables tracing even when the environment enables it).  Sweep
    workers use this to activate the task-carried trace mode without
    environment inheritance, exactly like ``override_faults``.
    """
    if mode not in TRACE_MODES:
        raise ValueError(
            f"{mode!r} is not a valid trace mode; expected one of {TRACE_MODES}"
        )
    global _installed, _forced_off
    previous_tracer = _installed
    previous_off = _forced_off
    tracer: Tracer | None = None
    if mode == "off":
        _installed = None
        _forced_off = True
    else:
        tracer = Tracer(mode, clock=clock)
        _installed = tracer
        _forced_off = False
    # A fresh scope starts with no parent: spans of the scoped tracer must
    # not link to span IDs of whatever tracer surrounds it (the in-process
    # "worker" of a serial sweep would otherwise parent its chunk_solve
    # span under the driver's sweep span, defeating re-parenting).
    token = _CURRENT_SPAN.set(None)
    try:
        yield tracer
    finally:
        _CURRENT_SPAN.reset(token)
        _installed = previous_tracer
        _forced_off = previous_off


# ----------------------------------------------------------------------
# Hot-path instrumentation helpers (no-ops when tracing is off).
# ----------------------------------------------------------------------


class _NullSpan:
    """Reusable no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> ContextManager[str | None]:
    """Open a phase-level span (recorded in summary *and* full mode)."""
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def detail_span(name: str, **attrs: Any) -> ContextManager[str | None]:
    """Open a detail span (kernel segments, operator applies; full mode only)."""
    tracer = current_tracer()
    if tracer is None or tracer.mode != "full":
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def record_span(
    name: str,
    *,
    start: float,
    end: float,
    parent_id: str | None = None,
    **attrs: Any,
) -> str | None:
    """Record an externally timed span on the active tracer, if any."""
    tracer = current_tracer()
    if tracer is None:
        return None
    return tracer.record(name, start=start, end=end, parent_id=parent_id, **attrs)


def ingest_spans(
    records: "Iterable[Mapping[str, Any]]",
    *,
    parent_id: str | None,
    align_start: float | None = None,
) -> int:
    """Adopt foreign span records into the active tracer, if any."""
    tracer = current_tracer()
    if tracer is None:
        return 0
    return tracer.ingest(records, parent_id=parent_id, align_start=align_start)
