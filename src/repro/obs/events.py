"""A tiny fan-out bus for runtime events (sweep progress, for now).

``run_sweep`` takes a single ``progress`` callback; before this module,
the experiments runner's ``--progress`` printer was wired in directly,
which meant only one consumer could observe a sweep.  Routing the
callback through :func:`emit` instead decouples producers from
consumers: the stderr printer, a metrics gauge updater and a future
service-layer streamer can all :func:`subscribe` to the same events.

Events are opaque objects (the engine's ``SweepProgress`` today); this
module deliberately imports nothing from the engine, mirroring how
:mod:`repro.checking.protocols` stays implementation-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

__all__ = ["clear_handlers", "emit", "subscribe", "unsubscribe"]

_handlers: list["Callable[[Any], None]"] = []


def subscribe(handler: "Callable[[Any], None]") -> "Callable[[Any], None]":
    """Register *handler* for every emitted event (idempotent); returns it."""
    if handler not in _handlers:
        _handlers.append(handler)
    return handler


def unsubscribe(handler: "Callable[[Any], None]") -> None:
    """Remove *handler* if it is registered."""
    try:
        _handlers.remove(handler)
    except ValueError:
        pass


def clear_handlers() -> None:
    """Remove every registered handler (test isolation)."""
    _handlers.clear()


def emit(event: Any) -> None:
    """Deliver *event* to every registered handler, registration order.

    Usable directly as a ``RunOptions(progress=emit)`` callback; with no
    handlers registered it is a no-op.
    """
    for handler in list(_handlers):
        handler(event)
