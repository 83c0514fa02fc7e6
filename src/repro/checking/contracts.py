"""The ``REPRO_CHECKS`` contract toggle.

Structural chain validation (:mod:`repro.markov.validate`) is wired into
the chain-construction entry points -- ``discretize`` and
:class:`~repro.markov.uniformization.TransientPropagator` -- behind one
process-wide two-valued knob:

``REPRO_CHECKS=strict``
    Contract violations raise (:class:`~repro.markov.validate.ValidationError`).
    The test suite runs in this mode, locally (``tests/conftest.py``) and
    in CI.
``REPRO_CHECKS=off``
    The validators are not invoked at all; the only residual cost is one
    environment lookup per guarded entry (gated under 1% of a 52k-state
    solve by ``benchmarks/bench_kernels.py``).  The library and benchmark
    default.

The environment variable is re-read on every :func:`checks_mode` call so
tests can flip modes with ``monkeypatch.setenv``; :func:`override_checks`
offers a scoped in-process override that wins over the environment.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterator

__all__ = [
    "CHECK_MODES",
    "checks_mode",
    "override_checks",
]

#: The supported values of the ``REPRO_CHECKS`` knob.
CHECK_MODES = ("strict", "off")

#: Name of the controlling environment variable.
ENV_VAR = "REPRO_CHECKS"

#: Mode used when the environment variable is unset: the validators stay
#: out of production hot paths unless explicitly requested.
DEFAULT_MODE = "off"

_override: str | None = None


def checks_mode() -> str:
    """Return the active checking mode (``"strict"`` or ``"off"``).

    A scoped :func:`override_checks` wins over the environment; an
    unrecognised environment value raises immediately rather than being
    silently treated as one of the modes.
    """
    if _override is not None:
        return _override
    raw = os.environ.get(ENV_VAR, DEFAULT_MODE).strip().lower()
    if raw not in CHECK_MODES:
        raise ValueError(
            f"{ENV_VAR}={raw!r} is not a valid checking mode; expected one of {CHECK_MODES}"
        )
    return raw


@contextmanager
def override_checks(mode: str) -> "Iterator[None]":
    """Force the checking *mode* within a ``with`` block (re-entrant).

    Used by the test fixtures and by callers that need a deterministic
    mode regardless of the ambient environment.
    """
    global _override
    if mode not in CHECK_MODES:
        raise ValueError(f"{mode!r} is not a valid checking mode; expected one of {CHECK_MODES}")
    previous = _override
    _override = mode
    try:
        yield
    finally:
        _override = previous
