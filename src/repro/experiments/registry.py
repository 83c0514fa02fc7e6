"""Shared configuration, result containers and the experiment registry."""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "available_experiments",
    "get_experiment",
    "register_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by all experiment drivers.

    Attributes
    ----------
    full:
        When ``True`` the experiments also run the paper's most expensive
        settings (finest step sizes); the default keeps the whole benchmark
        suite at laptop-friendly runtimes.  The environment variable
        ``REPRO_FULL=1`` switches it on for the benchmark harness.
    n_simulation_runs:
        Number of Monte-Carlo replications for the simulation reference
        curves (the paper uses 1000).
    seed:
        Base seed for all stochastic parts.
    workers:
        Worker-process count for the drivers' scenario sweeps (routed
        through :func:`repro.engine.sweep.run_sweep`); ``1`` keeps everything
        in-process.  ``REPRO_WORKERS`` or ``--workers`` overrides it.
    cache_dir:
        Optional directory for a durable scenario cache: the drivers'
        sweeps checkpoint every solved scenario there as they go and are
        answered from it on re-runs.  ``REPRO_CACHE_DIR`` or
        ``--cache-dir`` sets it; ``None`` keeps the sweeps cache-free.
    resume:
        Allow reusing checkpoints that already exist under ``cache_dir``
        (a previous -- possibly killed -- run's frontier).  Without it a
        non-empty cache directory is rejected rather than silently
        served, because scenario fingerprints cover inputs, not solver
        code: resuming across a code change is an explicit decision.
    progress:
        Print sweep progress/ETA lines to stderr while the drivers solve.
    trace_file:
        Optional path for a JSONL span-trace export: the runner installs
        a full-mode :class:`repro.obs.Tracer` for the whole invocation
        and writes every recorded span there at the end.
        ``REPRO_TRACE_FILE`` or ``--trace`` sets it.
    metrics:
        Collect obs counters/gauges/histograms for the whole invocation
        and print the rendered snapshot at the end.  ``REPRO_METRICS=1``
        or ``--metrics`` switches it on.
    """

    full: bool = False
    n_simulation_runs: int = 1000
    seed: int = 20070625
    workers: int = 1
    cache_dir: str | None = None
    resume: bool = False
    progress: bool = False
    trace_file: str | None = None
    metrics: bool = False

    @classmethod
    def from_environment(cls) -> "ExperimentConfig":
        """Build a configuration from the ``REPRO_*`` environment variables.

        ``REPRO_FULL=1`` enables the full (slow) settings, ``REPRO_SIM_RUNS``
        overrides the number of simulation runs, ``REPRO_WORKERS`` sets the
        sweep worker-process count, ``REPRO_CACHE_DIR`` points the sweeps at
        a durable scenario cache, ``REPRO_RESUME=1`` allows reusing the
        checkpoints already in it, ``REPRO_TRACE_FILE`` exports a JSONL
        span trace of the whole invocation and ``REPRO_METRICS=1`` prints
        the obs metrics snapshot at the end.
        """
        full = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
        runs = int(os.environ.get("REPRO_SIM_RUNS", "1000"))
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
        cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip() or None
        resume = os.environ.get("REPRO_RESUME", "0") not in ("", "0", "false", "False")
        trace_file = os.environ.get("REPRO_TRACE_FILE", "").strip() or None
        metrics = os.environ.get("REPRO_METRICS", "0") not in ("", "0", "false", "False")
        return cls(
            full=full,
            n_simulation_runs=runs,
            workers=workers,
            cache_dir=cache_dir,
            resume=resume,
            trace_file=trace_file,
            metrics=metrics,
        )


@dataclass
class ExperimentResult:
    """Outcome of one experiment reproduction.

    Attributes
    ----------
    experiment_id:
        Short identifier (``"table1"``, ``"figure7"``, ...).
    title:
        Human-readable description of the reproduced artefact.
    tables:
        Mapping from a table/series name to its plain-text rendering.
    data:
        Raw numbers (rows, curves, metrics) for programmatic checks.
    paper_reference:
        The values or qualitative statements the paper reports, for
        side-by-side comparison in ``EXPERIMENTS.md``.
    notes:
        Observations about the match (and any substitutions).
    """

    experiment_id: str
    title: str
    tables: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    paper_reference: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Return a printable report of the experiment."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for name, table in self.tables.items():
            lines.append("")
            lines.append(f"-- {name} --")
            lines.append(table)
        if self.paper_reference:
            lines.append("")
            lines.append("-- paper reference --")
            for key, value in self.paper_reference.items():
                lines.append(f"  {key}: {value}")
        if self.notes:
            lines.append("")
            lines.append("-- notes --")
            for note in self.notes:
                lines.append(f"  * {note}")
        return "\n".join(lines)


_REGISTRY: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {}


def register_experiment(name: str, runner: Callable[[ExperimentConfig], ExperimentResult]) -> None:
    """Register an experiment runner under *name* (idempotent for same runner)."""
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not runner:
        raise ValueError(f"an experiment named {name!r} is already registered")
    _REGISTRY[name] = runner


def available_experiments() -> list[str]:
    """Return the names of all registered experiments (importing the drivers)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_experiment(name: str) -> Callable[[ExperimentConfig], ExperimentResult]:
    """Return the runner registered under *name*."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from exc


def _ensure_loaded() -> None:
    """Import all experiment modules so they register themselves."""
    from repro.experiments import (  # noqa: F401  (import for side effects)
        ablation_delta,
        ablation_erlang,
        figure2,
        figure7,
        figure8,
        figure9,
        figure10,
        figure11,
        multibattery,
        table1,
    )
