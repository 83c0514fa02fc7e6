"""Run experiment reproductions and print their reports.

``python -m repro.experiments.runner`` executes every registered experiment
with the configuration taken from the environment (``REPRO_FULL``,
``REPRO_SIM_RUNS``, ``REPRO_WORKERS``, ``REPRO_CACHE_DIR``,
``REPRO_RESUME``) and prints the rendered results; this is the textual
equivalent of regenerating every table and figure of the paper.  Pass
experiment names (``python -m repro.experiments.runner figure7 table1``)
to run a subset, ``--workers N`` to fan the drivers' scenario sweeps out
over N worker processes (the results are identical to a serial run),
``--cache-dir DIR`` to checkpoint every solved scenario durably (with
``--resume`` re-runs -- including runs killed mid-sweep -- are answered
from the checkpoints instead of re-solving), ``--progress`` for sweep
progress/ETA lines on stderr, ``--trace PATH`` for a JSONL span trace of
the whole invocation (rendered with ``python -m tools.repro_trace``),
``--metrics`` for an obs counters/histograms snapshot at the end, or
``--list`` to enumerate what is registered.

All drivers obtain their curves through the unified solver engine
(:mod:`repro.engine`) and its parallel sweep layer
(:func:`repro.engine.sweep.run_sweep`); this module only handles selection,
configuration and report rendering.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentResult,
    available_experiments,
    get_experiment,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterator

__all__ = ["cache_summary", "main", "observability", "run_all", "run_experiment"]


def run_experiment(name: str, config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run a single experiment by name."""
    if config is None:
        config = ExperimentConfig.from_environment()
    return get_experiment(name)(config)


def run_all(config: ExperimentConfig | None = None) -> list[ExperimentResult]:
    """Run every registered experiment and return the results."""
    if config is None:
        config = ExperimentConfig.from_environment()
    return [get_experiment(name)(config) for name in available_experiments()]


def main(argv=None) -> None:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="NAME",
        help="experiment names to run (default: all registered experiments)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the registered experiments and exit"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the scenario sweeps "
        "(default: REPRO_WORKERS or 1; results are identical to a serial run)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="checkpoint every solved sweep scenario to DIR as it finishes "
        "(default: REPRO_CACHE_DIR; a killed run resumes from DIR with --resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        default=None,
        help="reuse the checkpoints already in the cache directory "
        "(default: REPRO_RESUME; without it a non-empty directory is rejected)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print sweep progress/ETA lines to stderr while solving",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a full span trace of the whole invocation and export it "
        "to PATH as JSONL at the end (default: REPRO_TRACE_FILE; render it "
        "with python -m tools.repro_trace PATH)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        default=None,
        help="collect obs counters/histograms for the whole invocation and "
        "print the snapshot at the end (default: REPRO_METRICS)",
    )
    arguments = parser.parse_args(argv)

    if arguments.list:
        for name in available_experiments():
            print(name)
        return

    config = ExperimentConfig.from_environment()
    if arguments.workers is not None:
        if arguments.workers < 1:
            parser.error("--workers must be at least 1")
        config = replace(config, workers=arguments.workers)
    if arguments.cache_dir is not None:
        config = replace(config, cache_dir=arguments.cache_dir)
    if arguments.resume is not None:
        config = replace(config, resume=arguments.resume)
    if arguments.progress:
        config = replace(config, progress=True)
    if arguments.trace is not None:
        config = replace(config, trace_file=arguments.trace)
    if arguments.metrics is not None:
        config = replace(config, metrics=arguments.metrics)
    if config.resume and config.cache_dir is None:
        parser.error("--resume needs a cache directory (--cache-dir or REPRO_CACHE_DIR)")
    names = arguments.experiments or available_experiments()
    known = set(available_experiments())
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(known))}"
        )
    with observability(config):
        for name in names:
            result = run_experiment(name, config)
            print(result.render())
            print()
        summary = cache_summary(config)
        if summary:
            print(summary)


@contextmanager
def observability(config: ExperimentConfig) -> "Iterator[None]":
    """Scope the *config*'s trace/metrics collection around a runner pass.

    With ``trace_file`` set, a full-mode tracer observes every driver
    sweep and its spans are exported as JSONL when the pass finishes
    (render the file with ``python -m tools.repro_trace``).  With
    ``metrics`` set, obs counters/gauges/histograms collect across the
    whole pass and the rendered snapshot is printed at the end.
    """
    from repro import obs

    tracer = obs.Tracer(mode="full") if config.trace_file is not None else None
    registry = obs.MetricsRegistry() if config.metrics else None
    if tracer is not None:
        obs.install_tracer(tracer)
    if registry is not None:
        obs.set_metrics_registry(registry)
    try:
        yield
    finally:
        if tracer is not None:
            obs.install_tracer(None)
            n_spans = tracer.export_jsonl(config.trace_file)
            print(f"-- obs trace --\n  {n_spans} span(s) -> {config.trace_file}")
        if registry is not None:
            obs.set_metrics_registry(None)
            print(registry.render())


def cache_summary(config: ExperimentConfig) -> str | None:
    """Render the run's durable-cache summary (``None`` without a cache).

    Reports how many sweep scenarios were served from the cache
    (``cache_hit``) and how many of those were recovered from on-disk
    checkpoints written by an earlier run (``resumed_hits``) -- the number
    a resumed run did *not* have to re-solve.
    """
    from repro.experiments.common import cache_stats

    stats = cache_stats(config.cache_dir)
    if stats is None:
        return None
    return (
        "-- sweep cache --\n"
        f"  directory: {config.cache_dir}\n"
        f"  cache_hit: {stats['hits']} scenario(s) served from cache\n"
        f"  resumed_hits: {stats['disk_hits']} recovered from on-disk checkpoints\n"
        f"  entries: {stats['entries']} in memory, {stats['disk_entries']} on disk"
        + (f", {stats['quarantined']} quarantined" if stats["quarantined"] else "")
    )


if __name__ == "__main__":
    main()
