"""The fixed catalog of the standard workload models.

The catalog maps short names to the factory functions of the models used in
the paper -- plus the extended scenario families (MMPP bursty traffic,
periodic duty cycles, seeded random workloads) -- so that experiment
drivers, sweep specifications and examples can select a workload by name
(``get_workload("simple")``, ``get_workload("mmpp")``).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.workload.base import WorkloadModel
from repro.workload.burst import burst_workload
from repro.workload.dutycycle import duty_cycle_workload
from repro.workload.mmpp import mmpp_workload
from repro.workload.onoff import onoff_workload
from repro.workload.randomized import random_workload
from repro.workload.simple import simple_workload

__all__ = ["available_workloads", "get_workload"]

_CATALOG: dict[str, Callable[..., WorkloadModel]] = {
    "onoff": onoff_workload,
    "simple": simple_workload,
    "burst": burst_workload,
    "mmpp": mmpp_workload,
    "duty-cycle": duty_cycle_workload,
    "random": random_workload,
}


def available_workloads() -> list[str]:
    """Return the names of the catalog's workload factories."""
    return sorted(_CATALOG)


def get_workload(name: str, **kwargs: Any) -> WorkloadModel:
    """Instantiate the catalog workload called *name*.

    Keyword arguments are forwarded to the factory (e.g.
    ``get_workload("onoff", frequency=1.0, erlang_k=2)``).
    """
    try:
        factory = _CATALOG[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        ) from exc
    return factory(**kwargs)
