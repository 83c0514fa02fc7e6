"""Stochastic workload models.

A workload model describes the operating modes of a battery-powered device
as a CTMC, together with the current drawn in every mode.  The paper uses
three such models (Section 4.3):

* the Erlang-K **on/off** model (:mod:`repro.workload.onoff`),
* the three-state **simple** model of a small wireless device
  (:mod:`repro.workload.simple`),
* the five-state **burst** model that condenses the sending activity
  (:mod:`repro.workload.burst`).

Beyond the paper, three scenario families feed the sweep layer:

* **MMPP** bursty traffic (:mod:`repro.workload.mmpp`),
* periodic Erlang-K **duty-cycle** schedules (:mod:`repro.workload.dutycycle`),
* seeded **random** workload generation (:mod:`repro.workload.randomized`).

:mod:`repro.workload.builder` offers a fluent API for defining custom
models, and :mod:`repro.workload.catalog` a fixed catalog of the standard ones.
The model class :class:`~repro.workload.base.WorkloadModel` is part of the
public API and is imported from :mod:`repro.api`.
"""

from repro.workload.builder import WorkloadBuilder
from repro.workload.burst import burst_workload
from repro.workload.catalog import available_workloads, get_workload
from repro.workload.dutycycle import duty_cycle_workload
from repro.workload.mmpp import mmpp_workload
from repro.workload.onoff import onoff_workload
from repro.workload.randomized import random_workload
from repro.workload.simple import simple_workload

__all__ = [
    "WorkloadBuilder",
    "available_workloads",
    "burst_workload",
    "duty_cycle_workload",
    "get_workload",
    "mmpp_workload",
    "onoff_workload",
    "random_workload",
    "simple_workload",
]
