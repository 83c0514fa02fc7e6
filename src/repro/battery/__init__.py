"""Battery models.

This sub-package implements the battery-side substrate of the paper:

* :mod:`repro.battery.units` -- explicit unit conversions (mAh/As, hours/seconds),
* :mod:`repro.battery.profiles` -- deterministic load profiles (constant,
  square-wave, piecewise-constant),
* :mod:`repro.battery.ideal` -- the ideal (linear) battery,
* :mod:`repro.battery.peukert` -- Peukert's law,
* :mod:`repro.battery.kibam` -- the Kinetic Battery Model (KiBaM) with the
  analytical constant-current solution used throughout the paper,
* :mod:`repro.battery.modified_kibam` -- the modified KiBaM of Rao et al.,
* :mod:`repro.battery.parameters` -- parameter containers and fitting helpers
  (deriving ``c`` from delivered capacities and ``k`` from a measured
  lifetime, exactly as described in Section 3).

The parameter container :class:`~repro.battery.parameters.KiBaMParameters`
is part of the public API and is imported from :mod:`repro.api`.
"""

from repro.battery.base import Battery, DischargeResult
from repro.battery.ideal import IdealBattery
from repro.battery.kibam import KiBaMState, KineticBatteryModel
from repro.battery.modified_kibam import ModifiedKineticBatteryModel
from repro.battery.parameters import (
    fit_c_from_capacities,
    fit_k_to_lifetime,
    rao_battery_parameters,
)
from repro.battery.peukert import PeukertBattery, fit_peukert
from repro.battery.profiles import (
    ConstantLoad,
    LoadProfile,
    PiecewiseConstantLoad,
    SquareWaveLoad,
)

__all__ = [
    "Battery",
    "ConstantLoad",
    "DischargeResult",
    "IdealBattery",
    "KiBaMState",
    "KineticBatteryModel",
    "LoadProfile",
    "ModifiedKineticBatteryModel",
    "PeukertBattery",
    "PiecewiseConstantLoad",
    "SquareWaveLoad",
    "fit_c_from_capacities",
    "fit_k_to_lifetime",
    "fit_peukert",
    "rao_battery_parameters",
]
