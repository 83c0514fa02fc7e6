#!/usr/bin/env python
"""Frequency study: why battery lifetime is not just about average power.

This example reproduces the analytical side of the paper's motivation
(Section 3, Table 1 and Figure 2): the same 0.96 A square-wave load is
applied at different switching frequencies to an ideal battery, a Peukert
battery, the KiBaM and the modified KiBaM.  The ideal and Peukert models
predict frequency-independent lifetimes; the KiBaM shows the benefit of
recovery during idle periods, and the discharge trajectory of the two wells
is printed for one slow frequency (the data behind Figure 2).

Run with::

    python examples/frequency_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.battery import (
    ConstantLoad,
    IdealBattery,
    KineticBatteryModel,
    ModifiedKineticBatteryModel,
    PeukertBattery,
    SquareWaveLoad,
    rao_battery_parameters,
)
from repro.battery.units import minutes_from_seconds


def main() -> None:
    parameters = rao_battery_parameters()  # 7200 As, c = 0.625, k = 4.5e-5 /s
    kibam = KineticBatteryModel(parameters)
    modified = ModifiedKineticBatteryModel(parameters)
    ideal = IdealBattery(parameters.capacity)
    # A Peukert battery calibrated to the same continuous-load lifetime.
    continuous_lifetime = kibam.lifetime(ConstantLoad(0.96))
    peukert = PeukertBattery(a=continuous_lifetime * 0.96**1.2, b=1.2)

    loads = [("continuous", ConstantLoad(0.96))] + [
        (f"{frequency:g} Hz square wave", SquareWaveLoad(0.96, frequency=frequency))
        for frequency in (1.0, 0.2, 0.01, 0.001)
    ]

    rows = []
    for name, profile in loads:
        rows.append(
            [
                name,
                minutes_from_seconds(ideal.lifetime(profile, horizon=80000.0) or np.nan),
                minutes_from_seconds(peukert.lifetime(profile, horizon=80000.0) or np.nan),
                minutes_from_seconds(kibam.lifetime(profile) or np.nan),
                minutes_from_seconds(modified.lifetime(profile) or np.nan),
            ]
        )
    print("Lifetimes in minutes for a 0.96 A load (7200 As battery):")
    print(format_table(["load", "ideal", "Peukert", "KiBaM", "modified KiBaM"], rows))
    print()
    print("The ideal and Peukert models cannot distinguish the frequencies;")
    print("the KiBaM family rewards idle periods (recovery effect).")
    print()

    # The Figure 2 trajectory: both wells under the 0.001 Hz square wave.
    profile = SquareWaveLoad(0.96, frequency=0.001)
    times = np.arange(0.0, 13001.0, 1000.0)
    trajectory = kibam.discharge(profile, times)
    rows = [
        [t, y1, y2]
        for t, y1, y2 in zip(trajectory.times, trajectory.available_charge, trajectory.bound_charge)
    ]
    print("Well contents under the 0.001 Hz square wave (Figure 2 of the paper):")
    print(format_table(["t (s)", "available charge (As)", "bound charge (As)"], rows))
    print()
    print(f"The battery is empty after {trajectory.lifetime:.0f} s "
          f"({minutes_from_seconds(trajectory.lifetime):.0f} min).")


if __name__ == "__main__":
    main()
