"""The Kinetic Battery Markov reward model (KiBaMRM) of Section 4.2.

Section 4.2 of the paper combines a CTMC workload model with the KiBaM: the
CTMC states are the operating modes of the device, and two accumulated
rewards track the charge in the available- and bound-charge wells.  With
``h1 = y1/c`` and ``h2 = y2/(1-c)`` the reward rates in workload state ``i``
(drawing current ``I_i``) are

.. math::

    r_{i,1}(y_1, y_2) = -I_i + k\\,(h_2 - h_1), \\qquad
    r_{i,2}(y_1, y_2) = -k\\,(h_2 - h_1),

whenever ``h2 > h1 > 0`` (and the drain term ``-I_i`` always applies while
charge is available).  The battery is empty as soon as ``Y_1(t) = 0``; the
lifetime is the first time this happens.

The library never evaluates these continuous reward rates: its expanded
CTMC (:func:`repro.core.discretization.discretize`) writes their
discretised form directly.  This oracle states the rates as the paper
defines them, so the tests can check every transition of a built chain
against the reward rate at its cell divided by ``Delta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.battery.parameters import KiBaMParameters
from repro.workload.base import WorkloadModel

__all__ = ["KiBaMRM"]


@dataclass(frozen=True)
class KiBaMRM:
    """A CTMC workload equipped with the two KiBaM reward variables.

    Attributes
    ----------
    workload:
        The stochastic workload model (rates in 1/s, currents in A).
    battery:
        The KiBaM parameter set (capacity in As, ``c``, ``k`` in 1/s).
    """

    workload: WorkloadModel
    battery: KiBaMParameters

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of workload (CTMC) states."""
        return self.workload.n_states

    @property
    def is_single_well(self) -> bool:
        """Whether the model degenerates to a single well (``c = 1``)."""
        return self.battery.c >= 1.0

    @property
    def reward_bounds(self) -> tuple[float, float]:
        """Upper bounds ``(u1, u2)`` of the two accumulated rewards.

        The available charge never exceeds its initial value ``c C`` (the
        wells only equalise towards each other), and the bound charge never
        exceeds ``(1-c) C``.
        """
        return self.battery.available_capacity, self.battery.bound_capacity

    @property
    def initial_rewards(self) -> tuple[float, float]:
        """Initial accumulated rewards ``(c C, (1-c) C)`` (a full battery)."""
        return self.battery.available_capacity, self.battery.bound_capacity

    # ------------------------------------------------------------------
    def heights(self, available: float, bound: float) -> tuple[float, float]:
        """Return the well heights ``(h1, h2)`` for the given charges."""
        c = self.battery.c
        h1 = available / c
        h2 = bound / (1.0 - c) if c < 1.0 else 0.0
        return h1, h2

    def transfer_rate(self, available: float, bound: float) -> float:
        """Return the bound-to-available flow ``k (h2 - h1)`` (clamped at 0).

        Following Section 4.2, the transfer only takes place while
        ``h2 > h1 > 0``; outside that region the rate is zero.
        """
        if available <= 0.0:
            return 0.0
        h1, h2 = self.heights(available, bound)
        if h2 <= h1:
            return 0.0
        return self.battery.k * (h2 - h1)

    def reward_rates(self, state: int, available: float, bound: float) -> tuple[float, float]:
        """Return ``(r_{i,1}, r_{i,2})`` at the given reward levels.

        The battery is considered empty when the available charge is zero,
        in which case both rates are zero (the empty state is absorbing).
        """
        if not 0 <= state < self.n_states:
            raise ValueError(f"workload state {state} out of range")
        if available <= 0.0:
            return 0.0, 0.0
        current = float(self.workload.currents[state])
        transfer = self.transfer_rate(available, bound)
        return -current + transfer, -transfer

    def reward_rate_matrix(self, available: float, bound: float) -> np.ndarray:
        """Return the ``N x 2`` reward-rate matrix ``R(y1, y2)``."""
        rates = np.zeros((self.n_states, 2))
        if available <= 0.0:
            return rates
        transfer = self.transfer_rate(available, bound)
        rates[:, 0] = -np.asarray(self.workload.currents, dtype=float) + transfer
        rates[:, 1] = -transfer
        return rates
