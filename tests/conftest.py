"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.battery.parameters import KiBaMParameters, rao_battery_parameters
from repro.workload.burst import burst_workload
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload

# Default the structural chain validators to ``strict`` for the whole
# suite, the mode CI exports as well: a contract violation in a chain
# construction raises instead of passing silently.  The mode is re-read
# on every check, so setting it here covers every test regardless of
# import order.
os.environ.setdefault("REPRO_CHECKS", "strict")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random-number generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_battery() -> KiBaMParameters:
    """The 2000 mAh battery of the paper (7200 As, c=0.625, k=4.5e-5/s)."""
    return rao_battery_parameters()


@pytest.fixture
def single_well_battery() -> KiBaMParameters:
    """The degenerate single-well battery of Figure 7 (c=1, k=0)."""
    return KiBaMParameters(capacity=7200.0, c=1.0, k=0.0)


@pytest.fixture
def small_battery() -> KiBaMParameters:
    """A small battery that empties quickly (for fast integration tests)."""
    return KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)


@pytest.fixture
def onoff_model():
    """The 1 Hz Erlang-1 on/off workload of Section 6.1."""
    return onoff_workload(frequency=1.0, erlang_k=1)


@pytest.fixture
def simple_model():
    """The three-state simple workload of Section 4.3."""
    return simple_workload()


@pytest.fixture
def burst_model():
    """The five-state burst workload of Section 4.3."""
    return burst_workload()


@pytest.fixture
def three_state_generator() -> np.ndarray:
    """A small irreducible generator used by several CTMC tests."""
    return np.array(
        [
            [-3.0, 2.0, 1.0],
            [4.0, -5.0, 1.0],
            [0.5, 0.5, -1.0],
        ]
    )


@pytest.fixture
def strict_checks():
    """Run the enclosed code with ``REPRO_CHECKS=strict`` (violations raise)."""
    from repro.checking import override_checks

    with override_checks("strict"):
        yield
