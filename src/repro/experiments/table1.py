"""Table 1 -- experimental and computed battery lifetimes.

The paper compares, for a 0.96 A load applied continuously and as 1 Hz and
0.2 Hz square waves (50 % duty cycle), the lifetimes measured by Rao et al.
against the plain KiBaM and the modified KiBaM.  The battery is the
2000 mAh (7200 As) cell with ``c = 0.625``; ``k`` is fitted so that the
continuous-load lifetime matches the measured 91 minutes.

Expected outcome (Section 3): the KiBaM (and the deterministically
evaluated modified KiBaM) predicts the *same* lifetime for both square-wave
frequencies, whereas the measurements show a longer lifetime at the slower
frequency -- this mismatch is the motivation for studying lifetime
*distributions* under stochastic workloads.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.battery.kibam import KineticBatteryModel
from repro.battery.modified_kibam import ModifiedKineticBatteryModel
from repro.battery.parameters import fit_k_to_lifetime, rao_battery_parameters
from repro.battery.profiles import ConstantLoad, SquareWaveLoad
from repro.battery.units import minutes_from_seconds, seconds_from_minutes
from repro.experiments.registry import ExperimentConfig, ExperimentResult, register_experiment
from repro.simulation.rng import make_rng

__all__ = ["run", "PAPER_TABLE1"]

#: The lifetimes (in minutes) reported in Table 1 of the paper.
PAPER_TABLE1 = {
    "continuous": {"experimental": 90, "kibam": 91, "modified_numerical": 89, "modified_stochastic": 90},
    "1 Hz": {"experimental": 193, "kibam": 203, "modified_numerical": 193, "modified_stochastic": 193},
    "0.2 Hz": {"experimental": 230, "kibam": 203, "modified_numerical": 193, "modified_stochastic": 226},
}

#: The discharge current used for all Table 1 workloads (amperes).
TABLE1_CURRENT = 0.96


def run(config: ExperimentConfig) -> ExperimentResult:
    """Reproduce Table 1."""
    parameters = rao_battery_parameters()
    kibam = KineticBatteryModel(parameters)
    modified = ModifiedKineticBatteryModel(parameters)
    rng = make_rng(config.seed)

    workloads = {
        "continuous": ConstantLoad(TABLE1_CURRENT),
        "1 Hz": SquareWaveLoad(TABLE1_CURRENT, frequency=1.0),
        "0.2 Hz": SquareWaveLoad(TABLE1_CURRENT, frequency=0.2),
    }

    n_stochastic_runs = 20 if not config.full else 50
    rows = []
    data: dict[str, dict[str, float]] = {}
    for name, profile in workloads.items():
        kibam_minutes = minutes_from_seconds(kibam.lifetime(profile))
        modified_minutes = minutes_from_seconds(modified.lifetime(profile))
        stochastic_minutes = minutes_from_seconds(
            modified.mean_stochastic_lifetime(profile, rng, n_runs=n_stochastic_runs)
        )
        experimental = PAPER_TABLE1[name]["experimental"]
        rows.append(
            [name, experimental, round(kibam_minutes, 1), round(modified_minutes, 1), round(stochastic_minutes, 1)]
        )
        data[name] = {
            "experimental_min": float(experimental),
            "kibam_min": kibam_minutes,
            "modified_numerical_min": modified_minutes,
            "modified_stochastic_min": stochastic_minutes,
        }

    # The paper also fits k from the measured continuous lifetime; repeating
    # that fit documents where the 4.5e-5 /s constant comes from.
    fitted_k = fit_k_to_lifetime(
        parameters.capacity, parameters.c, TABLE1_CURRENT, seconds_from_minutes(91.0)
    )
    data["fitted_k_per_second"] = fitted_k

    table = format_table(
        [
            "frequency",
            "experimental (min, from paper)",
            "KiBaM (min)",
            "modified KiBaM (min)",
            "modified KiBaM stochastic (min)",
        ],
        rows,
    )
    fitted_table = format_table(
        ["quantity", "value"], [["k (1/s)", fitted_k], ["paper k (1/s)", 4.5e-5]]
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Experimental and computed lifetimes (Table 1)",
        tables={"lifetimes": table, "fitted k": fitted_table},
        data=data,
        paper_reference={
            "table": PAPER_TABLE1,
            "key observation": "KiBaM and (deterministic) modified KiBaM are frequency-independent; measurements are not",
        },
        notes=[
            "The experimental column quotes the measurements of Rao et al. as reported in the paper.",
            "The modified-KiBaM recovery law is the documented substitution of DESIGN.md; "
            "the paper itself reports an unresolved discrepancy for the stochastic variant at 0.2 Hz.",
        ],
    )


register_experiment("table1", run)
