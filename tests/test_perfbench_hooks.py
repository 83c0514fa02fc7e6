"""The benchmark's traced run wraps names the program must keep.

``perfbench/layers.py`` wraps public functions and methods along the solve
path (``ScipyKernel.run_segment``, ``UniformizedOperator.apply``,
``uniformization.cached_poisson_weights``, ...) for its per-layer trace.
Installing and removing those wrappers here makes a change that renames
or deletes a wrapped name fail the unit suite instead of the benchmark.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _current(owner: object, attr: str) -> object:
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_uninstall_restores_every_wrapped_attribute(tmp_path, monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    undo = layers.install(layers.Recorder("hooks", tmp_path))
    wrapped = list(undo)
    try:
        assert len(wrapped) == 24
        for owner, attr, original in wrapped:
            assert _current(owner, attr) is not original, attr
    finally:
        layers.uninstall(undo)
    for owner, attr, original in wrapped:
        assert _current(owner, attr) is original, attr


def test_traced_products_match_each_solve(tmp_path, monkeypatch) -> None:
    """Every ``v·P`` of a solve reaches the product hook inside its segment spans.

    ``us_per_product`` divides the hooked product time by the products the
    segments report; a kernel that stopped calling ``spmm`` per product
    would zero it without failing anything else.
    """
    import numpy as np

    from repro.api import ScenarioBatch
    from repro.battery.parameters import KiBaMParameters
    from repro.engine.problem import LifetimeProblem
    from repro.workload.base import WorkloadModel

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    workload = WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([0.5, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
    )

    def problem(capacity: float) -> LifetimeProblem:
        return LifetimeProblem(
            workload=workload,
            battery=KiBaMParameters(capacity=capacity, c=1.0, k=0.0),
            times=np.linspace(50.0, 300.0, 6),
            delta=2.0,
        )

    for group in ([problem(30.0)], [problem(30.0), problem(20.0)]):
        recorder = layers.Recorder("hooks", tmp_path)
        undo = layers.install(recorder)
        try:
            results = ScenarioBatch(group).run("mrm-uniformization").results
        finally:
            layers.uninstall(undo)
        if len(group) > 1:
            assert results[0].diagnostics["batch_rows"] == len(group)
        products = sum(
            record["hot"].get("markov.kernels.product", [0])[0]
            for record in recorder.records
            if record["name"] == "markov.kernels.segment"
        )
        iterations = {result.diagnostics["iterations"] for result in results}
        assert iterations == {products}
        assert products > 0
