"""Tests of the ``repro.api`` public facade.

The facade is the one documented surface: three verbs (``solve`` /
``sweep`` / ``serve``) plus the blessed types, all named in an explicit
``__all__``.  ``repro`` re-exports exactly that ``__all__``, and no other
package ``__init__`` binds one of its names.
"""

from __future__ import annotations

import importlib
import pkgutil
import types

import numpy as np
import pytest

import repro
import repro.api as api
from repro.battery.parameters import KiBaMParameters
from repro.workload.base import WorkloadModel

TIMES = np.linspace(0.0, 300.0, 16)

WORKLOAD = WorkloadModel(
    state_names=("busy", "idle"),
    generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
    currents=np.array([1.0, 0.05]),
    initial_distribution=np.array([1.0, 0.0]),
)

BATTERY = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)


def make_problem() -> "api.LifetimeProblem":
    return api.LifetimeProblem(
        workload=WORKLOAD, battery=BATTERY, times=TIMES, delta=2.0, epsilon=1e-6
    )


class TestSurface:
    def test_all_names_exist_and_are_exhaustive(self) -> None:
        assert sorted(api.__all__) == sorted(set(api.__all__))
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_verbs_are_present(self) -> None:
        assert callable(api.solve)
        assert callable(api.sweep)
        assert callable(api.serve)

    def test_facade_reexports_are_the_deep_objects(self) -> None:
        from repro.engine.options import RunOptions
        from repro.engine.problem import LifetimeProblem
        from repro.engine.result import LifetimeResult
        from repro.engine.sweep import SweepCache, SweepSpec, scenario_fingerprint
        from repro.service.query import LifetimeQuery
        from repro.service.server import LifetimeService

        assert api.LifetimeProblem is LifetimeProblem
        assert api.LifetimeResult is LifetimeResult
        assert api.LifetimeQuery is LifetimeQuery
        assert api.LifetimeService is LifetimeService
        assert api.RunOptions is RunOptions
        assert api.SweepSpec is SweepSpec
        assert api.SweepCache is SweepCache
        assert api.scenario_fingerprint is scenario_fingerprint

    def test_one_facade(self) -> None:
        """``repro`` mirrors ``repro.api``; no other package re-exports its names."""
        assert repro.__all__ == [*api.__all__, "__version__"]
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name
        engine = importlib.import_module("repro.engine")
        for name, value in vars(engine).items():
            if not name.startswith("_"):
                assert isinstance(value, types.ModuleType), f"repro.engine binds {name}"
        packages = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
        assert {"repro.engine", "repro.service"} <= set(packages)
        for package_name in packages:
            package = importlib.import_module(package_name)
            assert not set(getattr(package, "__all__", ())) & set(api.__all__), package_name
            for name in api.__all__:
                bound = getattr(package, name, None)
                assert bound is None or isinstance(bound, types.ModuleType), f"{package_name} binds {name}"

    def test_top_level_exports_service_types(self) -> None:
        assert repro.LifetimeService is api.LifetimeService
        assert repro.LifetimeQuery is api.LifetimeQuery
        assert repro.RunOptions is api.RunOptions
        for name in ("LifetimeQuery", "LifetimeService", "RunOptions"):
            assert name in repro.__all__


class TestVerbs:
    def test_solve(self) -> None:
        result = api.solve(make_problem(), "mrm-uniformization")
        assert isinstance(result, api.LifetimeResult)
        assert result.method == "mrm-uniformization"
        assert float(result.probabilities[-1]) > 0.0

    def test_solve_with_workspace(self) -> None:
        workspace = api.SolveWorkspace()
        api.solve(make_problem(), "mrm-uniformization", workspace=workspace)
        assert workspace.diagnostics()["chain_builds"] == 1

    def test_sweep_takes_run_options(self) -> None:
        cache = api.SweepCache()
        outcome = api.sweep(
            [make_problem()],
            "mrm-uniformization",
            options=api.RunOptions(max_workers=1, cache=cache),
        )
        assert isinstance(outcome, api.SweepResult)
        assert len(cache) == 1

    def test_sweep_rejects_legacy_kwargs(self) -> None:
        from repro.engine.sweep import run_sweep

        with pytest.raises(TypeError):
            api.sweep([make_problem()], "mrm-uniformization", max_workers=1)
        with pytest.raises(TypeError):
            run_sweep([make_problem()], "mrm-uniformization", max_workers=1)

    def test_serve(self) -> None:
        service = api.serve(max_entries=4)
        assert isinstance(service, api.LifetimeService)
        assert service.store.max_entries == 4
        response = service.query(WORKLOAD, BATTERY, TIMES, delta=2.0, epsilon=1e-6)
        assert isinstance(response, api.ServiceResponse)
        assert response.served_from == "solve"

    def test_serve_honours_run_options_cache(self, tmp_path) -> None:
        service = api.serve(options=api.RunOptions(cache_dir=tmp_path))
        assert service.store.directory == str(tmp_path)
