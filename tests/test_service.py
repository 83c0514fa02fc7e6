"""Tests of the lifetime-query service (``repro.service``).

Request coalescing (N concurrent identical queries -> exactly one solve,
asserted through the ``repro.obs`` solve counters; distinct-fingerprint
queries never share results), the fingerprint-keyed result store with
LRU eviction and per-window resettable counters, the warm-workspace
reuse across requests, schema-validated response diagnostics, the
``RunOptions`` consolidation, and the JSONL / HTTP fronts of
``tools/repro_serve.py``.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.battery.parameters import KiBaMParameters
from repro.checking.fingerprints import audit_fingerprint_registry
from repro.engine import (
    RunOptions,
    SweepCache,
    SweepSpec,
    UnknownSolverError,
    run_sweep,
    scenario_fingerprint,
)
from repro.engine.diagnostics import validate_diagnostics
from repro.service import LifetimeQuery, LifetimeService
from repro.service.server import DEFAULT_STORE_ENTRIES
from repro.workload.base import WorkloadModel

TIMES = np.linspace(0.0, 300.0, 16)

WORKLOAD = WorkloadModel(
    state_names=("busy", "idle"),
    generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
    currents=np.array([1.0, 0.05]),
    initial_distribution=np.array([1.0, 0.0]),
)

BATTERY = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)


def make_query(**overrides) -> LifetimeQuery:
    from repro.engine.problem import LifetimeProblem

    problem_kwargs = dict(
        workload=WORKLOAD, battery=BATTERY, times=TIMES, delta=2.0, epsilon=1e-6
    )
    method = overrides.pop("method", "auto")
    label = overrides.pop("label", None)
    problem_kwargs.update(overrides)
    return LifetimeQuery(
        problem=LifetimeProblem(**problem_kwargs), method=method, label=label
    )


def total_solves(counters: dict[str, int]) -> int:
    return sum(value for name, value in counters.items() if name.startswith("solves."))


class TestLifetimeQuery:
    def test_auto_resolves_to_concrete_method(self) -> None:
        query = make_query()
        assert query.method == "auto"
        assert query.concrete_method() in ("analytic", "mrm-uniformization", "monte-carlo")

    def test_fingerprint_matches_sweep_fingerprint(self) -> None:
        query = make_query()
        assert query.fingerprint() == scenario_fingerprint(
            query.problem, query.concrete_method()
        )

    def test_label_is_fingerprint_exempt(self) -> None:
        assert make_query(label="a").fingerprint() == make_query(label="b").fingerprint()

    def test_auto_and_explicit_concrete_method_coalesce(self) -> None:
        query = make_query()
        explicit = make_query(method=query.concrete_method())
        assert query.fingerprint() == explicit.fingerprint()

    def test_empty_method_rejected(self) -> None:
        with pytest.raises(ValueError, match="non-empty"):
            make_query(method="")

    def test_registered_in_fingerprint_audit(self) -> None:
        audit_fingerprint_registry()

    def test_from_mapping_round_trip(self) -> None:
        payload = {
            "workload": {
                "state_names": ["busy", "idle"],
                "generator": [[-0.02, 0.02], [0.02, -0.02]],
                "currents": [1.0, 0.05],
                "initial_distribution": [1.0, 0.0],
            },
            "battery": {"capacity": 60.0, "c": 0.625, "k": 1e-3},
            "times": {"start": 0.0, "stop": 300.0, "num": 16},
            "delta": 2.0,
            "epsilon": 1e-6,
            "label": "wire",
        }
        query = LifetimeQuery.from_mapping(payload)
        assert query.label == "wire"
        assert query.fingerprint() == make_query().fingerprint()
        # The label must ride on the query only: a problem-level label
        # would be baked into the stored result and leak the first
        # requester's label to every later cache hit of the fingerprint.
        assert query.problem.label is None

    @pytest.mark.parametrize(
        ("extra", "field"),
        [({"transient_mode": "single-pass"}, "transient_mode"), ({"n_runs": float("nan")}, "n_runs")],
        ids=["unknown-field", "nan-n-runs"],
    )
    def test_from_mapping_names_the_bad_field(self, extra, field) -> None:
        payload = dict(TestServeFronts.QUERY_DOCUMENT, **extra)
        with pytest.raises(ValueError, match=field):
            LifetimeQuery.from_mapping(payload)

    def test_label_does_not_leak_through_the_store(self) -> None:
        service = LifetimeService()
        labelled = make_query(label="first-requester")
        plain = make_query()
        assert service.submit(labelled).result.label == "first-requester"
        repeat = service.submit(plain)
        assert repeat.served_from == "cache"
        assert repeat.result.label != "first-requester"


class TestCoalescing:
    def test_concurrent_identical_queries_single_solve(self) -> None:
        service = LifetimeService()
        query = make_query()
        responses = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            responses.append(service.submit(query))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        with obs.override_metrics() as registry:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            counters = registry.snapshot()["counters"]

        assert total_solves(counters) == 1
        served = sorted(response.served_from for response in responses)
        # Exactly one request ran the solver; the stragglers either joined
        # the in-flight solve or (arriving after it finished) hit the store.
        assert served.count("solve") == 1
        assert len(responses) == 8
        reference = responses[0].result.probabilities
        for response in responses:
            np.testing.assert_array_equal(response.result.probabilities, reference)
            assert response.fingerprint == query.fingerprint()
        assert service.stats()["inflight"] == 0

    def test_distinct_fingerprints_never_share_results(self) -> None:
        service = LifetimeService()
        small = make_query()
        large = make_query(battery=KiBaMParameters(capacity=90.0, c=0.625, k=1e-3))
        assert small.fingerprint() != large.fingerprint()
        responses = {}
        barrier = threading.Barrier(2)

        def worker(name: str, query: LifetimeQuery) -> None:
            barrier.wait()
            responses[name] = service.submit(query)

        threads = [
            threading.Thread(target=worker, args=("small", small)),
            threading.Thread(target=worker, args=("large", large)),
        ]
        with obs.override_metrics() as registry:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            counters = registry.snapshot()["counters"]

        assert total_solves(counters) == 2
        assert responses["small"].fingerprint != responses["large"].fingerprint
        assert not np.array_equal(
            responses["small"].result.probabilities,
            responses["large"].result.probabilities,
        )
        # A bigger battery survives longer: the curves genuinely differ.
        assert responses["large"].result.probabilities[-1] < (
            responses["small"].result.probabilities[-1]
        )

    def test_failed_solve_propagates_and_clears_inflight(self) -> None:
        service = LifetimeService()
        with pytest.raises(UnknownSolverError):
            service.submit(make_query(method="carrier-pigeon"))
        assert service.stats()["inflight"] == 0
        # The service stays usable after a failed query.
        assert service.submit(make_query()).served_from == "solve"


class TestServing:
    def test_repeat_query_served_from_store(self) -> None:
        service = LifetimeService()
        first = service.query(WORKLOAD, BATTERY, TIMES, delta=2.0, epsilon=1e-6)
        second = service.query(WORKLOAD, BATTERY, TIMES, delta=2.0, epsilon=1e-6)
        assert first.served_from == "solve"
        assert second.served_from == "cache"
        assert second.query_id == first.query_id + 1
        np.testing.assert_array_equal(
            first.result.probabilities, second.result.probabilities
        )

    def test_response_diagnostics_schema_valid(self) -> None:
        service = LifetimeService()
        response = service.submit(make_query())
        validate_diagnostics(response.diagnostics)
        assert response.diagnostics["served_from"] == "solve"
        assert response.diagnostics["query_fingerprint"] == response.fingerprint
        assert response.diagnostics["query_id"] == response.query_id
        assert response.diagnostics["service_latency_seconds"] == pytest.approx(
            response.latency_seconds
        )
        # Solver telemetry is preserved underneath the service keys.
        assert response.diagnostics["wall_seconds"] >= 0.0

    def test_query_accepts_ready_problem(self) -> None:
        service = LifetimeService()
        query = make_query()
        response = service.query(query.problem)
        assert response.served_from == "solve"
        with pytest.raises(TypeError, match="not both"):
            service.query(query.problem, BATTERY)

    def test_label_stamped_on_response(self) -> None:
        service = LifetimeService()
        response = service.submit(make_query(label="request-7"))
        assert response.result.label == "request-7"
        # ... without fragmenting the store: a differently-labelled repeat hits.
        assert service.submit(make_query(label="request-8")).served_from == "cache"

    def test_workspace_stays_warm_across_distinct_queries(self) -> None:
        service = LifetimeService()
        other_times = np.linspace(0.0, 600.0, 12)
        first = service.query(WORKLOAD, BATTERY, TIMES, delta=2.0, epsilon=1e-6)
        second = service.query(WORKLOAD, BATTERY, other_times, delta=2.0, epsilon=1e-6)
        assert first.fingerprint != second.fingerprint
        assert second.served_from == "solve"
        workspace = service.stats()["workspace"]
        # Same chain, different time grid: the discretised chain is reused.
        assert workspace["chain_builds"] == 1
        assert workspace["chain_build_hits"] >= 1

    def test_shared_store_with_sweeps(self, tmp_path) -> None:
        """A sweep's disk cache answers the service (and vice versa)."""
        store = SweepCache(tmp_path)
        spec = SweepSpec(
            workloads=["simple"],
            batteries=[BATTERY],
            times=np.linspace(10.0, 400.0, 8),
            methods=["mrm-uniformization"],
        )
        run_sweep(spec, options=RunOptions(max_workers=1, cache=store))
        service = LifetimeService(options=RunOptions(cache=store))
        problems, methods = spec.scenarios()
        response = service.submit(LifetimeQuery(problem=problems[0], method=methods[0]))
        assert response.served_from == "cache"


class TestWindowStats:
    def test_reset_window_returns_snapshot_and_zeroes_counters(self) -> None:
        service = LifetimeService()
        service.submit(make_query())
        service.submit(make_query())
        closed = service.reset_window()
        assert closed["served"] == {"solve": 1, "cache": 1, "coalesced": 0}
        assert closed["store"]["hits"] == 1
        assert closed["store"]["misses"] == 1
        fresh = service.stats()
        assert fresh["served"] == {"solve": 0, "cache": 0, "coalesced": 0}
        assert fresh["store"]["hits"] == 0
        assert fresh["store"]["misses"] == 0
        # State survives the window boundary: entries stay, queries keep counting.
        assert fresh["store"]["entries"] == 1
        assert fresh["queries"] == 2
        assert service.submit(make_query()).served_from == "cache"

    def test_cache_reset_stats_is_window_scoped(self, tmp_path) -> None:
        cache = SweepCache(tmp_path)
        assert cache.get("missing") is None
        snapshot = cache.reset_stats()
        assert snapshot["misses"] == 1
        after = cache.stats()
        assert after["misses"] == 0
        assert after["hits"] == 0


class TestStoreEviction:
    def _result(self, tag: str):
        from repro.analysis.distribution import LifetimeDistribution
        from repro.engine.result import LifetimeResult

        return LifetimeResult(
            distribution=LifetimeDistribution(
                times=np.array([1.0, 2.0]), probabilities=np.array([0.0, 1.0]), label=tag
            ),
            method="analytic",
        )

    def test_lru_eviction_bounds_memory(self) -> None:
        cache = SweepCache(max_entries=2)
        cache.put("a", self._result("a"))
        cache.put("b", self._result("b"))
        cache.put("c", self._result("c"))
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get("a") is None  # oldest entry evicted
        assert cache.get("c") is not None

    def test_get_refreshes_recency(self) -> None:
        cache = SweepCache(max_entries=2)
        cache.put("a", self._result("a"))
        cache.put("b", self._result("b"))
        assert cache.get("a") is not None  # refresh "a"
        cache.put("c", self._result("c"))
        assert cache.get("b") is None  # "b" was the least recently used
        assert cache.get("a") is not None

    def test_eviction_keeps_disk_entries(self, tmp_path) -> None:
        cache = SweepCache(tmp_path, max_entries=1)
        cache.put("a", self._result("a"))
        cache.put("b", self._result("b"))
        assert len(cache) == 1
        assert cache.stats()["disk_entries"] == 2
        # The evicted entry degrades to a disk re-load, not a re-solve.
        assert cache.get("a") is not None
        assert cache.stats()["disk_hits"] == 1

    def test_max_entries_validation(self) -> None:
        with pytest.raises(ValueError, match="max_entries"):
            SweepCache(max_entries=0)

    def test_store_built_from_a_cache_dir_is_lru_bounded(self, tmp_path) -> None:
        import argparse

        from repro.api import serve
        from tools.repro_serve import build_service

        via_api = serve(options=RunOptions(cache_dir=tmp_path / "api"), max_entries=1)
        via_cli = build_service(argparse.Namespace(store=str(tmp_path / "cli"), max_entries=1))
        for service in (via_api, via_cli):
            assert service.store.max_entries == 1
            first, second = make_query(), make_query(delta=3.0)
            service.submit(first)
            service.submit(second)
            assert len(service.store) == 1
            # The evicted entry reloads from disk instead of re-solving.
            assert service.submit(first).served_from == "cache"
            assert service.store.disk_hits == 1
        default = serve(options=RunOptions(cache_dir=tmp_path / "default"))
        assert default.store.max_entries == DEFAULT_STORE_ENTRIES
        for unbounded in (serve(max_entries=None), LifetimeService(max_entries=None)):
            assert unbounded.store.max_entries is None


class TestRunOptions:
    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="max_workers"):
            RunOptions(max_workers=0)

    def test_resolve_cache_prefers_explicit(self, tmp_path) -> None:
        cache = SweepCache()
        assert RunOptions(cache=cache).resolve_cache() is cache
        built = RunOptions(cache_dir=tmp_path).resolve_cache()
        assert isinstance(built, SweepCache)
        assert built.directory == str(tmp_path)
        assert RunOptions().resolve_cache() is None

    def test_run_sweep_options_spelling_emits_no_warning(self) -> None:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            outcome = run_sweep(
                [make_query().problem],
                "mrm-uniformization",
                options=RunOptions(max_workers=1),
            )
        assert len(outcome.results) == 1


class TestServeFronts:
    QUERY_DOCUMENT = {
        "workload": {
            "state_names": ["busy", "idle"],
            "generator": [[-0.02, 0.02], [0.02, -0.02]],
            "currents": [1.0, 0.05],
            "initial_distribution": [1.0, 0.0],
        },
        "battery": {"capacity": 60.0, "c": 0.625, "k": 1e-3},
        "times": {"start": 0.0, "stop": 300.0, "num": 16},
        "delta": 2.0,
        "epsilon": 1e-6,
        "label": "wire",
    }

    def test_jsonl_front(self) -> None:
        from tools.repro_serve import run_jsonl

        service = LifetimeService()
        # Python's json reads NaN, so a NaN time reaches the query builder;
        # Monte-Carlo would answer it with 1.0 unless it is rejected.
        nan_time = dict(self.QUERY_DOCUMENT, times=[float("nan"), 60.0], method="monte-carlo")
        lines = [json.dumps(self.QUERY_DOCUMENT)] * 2 + ["{broken", json.dumps(nan_time)]
        sink = io.StringIO()
        failures = run_jsonl(service, io.StringIO("\n".join(lines) + "\n"), sink)
        documents = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert failures == 2
        assert [doc.get("served_from") for doc in documents] == ["solve", "cache", None, None]
        assert "error" in documents[2]
        assert "times must be finite" in documents[3]["error"]
        assert documents[0]["label"] == "wire"
        assert documents[0]["diagnostics"]["served_from"] == "solve"
        assert len(documents[0]["probabilities"]) == 16

    def test_cli_main_reads_stdin_with_dash(self, monkeypatch, capsys) -> None:
        from tools.repro_serve import main

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(self.QUERY_DOCUMENT) + "\n")
        )
        assert main(["-"]) == 0
        document = json.loads(capsys.readouterr().out.splitlines()[0])
        assert document["served_from"] == "solve"
        assert document["label"] == "wire"

    def test_http_front(self) -> None:
        from http.server import ThreadingHTTPServer

        from tools.repro_serve import _make_handler

        service = LifetimeService()
        server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(service))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            body = json.dumps(self.QUERY_DOCUMENT).encode()
            for expected in ("solve", "cache"):
                request = urllib.request.Request(
                    base + "/query", data=body, headers={"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(request) as reply:
                    document = json.loads(reply.read())
                assert document["served_from"] == expected

            with urllib.request.urlopen(base + "/healthz") as reply:
                assert json.loads(reply.read()) == {"ok": True}

            with urllib.request.urlopen(base + "/stats") as reply:
                stats = json.loads(reply.read())
            assert stats["served"] == {"solve": 1, "cache": 1, "coalesced": 0}

            reset = urllib.request.Request(base + "/stats/reset", data=b"", method="POST")
            with urllib.request.urlopen(reset) as reply:
                closed = json.loads(reply.read())
            assert closed["served"]["solve"] == 1
            with urllib.request.urlopen(base + "/stats") as reply:
                assert json.loads(reply.read())["served"]["solve"] == 0

            bad = urllib.request.Request(
                base + "/query", data=b"{broken", headers={"Content-Type": "application/json"}
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad)
            assert excinfo.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
