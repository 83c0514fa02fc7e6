"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent


def span(span_id: str, start: float, end: float, parent: str | None = None,
         pid: int | None = None, hot_top: float = 0.0) -> dict:
    return {"name": "x.y", "span_id": span_id, "parent_id": parent, "start": start, "end": end,
            "pid": os.getpid() if pid is None else pid, "attrs": {}, "hot": {}, "hot_top": hot_top}


def test_union_counts_overlaps_once() -> None:
    assert layers._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert layers._union_length([]) == 0.0


def test_self_time_subtracts_overlapping_worker_spans_and_hot_calls() -> None:
    records = [
        span("root", 0.0, 10.0, hot_top=1.0),
        # Two workers (other processes) whose chunks overlap between 3 and 4.
        span("w1", 2.0, 4.0, pid=-1),
        span("w2", 3.0, 6.0, pid=-2),
        span("child", 7.0, 8.0, parent="root"),
    ]
    selfs = layers.self_times(records)
    assert selfs["root"] == 10.0 - (4.0 + 1.0) - 1.0
    assert selfs["w1"] == 2.0


def test_hot_calls_fold_into_the_enclosing_span(tmp_path) -> None:
    recorder = layers.Recorder("test", tmp_path)

    def inner() -> int:
        return recorder.hot("a.inner", lambda: 1, (), {})

    def outer() -> int:
        return recorder.hot("a.outer", inner, (), {}) + recorder.hot("a.outer", inner, (), {})

    assert recorder.span("a.span", outer, (), {}) == 2
    (record,) = recorder.records
    assert record["hot"]["a.outer"][0] == 2
    assert record["hot"]["a.inner"][0] == 2
    outer_incl, outer_self = record["hot"]["a.outer"][1:]
    assert outer_self <= outer_incl
    assert abs(record["hot_top"] - outer_incl) < 1e-12


def test_inputs_repeat_for_a_seed_and_change_with_it() -> None:
    first = workloads.stratified_capacities(np.random.default_rng(3), 12)
    again = workloads.stratified_capacities(np.random.default_rng(3), 12)
    other = workloads.stratified_capacities(np.random.default_rng(4), 12)
    assert first == again and first != other
    assert all(60.0 + i * 140.0 / 12 <= c < 60.0 + (i + 1) * 140.0 / 12 for i, c in enumerate(first))


def test_cdf_check() -> None:
    assert workloads.cdf_ok([0.0, 0.5, 1.0])
    assert workloads.cdf_ok([0.0, 1.0, 1.0 - 2.2e-16])
    assert not workloads.cdf_ok([0.0, 0.5, 0.4])
    assert not workloads.cdf_ok([0.0, 1.1])
    assert not workloads.cdf_ok([np.nan])


def test_serve_check_groups_answers_by_the_query_asked(tmp_path, monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    workload = workloads.ServeWorkload(seed=1, work_dir=tmp_path)
    workload.SAMPLE = 0
    long_grid = next(i for i, q in enumerate(workload.pool) if len(q.problem.times) == 24)
    short_grid = next(i for i, q in enumerate(workload.pool) if len(q.problem.times) == 12)

    def response(points: int) -> SimpleNamespace:
        cdf = np.linspace(0.0, 1.0, points)
        # One fingerprint for both queries, as a fingerprint that dropped
        # the time grid would give.
        return SimpleNamespace(result=SimpleNamespace(distribution=SimpleNamespace(
            probabilities=cdf)), fingerprint="same", served_from="cache")

    right = workloads.Op(1.0, [(long_grid, response(24)), (short_grid, response(12))], 2)
    assert workload.check([right]) == 0
    mixed_up = workloads.Op(1.0, [(long_grid, response(24)), (short_grid, response(24))], 2)
    assert workload.check([mixed_up]) == 1
