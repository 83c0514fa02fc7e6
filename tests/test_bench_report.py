"""Tests of the aggregated benchmark report (``python -m tools.bench_report``)."""

from __future__ import annotations

import json

from tools.bench_report import main, src_line_count


def test_report_renders_records_and_the_src_size(tmp_path) -> None:
    fused = tmp_path / "BENCH_fused.json"
    fused.write_text(json.dumps({
        "provenance": {"git_commit": "0123456789abcdef", "timestamp": "2026-01-01T00:00:00+00:00"},
        "fused_kronecker": {"results": {"fused_apply_speedup": 1.7, "required_fused_speedup": 1.3}},
    }))
    checks = tmp_path / "BENCH_checks.json"
    checks.write_text(json.dumps({
        "checks_off_overhead": {"results": {"overhead_fraction": 4e-7, "required_max_overhead": 0.01}},
    }))
    output = tmp_path / "report.md"

    assert main([str(fused), str(checks), "--output", str(output)]) == 0
    lines = output.read_text(encoding="utf-8").splitlines()
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines if line.startswith("| BENCH")]
    assert [(row[0], row[2], row[3], row[4], row[5]) for row in cells] == [
        ("BENCH_checks", "overhead_fraction", "4e-07", "<= 0.01", ""),
        ("BENCH_fused", "fused_apply_speedup", "1.7", ">= 1.3", "0123456789ab"),
    ]
    assert lines[-1] == f"`src/` size: {src_line_count()} lines of Python (`src/**/*.py`)."

    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not python\n")
    assert src_line_count(tmp_path / "src") == 3
