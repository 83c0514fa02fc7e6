"""Aggregate the committed ``BENCH_*.json`` records into one markdown table.

Run as ``python -m tools.bench_report`` from the repository root (or pass
record paths explicitly).  Every benchmark record the CI bench-smoke job
regenerates and diffs is flattened into one performance table -- metric,
value, the gate it is held to (where the record declares one), and the
git commit / timestamp the numbers were measured at -- so a reviewer can
read the whole perf surface of a revision in one place instead of
opening each JSON record.  Below the table the report gives the size of
the library: the total line count of ``src/**/*.py``.

Gate pairing is by convention: within a record section's ``results``
mapping, keys named ``required_*`` / ``min_*`` are ``>=`` gates,
``max_allowed_*`` / ``tolerance`` are ``<=`` gates, and each gate is
attached to the metric rows sharing its final word stem (so
``required_fused_speedup`` annotates the ``*_speedup`` metrics and
``tolerance`` annotates the ``*_diff`` / ``*_error`` metrics).

The module only reads JSON -- it never imports the benchmark code -- so
it also works on records produced by older revisions.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path
from typing import Any, Iterable

__all__ = ["collect_rows", "load_records", "render_markdown", "src_line_count"]

#: The library sources whose size the report states.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: ``results`` keys that state a bound rather than a measurement, mapped
#: to the comparison their metrics are held to.
_GE_PREFIXES = ("required_", "min_")
_LE_PREFIXES = ("max_allowed_",)


def load_records(paths: Iterable[str | Path]) -> dict[str, dict[str, Any]]:
    """Read every record, keyed by file stem (``BENCH_kernels`` etc.)."""
    records = {}
    for path in sorted(str(entry) for entry in paths):
        with open(path, encoding="utf-8") as handle:
            records[Path(path).stem] = json.load(handle)
    return records


def _is_gate(key: str) -> bool:
    return key == "tolerance" or key.startswith(_GE_PREFIXES + _LE_PREFIXES)


def _gate_label(key: str, value: Any) -> str:
    # ``required_max_overhead``-style keys bound the metric from above
    # despite the ``required_`` prefix; the ``max`` word decides.
    upper = key == "tolerance" or key.startswith(_LE_PREFIXES) or "max" in key.split("_")
    return f"{'<=' if upper else '>='} {_format_value(value)}"


def _pairs_with(gate_key: str, metric_key: str) -> bool:
    """Whether *gate_key* states the bound for *metric_key* (stem match)."""
    if gate_key == "tolerance":
        return "diff" in metric_key or "error" in metric_key
    stem = gate_key.split("_")[-1]
    return stem in metric_key.split("_")


def _format_value(value: Any) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def collect_rows(records: dict[str, dict[str, Any]]) -> list[dict[str, str]]:
    """Flatten every section's ``results`` into table rows."""
    rows = []
    for record_name, record in records.items():
        provenance = record.get("provenance", {})
        commit = str(provenance.get("git_commit", ""))[:12]
        timestamp = str(provenance.get("timestamp", ""))
        for section_name, section in record.items():
            if not isinstance(section, dict):
                continue
            results = section.get("results")
            if not isinstance(results, dict):
                continue
            gates = {key: value for key, value in results.items() if _is_gate(key)}
            for key, value in results.items():
                if _is_gate(key):
                    continue
                matching = [g for g in gates if _pairs_with(g, key)]
                gate = _gate_label(matching[0], gates[matching[0]]) if matching else ""
                rows.append(
                    {
                        "record": record_name,
                        "section": section_name,
                        "metric": key,
                        "value": _format_value(value),
                        "gate": gate,
                        "git": commit,
                        "timestamp": timestamp,
                    }
                )
    return rows


def src_line_count(root: Path = SRC_DIR) -> int:
    """Total number of lines of the Python files under *root*, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def render_markdown(rows: list[dict[str, str]], src_lines: int) -> str:
    """Render the rows as one GitHub-flavoured markdown table.

    *src_lines* is stated below the table as the size of ``src/``.
    """
    columns = ("record", "section", "metric", "value", "gate", "git", "timestamp")
    lines = ["# Benchmark report", ""]
    footer = ["", f"`src/` size: {src_lines} lines of Python (`src/**/*.py`)."]
    if not rows:
        lines.append("No benchmark records found.")
        return "\n".join(lines + footer)
    widths = {
        column: max(len(column), *(len(row[column]) for row in rows)) for column in columns
    }
    lines.append("| " + " | ".join(column.ljust(widths[column]) for column in columns) + " |")
    lines.append("|" + "|".join("-" * (widths[column] + 2) for column in columns) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(row[column].ljust(widths[column]) for column in columns) + " |"
        )
    return "\n".join(lines + footer)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.bench_report",
        description="Aggregate BENCH_*.json records into one markdown perf table.",
    )
    parser.add_argument(
        "records",
        nargs="*",
        metavar="BENCH.json",
        help="record files to aggregate (default: ./BENCH_*.json)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the markdown table to PATH instead of stdout",
    )
    arguments = parser.parse_args(argv)
    paths = arguments.records or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("error: no BENCH_*.json records found", file=sys.stderr)
        return 1
    report = render_markdown(collect_rows(load_records(paths)), src_line_count())
    if arguments.output is None:
        print(report)
    else:
        Path(arguments.output).write_text(report + "\n", encoding="utf-8")
        print(f"wrote {arguments.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
