"""Self-tests of the repository lint rules in ``tools/repro_lint.py``.

One violating snippet per rule (fed through :func:`lint_source`), the
pragma escape hatch, and a repo-wide run asserting the tree is clean --
the same invocation the CI static-analysis job performs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from tools.repro_lint import RULES, Violation, lint_source, run_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(violations: list[Violation]) -> list[str]:
    return [violation.rule for violation in violations]


# ----------------------------------------------------------------------
# RPR001 -- unguarded densification
# ----------------------------------------------------------------------


def test_rpr001_flags_toarray_on_any_matrix() -> None:
    violations = lint_source("dense = chain.generator.toarray()\n", "src/x.py")
    assert rules_of(violations) == ["RPR001"]
    assert "toarray" in violations[0].message


def test_rpr001_flags_todense_too() -> None:
    violations = lint_source("dense = matrix.todense()\n", "src/x.py")
    assert rules_of(violations) == ["RPR001"]


def test_rpr001_flags_asarray_of_chain_generators() -> None:
    violations = lint_source(
        "import numpy as np\ndense = np.asarray(chain.generator)\n", "src/x.py"
    )
    assert rules_of(violations) == ["RPR001"]


def test_rpr001_ignores_asarray_of_workload_generators() -> None:
    # Workload generators are dense-by-design (a handful of states);
    # normalising them through np.asarray is not an escape.
    violations = lint_source(
        "import numpy as np\ndense = np.asarray(workload.generator)\n", "src/x.py"
    )
    assert violations == []


def test_rpr001_allowlists_the_dense_boundary_module() -> None:
    source = "dense = generator.toarray()\n"
    assert rules_of(lint_source(source, "src/repro/checking/dense.py")) == []
    assert rules_of(lint_source(source, "src/repro/engine/solvers.py")) == ["RPR001"]


def test_rpr001_pragma_opts_out_one_line() -> None:
    source = "dense = small.toarray()  # repro-lint: allow RPR001 (bounded)\n"
    assert lint_source(source, "src/x.py") == []


# ----------------------------------------------------------------------
# RPR002 -- global-state RNG
# ----------------------------------------------------------------------


def test_rpr002_flags_global_rng_calls() -> None:
    source = (
        "import numpy as np\n"
        "np.random.seed(0)\n"
        "draw = np.random.uniform(size=3)\n"
    )
    assert rules_of(lint_source(source, "src/x.py")) == ["RPR002", "RPR002"]


def test_rpr002_allows_generator_construction() -> None:
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng(7)\n"
        "seq = np.random.SeedSequence(7)\n"
        "bits = np.random.PCG64(7)\n"
    )
    assert lint_source(source, "src/x.py") == []


# ----------------------------------------------------------------------
# RPR003 -- fingerprint registry coverage
# ----------------------------------------------------------------------


def test_rpr003_flags_an_unregistered_problem_field() -> None:
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class LifetimeProblem:\n"
        "    sneaky_knob: float = 1.0\n"
    )
    violations = lint_source(source, "src/x.py")
    assert rules_of(violations) == ["RPR003"]
    assert "sneaky_knob" in violations[0].message


def test_rpr003_accepts_registered_fields() -> None:
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class SweepSpec:\n"
        "    methods: tuple = ('auto',)\n"
        "    transient_mode: str = 'incremental'\n"
    )
    assert lint_source(source, "src/x.py") == []


def test_rpr003_covers_subtypes_by_base_name() -> None:
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class MultiBatteryProblem(LifetimeProblem):\n"
        "    rogue_field: int = 0\n"
    )
    assert rules_of(lint_source(source, "src/x.py")) == ["RPR003"]


# ----------------------------------------------------------------------
# RPR004 -- diagnostics schema
# ----------------------------------------------------------------------


def test_rpr004_flags_an_unknown_diagnostics_key() -> None:
    source = "diagnostics = {'made_up_key': 1}\n"
    violations = lint_source(source, "src/x.py")
    assert rules_of(violations) == ["RPR004"]
    assert "made_up_key" in violations[0].message


def test_rpr004_flags_subscript_stores() -> None:
    source = "diagnostics['another_fake'] = 2\n"
    assert rules_of(lint_source(source, "src/x.py")) == ["RPR004"]


def test_rpr004_accepts_schema_keys() -> None:
    source = (
        "diagnostics = {'delta': 0.1, 'n_states': 10}\n"
        "diagnostics['iterations'] = 15\n"
    )
    assert lint_source(source, "src/x.py") == []


# ----------------------------------------------------------------------
# whole-repo invariants
# ----------------------------------------------------------------------


def test_rules_table_is_complete() -> None:
    assert set(RULES) == {"RPR001", "RPR002", "RPR003", "RPR004"}


def test_repository_is_lint_clean() -> None:
    violations = run_paths(["src", "tests", "benchmarks"], root=REPO_ROOT)
    assert violations == [], "\n".join(v.render() for v in violations)


def test_module_entry_point_runs_clean() -> None:
    completed = subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "repro-lint: clean" in completed.stdout
