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
