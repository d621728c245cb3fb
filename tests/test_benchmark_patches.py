"""The benchmark's traced run patches ftcc functions by module and name.

A patch target that no longer exists is skipped silently there, so a
refactor that renames or drops one is caught here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attr, span", load_patches())
def test_patch_target_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_every_patch_target_is_called(monkeypatch):
    """A target that resolves but is never called would read as a zero span."""
    from ftcc.runtime import initialize, run_closed_loop
    from ftcc.scenario import load_scenario

    calls = {}
    for module_name, attr, _ in load_patches():
        module = importlib.import_module(module_name)
        key = (module_name, attr)
        calls[key] = 0

        def counted(*args, _fn=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    cfg = load_scenario("paper-4node")
    run_closed_loop(cfg, initialize(cfg), horizon=1)
    assert [key for key, count in calls.items() if count == 0] == []
