"""The benchmark's traced run patches ftcc functions by module and name.

A patch target that no longer exists is skipped silently there, so a
refactor that renames or drops one is caught here instead.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
# Targets the package no longer has, which the tracer skips: the max rounds
# are array rounds, so ftcc.consensus exchanges no messages; initialize does
# not re-check the plant, which a ScenarioConfig checks on construction (the
# traced plant.check is the ftcc.scenario call).  The run report and the
# tracer's retirement (ROADMAP items 1 and 6) drop the entries.
RETIRED = {
    ("ftcc.consensus", "round_exchange"),
    ("ftcc.runtime", "require_jointly_controllable_observable"),
}


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attr, span", load_patches())
def test_patch_target_resolves(module_name, attr, span):
    target = getattr(importlib.import_module(module_name), attr, None)
    if (module_name, attr) in RETIRED:
        assert target is None, f"{span}: retired, yet {module_name}.{attr} resolves"
    else:
        assert callable(target), span


def test_every_patch_target_is_called(monkeypatch):
    """A target that resolves but is never called would read as a zero span."""
    from ftcc.runtime import initialize, run_closed_loop
    from ftcc.scenario import load_scenario

    calls = {}
    for module_name, attr, _ in load_patches():
        if (module_name, attr) in RETIRED:
            continue
        module = importlib.import_module(module_name)
        key = (module_name, attr)
        calls[key] = 0

        def counted(*args, _fn=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    cfg = dataclasses.replace(load_scenario("paper-4node"), horizon=1)
    run_closed_loop(cfg, initialize(cfg))
    assert [key for key, count in calls.items() if count == 0] == []
