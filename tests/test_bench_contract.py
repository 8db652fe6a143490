"""The program surface the benchmark's tracer reads.

``perfbench/tracing.py`` times the engine by patching named call sites
(module globals such as ``harness.observe``) and counts what passes
through a few of them. A span none of whose call sites exists, or whose
count stays 0, leaves a per-layer metric out of the traced benchmark
result. This test installs the tracer as the benchmark's worker does and
runs one seed of every shipped arm through the same entry points, so a
refactor that renames, removes or bypasses a traced call site fails here.
The benchmark's oracle microbench builds ``Observation``s and
``ValueOracleConfig``s itself and checks the oracle's value bits against
recorded fixtures; it is run here too, from the unedited worker script.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import os
import time
from dataclasses import replace

import pytest

from trustgrid import comms, config, env, harness, metrics, policies, trust

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(ROOT, "scenarios", "default.ini")
MODULES = {
    "comms": comms,
    "config": config,
    "env": env,
    "harness": harness,
    "metrics": metrics,
    "policies": policies,
    "trust": trust,
}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    tracing = load_perfbench("tracing")
    # the tracer patches call sites in place; registering each one with
    # monkeypatch first puts every original back afterwards
    for sites, _ in tracing.SPANS.values():
        for module_name, attr in sites:
            module = MODULES[module_name]
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    missing = tracer.install(MODULES)
    return tracing.SPANS, tracer, missing


def test_every_traced_span_is_installed_and_called(tmp_path, tracer):
    spans, tracer, missing = tracer
    assert missing == []
    scenarios = config.load_scenarios(SHIPPED)
    agent_steps = 0
    for cfg in scenarios.values():
        cfg = replace(cfg, seeds=cfg.seeds[:1])
        harness.write_artifact(harness.run_scenario(cfg), str(tmp_path))
        agent_steps += len(cfg.roster) * cfg.steps * len(cfg.seeds)

    uncalled = sorted(name for name in spans if tracer.spans[name][0] == 0)
    assert uncalled == []
    assert tracer.counts["gate_offered"] > 0
    assert tracer.spans["harness.merge_observation"][0] > 0
    assert tracer.spans["trust.consistency_check"][0] > 0
    assert tracer.counts["messages"] > 0
    assert tracer.counts["agent_steps"] == agent_steps
    assert callable(policies._value_table.cache_info)


@pytest.mark.parametrize(
    "fixture_path",
    sorted(glob.glob(os.path.join(ROOT, "perfbench", "fixtures", "*.json"))),
    ids=os.path.basename,
)
def test_oracle_microbench_reproduces_the_recorded_values(fixture_path):
    worker = load_perfbench("worker")
    with open(fixture_path) as fh:
        fixture = json.load(fh)
    result = worker.oracle_microbench(env, policies, fixture, time.perf_counter)
    assert result["values_ok"]
    assert result["windows"] == len(fixture["windows"])
