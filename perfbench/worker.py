"""One measured repetition of a workload, in a fresh interpreter.

run.py starts this script once per repetition, so every repetition pays
what a ``trustgrid`` CLI user pays on every invocation: interpreter start,
``import trustgrid``, scenario loading, and a cold value-oracle cache.

    python3 perfbench/worker.py SPEC

SPEC is a JSON object with ``mode`` (``setup``, ``run`` or ``oracle``),
``root`` (the checkout), ``config``, ``episodes``, ``batch``, ``offset``,
``trace``, ``out`` and ``fixture``. The script prints one JSON object on stdout.
``run`` and ``oracle`` time their work with a calibration.Sampler running,
which samples the host's speed and whose time the reported times leave out.
"""

from __future__ import annotations

import json
import os
import sys
import time


def load_workload(config, path: str, episodes: int, batch: int, offset: int) -> dict:
    """The workload's scenarios restricted to one batch: the ``batch``-th
    run of ``episodes`` seeds from each seed list, shifted by ``offset`` as
    the CLI's --seed-offset does."""
    from dataclasses import replace

    scenarios = {}
    for name, cfg in config.load_scenarios(path).items():
        seeds = cfg.seeds[batch * episodes : (batch + 1) * episodes]
        if len(seeds) != episodes:
            raise ValueError(f"{path}: scenario {name} has too few seeds for batch {batch}")
        cfg = replace(cfg, seeds=tuple(s + offset for s in seeds))
        cfg.validate()
        scenarios[name] = cfg
    return scenarios


def artifact_digests(out_dir: str, name: str) -> dict:
    """SHA-256 of each episode's block of CSV rows, of the CSV header and of
    the JSON summary, plus the CSV row count."""
    import hashlib

    episodes = {}
    rows = 0
    with open(os.path.join(out_dir, f"{name}.csv"), "rb") as fh:
        header = fh.readline()
        for line in fh:
            seed = line.split(b",", 2)[1].decode()
            digest = episodes.get(seed)
            if digest is None:
                digest = episodes[seed] = hashlib.sha256()
            digest.update(line)
            rows += 1
    with open(os.path.join(out_dir, f"{name}.json"), "rb") as fh:
        summary = fh.read()
    return {
        "header": hashlib.sha256(header).hexdigest(),
        "json": hashlib.sha256(summary).hexdigest(),
        "rows": rows,
        "episodes": {seed: d.hexdigest() for seed, d in episodes.items()},
    }


def values_digest(values) -> str:
    """SHA-256 over the exact bits of a sequence of value tuples."""
    import hashlib
    import struct

    digest = hashlib.sha256()
    for vals in values:
        digest.update(struct.pack(f"<{len(vals)}d", *vals))
    return digest.hexdigest()


def run_workload(harness, scenarios: dict, out_dir: str, clock=time.perf_counter) -> dict:
    """Run and write every scenario; a scenario that raises is recorded
    and the rest still run."""
    per_scenario: dict[str, float] = {}
    errors: dict[str, str] = {}
    start = clock()
    for name, cfg in scenarios.items():
        begin = clock()
        try:
            artifact = harness.run_scenario(cfg)
            simulated = clock()
            harness.write_artifact(artifact, out_dir)
        except Exception as exc:  # counted as failed episodes by run.py
            errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        per_scenario[name] = simulated - begin
    wall = clock() - start
    return {"wall_s": wall, "scenario_s": per_scenario, "errors": errors}


def oracle_microbench(env, policies, fixture: dict, clock) -> dict:
    """Per-window cost of ``action_values`` over fixed windows, with the
    oracle cache cold and warm, and whether the values are bit-identical
    to the recorded ones."""
    import numpy as np

    size = 2 * fixture["radius"] + 1
    cfg = policies.ValueOracleConfig(
        gamma=fixture["gamma"], horizon=fixture["horizon"], radius=fixture["radius"]
    )
    windows = [
        env.Observation(
            0,
            (0, 0),
            np.frombuffer(bytes.fromhex(w), dtype=np.int8).reshape(size, size).copy(),
            0,
        )
        for w in fixture["windows"]
    ]
    n = len(windows)

    def timed_pass():
        begin = clock()
        values = [policies.action_values(obs, cfg) for obs in windows]
        return (clock() - begin) / n * 1e6, values

    cold, warm = [], []
    spent = time.perf_counter()
    while len(cold) < 3 or time.perf_counter() - spent < 1.0:
        policies.clear_value_cache()
        per_window, values = timed_pass()
        cold.append(per_window)
        if values_digest(values) != fixture["values_sha256"]:
            return {"values_ok": False}
    spent = time.perf_counter()
    while len(warm) < 3 or time.perf_counter() - spent < 0.5:
        warm.append(timed_pass()[0])
    return {"values_ok": True, "windows": n, "cold_us": cold, "warm_us": warm}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import trustgrid
    from trustgrid import comms, config, env, harness, metrics, policies, trust

    if os.path.dirname(os.path.dirname(os.path.abspath(trustgrid.__file__))) != src:
        raise SystemExit(f"imported trustgrid from {trustgrid.__file__}, not {src}")

    missing: list[str] = []
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        missing = tracer.install(
            {
                "comms": comms,
                "config": config,
                "env": env,
                "harness": harness,
                "metrics": metrics,
                "policies": policies,
                "trust": trust,
            }
        )
    scenarios = load_workload(
        config, spec["config"], spec["episodes"], spec["batch"], spec["offset"]
    )
    result: dict = {"setup_done": time.monotonic()}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0
    from calibration import Sampler

    sampler = Sampler()
    sampler.start()
    try:
        if spec["mode"] == "oracle":
            with open(spec["fixture"]) as fh:
                result.update(oracle_microbench(env, policies, json.load(fh), sampler.clock))
        else:
            result.update(run_workload(harness, scenarios, spec["out"], sampler.clock))
    finally:
        sampler.stop()
    result.update(sampler.result())
    if spec["mode"] == "oracle":
        print(json.dumps(result))
        return 0

    import resource

    import numpy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    cache = getattr(policies, "_value_table", None)
    if cache is not None:
        info = cache.cache_info()
        result["oracle"] = {"hits": info.hits, "misses": info.misses}
    result["seeds"] = {name: [str(s) for s in cfg.seeds] for name, cfg in scenarios.items()}
    result["agent_steps"] = {
        name: len(cfg.roster) * cfg.steps * len(cfg.seeds) for name, cfg in scenarios.items()
    }
    result["artifacts"] = {
        name: artifact_digests(spec["out"], name)
        for name in scenarios
        if name not in result["errors"]
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["missing_spans"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
