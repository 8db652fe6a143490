"""Record the reference digests and oracle fixtures the benchmark checks.

    python3 perfbench/record.py

Run from the repository root, at the commit whose artifacts are the
reference. For every batch of every workload at seed offset 0 it writes
into ``perfbench/reference/<workload>.json`` the SHA-256 digests of each
episode's CSV rows, of each scenario's CSV header and of its JSON
summary. For each oracle fixture it writes
``perfbench/fixtures/<fixture>``: the first distinct windows that the
first workload using the fixture hands to ``policies.action_values``,
with a digest of their exact values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, ROOT, WORKLOADS
from worker import artifact_digests, load_workload, run_workload, values_digest

# Enough windows to time the cold oracle steadily, few enough that one cold
# pass over the 9x9, horizon-6 windows stays near a second.
FIXTURE_WINDOWS = 500


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from trustgrid import config, env, harness, policies, trust

    original = policies.action_values
    seen: dict[bytes, None] = {}

    def capture(obs, cfg):
        seen.setdefault(obs.window_key(), None)
        return original(obs, cfg)

    policies.action_values = trust.action_values = capture
    recorded: set[str] = set()
    out_dir = os.path.join(ROOT, ".perfbench_work", "record")
    try:
        for name, spec in WORKLOADS.items():
            seen.clear()
            batches = []
            for batch in range(spec["batches"]):
                scenarios = load_workload(
                    config, os.path.join(ROOT, spec["config"]), spec["episodes"], batch, 0
                )
                result = run_workload(harness, scenarios, out_dir)
                if result["errors"]:
                    raise SystemExit(f"{name} batch {batch}: {result['errors']}")
                batches.append({s: artifact_digests(out_dir, s) for s in scenarios})
            write_json(
                os.path.join(BENCH_DIR, "reference", f"{name}.json"),
                {"workload": name, "seed_offset": 0, "batches": batches},
            )
            rows = sum(d["rows"] for digests in batches for d in digests.values())
            print(f"{name}: {rows} CSV rows recorded")

            fixture = spec["fixture"]
            if fixture in recorded:
                continue
            recorded.add(fixture)
            oracle = next(iter(scenarios.values())).oracle
            windows = list(seen)[:FIXTURE_WINDOWS]
            size = 2 * oracle.radius + 1
            values = [
                original(
                    env.Observation(0, (0, 0), np.frombuffer(w, np.int8).reshape(size, size), 0),
                    oracle,
                )
                for w in windows
            ]
            write_json(
                os.path.join(BENCH_DIR, "fixtures", fixture),
                {
                    "source": f"{name} at seed offset 0",
                    "gamma": oracle.gamma,
                    "horizon": oracle.horizon,
                    "radius": oracle.radius,
                    "windows": [w.hex() for w in windows],
                    "values_sha256": values_digest(values),
                },
            )
            print(f"{fixture}: {len(windows)} of {len(seen)} distinct windows")
    finally:
        policies.action_values = trust.action_values = original
        shutil.rmtree(out_dir, ignore_errors=True)
        os.rmdir(os.path.dirname(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
