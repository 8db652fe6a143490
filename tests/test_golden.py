"""Golden artifacts over the whole scenario space.

Every combination of falsification x acting x consistency x gating x
topology runs in `tom` mode on a small grid, and each scenario's CSV and
JSON must hash to the digest recorded in ``golden_digests.json``. The
digests were recorded before the engine was refactored; a change that
moves one of them changes artifact bytes and must say so.

Regenerate (only for an intended change of artifact bytes) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile

from trustgrid.config import load_scenarios
from trustgrid.harness import run_scenario, write_artifact

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

BASE = """\
[grid]
width = 7
height = 6
[episode]
steps = {steps}
seeds = 3,11
[roster]
agents = 4
adversaries = 1
[defense]
mode = tom
rho = 0.3
kl_threshold = 0.05
"""

FALSIFICATIONS = ("truthful", "lure", "position_spoof", "babble")
ACTINGS = ("naive", "consistent_liar")
CONSISTENCIES = ("exact_match", "value_threshold", "kl")
GATINGS = ("threshold", "bernoulli")
TOPOLOGIES = {
    "complete": ("complete", ""),
    "sparse": ("edges", "0-1, 1-2, 2-3"),
    "cutoff": ("edges", "1-2, 1-3, 2-3"),  # the adversary (agent 0) hears nobody
}


def sweep_config(steps: int = 15) -> str:
    sections = [BASE.format(steps=steps)]
    for falsification, acting, consistency, gating, topology in itertools.product(
        FALSIFICATIONS, ACTINGS, CONSISTENCIES, GATINGS, TOPOLOGIES
    ):
        kind, edges = TOPOLOGIES[topology]
        sections.append(
            f"[scenario.{falsification}-{acting}-{consistency}-{gating}-{topology}]\n"
            f"roster.falsification = {falsification}\n"
            f"roster.acting = {acting}\n"
            f"defense.consistency = {consistency}\n"
            f"defense.gating = {gating}\n"
            f"comms.topology = {kind}\n"
            f"comms.edges = {edges}\n"
        )
    return "\n".join(sections)


def sweep_digests(work_dir: str, steps: int = 15) -> dict[str, str]:
    """SHA-256 of each scenario's CSV bytes followed by its JSON bytes."""
    path = os.path.join(work_dir, "sweep.ini")
    with open(path, "w") as fh:
        fh.write(sweep_config(steps))
    digests = {}
    for name, cfg in load_scenarios(path).items():
        csv_path, json_path = write_artifact(run_scenario(cfg), work_dir)
        sha = hashlib.sha256()
        for artifact_path in (csv_path, json_path):
            with open(artifact_path, "rb") as fh:
                sha.update(fh.read())
        digests[name] = sha.hexdigest()
    return digests


def test_sweep_reproduces_golden_digests(tmp_path):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    got = sweep_digests(str(tmp_path))
    assert len(got) == 144
    assert len(set(expected.values())) == len(expected)
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in got if got[name] != expected[name])
    assert not changed, f"artifact bytes changed for {len(changed)} scenarios: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = sweep_digests(work)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
