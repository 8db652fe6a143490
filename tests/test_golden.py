"""Golden artifacts over the whole scenario space.

Every combination of falsification x acting x consistency x gating x
topology runs in `tom` mode on a small grid: 144 scenarios, 288 files,
each pinned in ``tests/digests/golden.json``. The digests were recorded
before the engine was refactored; a change that moves one of them
changes artifact bytes and must say so. Every JSON echoes its scenario's
name, so no two JSON digests are equal. Only 30 of the 144 CSVs differ:
the ``cutoff`` adversary, for one, is heard by nobody, so a naive liar's
falsification never shows in a row.

The parked sweep runs the same scenarios for 60 steps, long enough to
freeze (``golden_parked.json``, recorded while every step was still
simulated). On the small grid 10,966 of its 17,280 steps move no agent,
against 8 of 4,320 at 15 steps, and the engine fast-forwards 6,136 steps
of episodes that reached a fixed point.
"""

from __future__ import annotations

import itertools

from digests import assert_digests, text_digests

from trustgrid import harness

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


def sweep_config(steps: int) -> str:
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


SWEEPS = {"golden": 15, "golden_parked": 60}  # digest set: steps


def check_sweep(name: str, tmp_path) -> None:
    got = text_digests(sweep_config(SWEEPS[name]), str(tmp_path))
    assert len(got) == 2 * 144
    assert len({sha for file, sha in got.items() if file.endswith(".json")}) == 144
    assert_digests(name, got)


def test_sweep_reproduces_golden_digests(tmp_path):
    check_sweep("golden", tmp_path)


def test_parked_sweep_reproduces_golden_digests(tmp_path, monkeypatch):
    transmits = 0  # one per simulated step
    transmit = harness.transmit

    def counted_transmit(*args):
        nonlocal transmits
        transmits += 1
        return transmit(*args)

    monkeypatch.setattr(harness, "transmit", counted_transmit)
    check_sweep("golden_parked", tmp_path)
    assert 144 * 2 * SWEEPS["golden_parked"] - transmits == 6136  # steps fast-forwarded
