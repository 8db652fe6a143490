"""Experiment runner: seeded episode batches, CSV/JSON artifacts.

One run executes a scenario's seed list episode by episode. Each step:
agents exchange messages, the trust-gated (or ungated) inboxes feed each
agent's action choice, the environment advances, and every heard sender
is re-evaluated from its message and action in the step just taken.
Output is fully determined by (config, seed list), byte for byte.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from typing import TextIO

from .comms import RANDOM_FALSIFICATIONS, FalsificationStrategy, Role, address, transmit
from .config import ScenarioConfig
from .env import (
    CELL_COVERED,
    CELL_UNCOVERED,
    Observation,
    cell_mask,
    coverage_fraction,
    observe,
    reset,
    step,
)
from .metrics import EpisodeSummary, StepLog, classify_step, f1, summarize
from .policies import Action, AdversaryStrategy, greedy_action
from .trust import gate_messages, init_trust, step_trust_all

CSV_HEADER = "step,episode,coverage,observer,peer,belief,verdict,tp,tn,fp,fn,f1"


@dataclass(frozen=True)
class EpisodeRun:
    seed: int
    steps: list[StepLog]
    summary: EpisodeSummary


@dataclass(frozen=True)
class RunArtifact:
    config: ScenarioConfig
    episodes: list[EpisodeRun]

    def coverage_timelines(self) -> list[tuple[float, ...]]:
        return [ep.summary.coverage_timeline for ep in self.episodes]

    def mean_coverage_timeline(self) -> tuple[float, ...]:
        return _mean_timeline(self.coverage_timelines())

    def mean_team_f1_timeline(self) -> tuple[float, ...]:
        return _mean_timeline([ep.summary.mean_f1_timeline for ep in self.episodes])

    def final_coverages(self) -> list[float]:
        return [ep.summary.coverage_timeline[-1] for ep in self.episodes]

    def cooperative_coverages(self) -> list[float]:
        """Per episode: fraction of grid cells first covered by cooperative
        agents. Start cells are credited to nobody."""
        cells = self.config.width * self.config.height
        roles = self.config.roles()
        out = []
        for ep in self.episodes:
            credited = sum(
                total
                for agent, total in ep.summary.reward_totals.items()
                if roles[agent] is Role.COOPERATIVE
            )
            out.append(credited / cells)
        return out


def _mean_timeline(timelines: list[tuple[float, ...]]) -> tuple[float, ...]:
    n = len(timelines)
    return tuple(sum(column) / n for column in zip(*timelines))


def merge_observation(own: Observation, claims: tuple[Observation, ...]) -> Observation:
    """Overlay peers' claimed coverage onto the agent's own window.

    Claims are unioned: a cell the agent sees as uncovered flips to covered
    when any retained peer claims it covered. Cells outside the agent's
    window, and claims about them, are ignored. Returns ``own`` unchanged
    (same object) when no claim lands. Every window of a scenario has one
    size, so a claim moves in by one shift of its bit mask; a claim of
    another size raises ``ValueError`` once ``own`` has a cell to merge into.
    """
    if not claims:
        return own
    cells = own.window_key()
    free = cell_mask(cells, CELL_UNCOVERED)
    if not free:
        return own
    n, size = len(cells), 2 * own.radius + 1
    rows = ((1 << n) - 1) // ((1 << size) - 1)  # bit 0 of every row
    x, y = own.position
    claimed = 0  # own-window bits some claim calls covered
    for payload in claims:
        claim = payload.window_key()
        if len(claim) != n:
            raise ValueError(f"claim window of {len(claim)} cells merged into a window of {n}")
        dx, dy = payload.position[0] - x, payload.position[1] - y
        if -size < dx < size:
            # the claim's columns that stay in the own window once moved dx;
            # rows moved past the top or bottom drop off at the shift or at & free
            columns = ((1 << size - abs(dx)) - 1) << max(-dx, 0)
            kept = cell_mask(claim, CELL_COVERED) & columns * rows
            shift = dy * size + dx
            claimed |= kept << shift if shift >= 0 else kept >> -shift
    landed = claimed & free
    if not landed:
        return own
    window = bytearray(cells)
    while landed:
        low = landed & -landed
        window[low.bit_length() - 1] = CELL_COVERED
        landed ^= low
    return Observation(own.agent_id, own.position, bytes(window), own.t)


def run_episode(cfg: ScenarioConfig, seed: int) -> EpisodeRun:
    """One seeded episode under the scenario's defense mode.

    Step order: observe, transmit, gate (trust-gating modes only), act,
    advance the environment, then update the trust in every heard sender
    from this step's payloads and actions so the verdicts shape the next
    step's gating. Trust is monitored in every mode; only gating is
    mode-dependent. Every hearer of a sender reaches the same verdict and
    so holds the same belief in it, so the episode keeps one trust state.

    The episode freezes after a step at which no agent moved, when no
    sender's falsification draws randomness, every logged belief is 1.0
    for a consistent verdict and 0.0 for an inconsistent one, and the
    beliefs equal those that gated the step. No later step can then change
    a view, payload, gated inbox, action, verdict or belief, so each later
    step only advances the environment and appends the frozen step's log
    itself. That is exact: no agent moved at the frozen step, so all its
    rewards were 0, and each later step repeats the same actions from the
    same cells, so it earns the same all-zero rewards at the same coverage.
    """
    state = reset(cfg, seed)
    comms_rng = random.Random(f"comms:{seed}")
    gate_rng = random.Random(f"gate:{seed}")
    roster = {spec.agent_id: spec for spec in cfg.roster}
    roles = cfg.roles()
    ids = sorted(roster)
    radius = cfg.oracle.radius
    heard = dict(cfg.topology.adjacency)
    trust = init_trust({j for i in ids for j in heard[i]}, cfg.s)
    gating = cfg.gating_enabled()
    redraws = any(spec.falsification in RANDOM_FALSIFICATIONS for spec in cfg.roster)

    steps: list[StepLog] = []
    frozen = False
    for _ in range(cfg.steps):
        if frozen:
            state, _ = step(state, actions)
            steps.append(steps[-1])
            continue
        views = {i: observe(state, i, radius) for i in ids}
        payloads = transmit(views, roster, comms_rng, (cfg.width, cfg.height))
        inboxes = address(payloads, cfg.topology)
        actions: dict[int, Action] = {}
        for i in ids:
            spec = roster[i]
            if spec.role is Role.SELF_INTERESTED:
                basis = (
                    payloads[i]
                    if spec.acting is AdversaryStrategy.CONSISTENT_LIAR
                    else views[i]
                )
                actions[i] = greedy_action(basis, cfg.oracle)
                continue
            inbox = inboxes[i]
            if gating:
                inbox = gate_messages(trust, inbox, cfg.tau, cfg.gating, gate_rng)
            actions[i] = greedy_action(merge_observation(views[i], inbox), cfg.oracle)
        positions = state.positions
        state, rewards = step(state, actions)
        judged = step_trust_all(trust, payloads, actions, cfg.consistency, cfg.oracle)
        beliefs = dict(trust.beliefs)
        verdicts = {sender: verdict.consistent for sender, verdict in judged.items()}
        frozen = (
            state.positions == positions
            and not redraws
            and all(beliefs[j] == float(v) for j, v in verdicts.items())
            and bool(steps)
            and beliefs == steps[-1].beliefs
        )
        steps.append(
            StepLog(
                coverage=coverage_fraction(state),
                rewards=rewards,
                beliefs=beliefs,
                verdicts=verdicts,
                confusion=classify_step(trust, roles, cfg.tau, heard),
            )
        )
    return EpisodeRun(seed=seed, steps=steps, summary=summarize(steps, roles))


def run_scenario(cfg: ScenarioConfig) -> RunArtifact:
    return RunArtifact(config=cfg, episodes=[run_episode(cfg, s) for s in cfg.seeds])


def _round_sig(value):
    """Recursively round floats to 9 significant digits for stable JSON."""
    if isinstance(value, float):
        return float("%.9g" % value)
    if isinstance(value, dict):
        return {k: _round_sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_sig(v) for v in value]
    return value


def _echo_config(cfg: ScenarioConfig) -> dict:
    return {
        "name": cfg.name,
        "grid": {"width": cfg.width, "height": cfg.height},
        "steps": cfg.steps,
        "seeds": list(cfg.seeds),
        "oracle": {
            "gamma": cfg.oracle.gamma,
            "horizon": cfg.oracle.horizon,
            "radius": cfg.oracle.radius,
        },
        "defense": {
            "mode": cfg.mode.value,
            "consistency": cfg.consistency.mode.value,
            "rho": cfg.consistency.rho,
            "kl_threshold": cfg.consistency.kl_threshold,
            "temperature": cfg.consistency.temperature,
            "s": cfg.s,
            "tau": cfg.tau,
            "gating": cfg.gating.value,
        },
        "roster": [
            {
                "id": spec.agent_id,
                "role": spec.role.value,
                "falsification": spec.falsification.value,
                "acting": spec.acting.value,
                "start": list(spec.start) if spec.start is not None else None,
            }
            for spec in cfg.roster
        ],
        "topology": sorted([i, j] for i, nbrs in cfg.topology.adjacency for j in nbrs if i < j),
    }


def artifact_summary(artifact: RunArtifact) -> dict:
    cfg = artifact.config
    finals = artifact.final_coverages()
    coop = artifact.cooperative_coverages()
    payload = {
        "scenario": cfg.name,
        "config": _echo_config(cfg),
        "episodes": len(artifact.episodes),
        "seeds": list(cfg.seeds),
        "coverage": {
            "mean_final": statistics.fmean(finals),
            "stddev_final": statistics.pstdev(finals),
            "mean_timeline": list(artifact.mean_coverage_timeline()),
        },
        "cooperative_coverage": {
            "mean_final": statistics.fmean(coop),
            "stddev_final": statistics.pstdev(coop),
        },
        "team_f1": {"mean_timeline": list(artifact.mean_team_f1_timeline())},
        "mean_reward_per_agent": {
            str(i): statistics.fmean(
                ep.summary.reward_totals[i] for ep in artifact.episodes
            )
            for i in sorted(cfg.agent_ids())
        },
        "notes": [],
    }
    if any(spec.acting is AdversaryStrategy.CONSISTENT_LIAR for spec in cfg.roster):
        payload["notes"].append(
            "consistent_liar is a scripted stand-in for an adversary that has "
            "adapted its behaviour to evade action-consistency checks"
        )
    if any(
        spec.falsification is not FalsificationStrategy.TRUTHFUL for spec in cfg.roster
    ):
        payload["notes"].append(
            "adversarial payloads are scripted transformations, not learned messages"
        )
    return payload


def _write_atomically(writers: dict[str, Callable[[TextIO], None]]) -> None:
    """Call each ``writers[path](fh)`` on a temporary file beside ``path``,
    then move every file into place, so no path is left half-written and
    a failure in any writer, or a directory at any path, replaces none of
    them. On failure the temporary files are removed."""
    for path in writers:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    staged: list[tuple[str, str]] = []
    try:
        for path, write in writers.items():
            tmp_path = f"{path}.{os.getpid()}.tmp"
            staged.append((tmp_path, path))
            with open(tmp_path, "w", newline="") as fh:
                write(fh)
        for tmp_path, path in staged:
            os.replace(tmp_path, path)
    except BaseException:
        for tmp_path, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp_path)
        raise


def write_artifact(artifact: RunArtifact, out_dir: str) -> tuple[str, str]:
    """Write <scenario>.csv and <scenario>.json; byte-stable across reruns.

    CSV: one row per (episode, step, observer, heard peer). belief and
    verdict are the peer's, the same on every row that names it; tp/tn/fp/fn
    and f1 are the observer's counts for that step, so each row's counts sum
    to the observer's received-message count. A step's number is its log's
    position in the episode. Each distinct piece of a row is formatted once
    per call: the ``observer,peer,belief,verdict`` head per distinct
    value, the ``,tp,tn,fp,fn,f1`` tail per distinct count, and the
    ``,episode,coverage,`` lead per distinct log. A step's text joins its
    log's rows with its step number, since every row starts with it, and
    each episode goes to the file in one write. Floats use 9 significant
    digits everywhere. Both files are written in full before either
    replaces an earlier run's.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg = artifact.config
    heard = dict(cfg.topology.adjacency)

    def write_csv(fh: TextIO) -> None:
        # no field holds a comma, quote or newline, so none needs CSV quoting
        fh.write(CSV_HEADER + "\n")
        observers = sorted(heard)
        # two caches, since a head key and a tail key can be equal tuples;
        # beliefs are clamped with max(0.0, ...), so no key holds -0.0
        heads: dict[tuple[int, int, float, bool], str] = {}
        tails: dict[tuple[int, int, int, int], str] = {}
        for ep in artifact.episodes:
            text, last = [], None
            for t, entry in enumerate(ep.steps, 1):
                if entry is not last:
                    # the leading "" makes the join put the step number
                    # before every row, the first one included
                    last, rows = entry, [""]
                    lead = f",{ep.seed},{entry.coverage:.9g},"
                    beliefs, verdicts = entry.beliefs, entry.verdicts
                    for observer in observers:
                        counts = entry.confusion[observer]
                        key = (counts.tp, counts.tn, counts.fp, counts.fn)
                        tail = tails.get(key)
                        if tail is None:
                            tail = tails[key] = (
                                f",{counts.tp},{counts.tn},{counts.fp},{counts.fn},"
                                f"{f1(counts):.9g}\n"
                            )
                        for peer in heard[observer]:
                            key = (observer, peer, beliefs[peer], verdicts[peer])
                            head = heads.get(key)
                            if head is None:
                                head = heads[key] = (
                                    f"{observer},{peer},{beliefs[peer]:.9g},{verdicts[peer]:d}"
                                )
                            rows.append(lead + head + tail)
                text.append(str(t).join(rows))
            fh.write("".join(text))

    def write_json(fh: TextIO) -> None:
        summary = _round_sig(artifact_summary(artifact))
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    csv_path = os.path.join(out_dir, f"{cfg.name}.csv")
    json_path = os.path.join(out_dir, f"{cfg.name}.json")
    _write_atomically({csv_path: write_csv, json_path: write_json})
    return csv_path, json_path
