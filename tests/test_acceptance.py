"""Acceptance gates for the shipped defaults.

Each test prints a single PASS/FAIL line for its gate (bypassing capture,
so the lines land in plain pytest output) and then asserts it. The
directional desk-scale gates run the scenario file shipped in scenarios/.
"""

from __future__ import annotations

import csv
import os
import random
import textwrap
import time

import numpy as np

from oracles import enumeration_values, kl_surprise, replay_beliefs, softmax, ternary_windows
from trustgrid.comms import (
    AgentSpec,
    CommGraph,
    FalsificationStrategy,
    Role,
    transmit,
)
from trustgrid.config import DefenseMode, ScenarioConfig, load_scenarios
from trustgrid.env import Action, Observation, step
from trustgrid.harness import run_episode, run_scenario, write_artifact
from trustgrid.metrics import ConfusionCounts, classify_step, f1
from trustgrid.policies import AdversaryStrategy, ValueOracleConfig, action_values, greedy_action
from trustgrid.trust import (
    ConsistencyConfig,
    ConsistencyMode,
    GatingMode,
    Verdict,
    calibrate_kl_threshold,
    consistency_check,
    init_trust,
    kl_score,
    update_belief,
)

SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "default.ini")


def announce(capsys, number, label, ok, detail):
    line = f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(f"\n{line}")
    return line


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs)


def _random_roster(rng, n_agents, n_adv):
    specs = []
    for i in range(n_agents):
        if i < n_adv:
            specs.append(
                AgentSpec(
                    agent_id=i,
                    role=Role.SELF_INTERESTED,
                    falsification=rng.choice(
                        (
                            FalsificationStrategy.LURE,
                            FalsificationStrategy.POSITION_SPOOF,
                            FalsificationStrategy.BABBLE,
                            FalsificationStrategy.TRUTHFUL,
                        )
                    ),
                    acting=rng.choice(
                        (AdversaryStrategy.NAIVE, AdversaryStrategy.CONSISTENT_LIAR)
                    ),
                )
            )
        else:
            specs.append(AgentSpec(agent_id=i, role=Role.COOPERATIVE))
    return tuple(specs)


def _random_topology(rng, ids):
    if rng.random() < 0.7:
        return CommGraph.complete(ids)
    edges = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if rng.random() < 0.7
    ]
    return CommGraph.from_edges(ids, edges)


def _random_consistency(rng):
    roll = rng.random()
    if roll < 0.6:
        return ConsistencyConfig(mode=ConsistencyMode.EXACT_MATCH)
    if roll < 0.85:
        return ConsistencyConfig(
            mode=ConsistencyMode.VALUE_THRESHOLD, rho=rng.random() * 0.5
        )
    return ConsistencyConfig(
        mode=ConsistencyMode.KL, kl_threshold=rng.random() * 0.05
    )


def test_criterion_1_beliefs_stay_in_bounds(capsys):
    started = time.monotonic()
    rng = random.Random(20260823)
    modes = (
        DefenseMode.NODEF,
        DefenseMode.ADV_NODEF,
        DefenseMode.TOM,
        DefenseMode.IDEAL_COOP,
    )
    episodes = 1000
    checked = 0
    violations = 0
    for k in range(episodes):
        mode = modes[k % len(modes)]
        n_agents = rng.randrange(2, 6)
        if mode is DefenseMode.IDEAL_COOP:
            n_adv = 0
        elif mode is DefenseMode.ADV_NODEF:
            n_adv = rng.randrange(1, n_agents)
        else:
            n_adv = rng.randrange(0, n_agents)
        roster = _random_roster(rng, n_agents, n_adv)
        ids = tuple(range(n_agents))
        cfg = ScenarioConfig(
            name=f"randomized-{k}",
            width=rng.randrange(5, 13),
            height=rng.randrange(5, 13),
            steps=rng.randrange(2, 8),
            seeds=(k,),
            oracle=ValueOracleConfig(
                gamma=0.9, horizon=rng.choice((2, 3)), radius=rng.choice((1, 2))
            ),
            mode=mode,
            consistency=_random_consistency(rng),
            s=rng.choice((0.1, 0.5, 3.7)),
            tau=rng.random(),
            gating=rng.choice((GatingMode.THRESHOLD, GatingMode.BERNOULLI)),
            roster=roster,
            topology=_random_topology(rng, ids),
        )
        cfg.validate()
        for entry in run_episode(cfg, rng.randrange(1_000_000)).steps:
            for belief in entry.beliefs.values():
                checked += 1
                if not 0.0 <= belief <= 1.0:
                    violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and checked > 0 and elapsed < 60.0
    line = announce(
        capsys,
        1,
        "belief bounds",
        ok,
        f"{episodes} randomized episodes, {checked} beliefs, "
        f"{violations} out of [0,1], {elapsed:.1f}s < 60s",
    )
    assert ok, line


def test_criterion_2_score_matches_enumeration_oracle(capsys):
    started = time.monotonic()
    oracle = ValueOracleConfig(gamma=0.9, horizon=3, radius=1)
    cfg = ConsistencyConfig(mode=ConsistencyMode.VALUE_THRESHOLD, rho=0.0)
    compared = 0
    worst = 0.0
    for window in ternary_windows(3, 4):
        reference = enumeration_values(window, 0.9, 3)
        best = max(reference)
        payload = Observation(0, (1, 1), np.array(window, dtype=np.int8), 0)
        for action in Action:
            got = consistency_check(oracle, payload, action, cfg).score
            worst = max(worst, abs(got - (best - reference[action])))
            compared += 1
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and compared == 16832 * 5 and elapsed < 30.0
    line = announce(
        capsys,
        2,
        "value-gap oracle equivalence",
        ok,
        f"{compared} window/action scores, max |diff| {worst:.2e} <= 1e-9, "
        f"{elapsed:.1f}s < 30s",
    )
    assert ok, line


def test_criterion_3_belief_replay_is_exact(capsys):
    sequences = [
        (3.7, [False] + [True] * 8),
        (3.7, [True] * 12),
        (3.7, [False] * 12),
        (0.1, [False, True] * 8),
        (0.5, [True, False] * 8),
        (0.5, [True] * 5 + [False] * 5),
    ]
    rng = random.Random(7)
    while len(sequences) < 50:
        s = rng.choice((0.1, 0.5, 3.7))
        sequences.append(
            (s, [rng.random() < 0.5 for _ in range(rng.randrange(1, 40))])
        )
    mismatches = 0
    for s, verdicts in sequences:
        ts = init_trust([1], s=s)
        got = []
        for consistent in verdicts:
            ts.t += 1
            update_belief(ts, 1, Verdict(consistent, 0.0))
            got.append(ts.beliefs[1])
        if got != replay_beliefs(verdicts, s):
            mismatches += 1

    collapse = init_trust([1], s=3.7)
    collapse.t = 2
    update_belief(collapse, 1, Verdict(False, 1.0))
    collapsed = collapse.beliefs[1]

    ok = mismatches == 0 and collapsed == 0.0 and len(sequences) == 50
    line = announce(
        capsys,
        3,
        "belief update arithmetic",
        ok,
        f"50 scripted trajectories, {mismatches} mismatches, "
        f"s=3.7 first-verdict collapse to {collapsed}",
    )
    assert ok, line


def test_criterion_4_homogeneous_teams_raise_no_alarms(tmp_path, capsys):
    path = tmp_path / "honest.ini"
    path.write_text(
        textwrap.dedent(
            """
            [roster]
            adversaries = 0

            [scenario.gated]
            defense.mode = tom

            [scenario.free]
            defense.mode = ideal_coop
            """
        )
    )
    scenarios = load_scenarios(str(path))
    gated = run_scenario(scenarios["gated"])
    free = run_scenario(scenarios["free"])
    false_positives = sum(
        counts.fp
        for artifact in (gated, free)
        for ep in artifact.episodes
        for entry in ep.steps
        for counts in entry.confusion.values()
    )
    identical = gated.coverage_timelines() == free.coverage_timelines()
    ok = false_positives == 0 and identical and len(gated.episodes) == 100
    line = announce(
        capsys,
        4,
        "zero false positives on honest teams",
        ok,
        f"100 episodes x 200 steps per arm, fp total {false_positives}, "
        f"gated/ungated timelines identical: {identical}",
    )
    assert ok, line


def record_material_lies(monkeypatch, cfg):
    """Record which self-interested agents tell a material lie, step by step.

    A material lie is a payload on which a cooperative agent would act
    differently than on the sender's true window. This is ground truth
    taken from the world, not from any observer's verdict. Wraps the
    harness's ``transmit``, which judges each payload it makes, and its
    ``step``, which appends the latest judgement once per step: once an
    episode freezes, its views and payloads no longer change and the
    harness no longer calls ``transmit``, so those steps carry the last
    recorded set forward. Returns the list it fills: one set of
    senders per step, in the order ``run_scenario(cfg)`` runs them.
    """
    liars = [i for i, role in cfg.roles().items() if role is Role.SELF_INTERESTED]
    latest: set[int] = set()
    record = []

    def recording_transmit(views, roster, rng, grid_size):
        nonlocal latest
        payloads = transmit(views, roster, rng, grid_size)
        latest = {
            i
            for i in liars
            if greedy_action(payloads[i], cfg.oracle) != greedy_action(views[i], cfg.oracle)
        }
        return payloads

    def recording_step(state, actions):
        record.append(latest)
        return step(state, actions)

    monkeypatch.setattr("trustgrid.harness.transmit", recording_transmit)
    monkeypatch.setattr("trustgrid.harness.step", recording_step)
    return record


def detection_scores(artifact, material):
    """How well the monitored beliefs single out the self-interested peers.

    ``material`` is what ``record_material_lies`` recorded for the run.
    Over the (episode, cooperative observer, heard self-interested peer)
    cases, returns ``(early, early_n, caught, caught_n, held)``:

    - ``early`` is the share of the ``early_n`` cases in which the peer's
      belief fell below tau at some step <= 50;
    - ``caught`` is the observer's mean step F1 over the ``caught_n``
      (episode, step, observer) cases in which a peer it heard told a
      material lie that step (nan when there were none);
    - ``held`` is the mean share of steps, from its first flag on, that a
      flagged peer stays flagged.

    "Flagged" is belief < tau throughout, scored against roles, as in
    ``metrics.classify_step``.
    """
    cfg = artifact.config
    roles = cfg.roles()
    liars_heard = {
        observer: [
            peer
            for peer in cfg.topology.neighbors(observer)
            if roles[peer] is Role.SELF_INTERESTED
        ]
        for observer in sorted(roles)
        if roles[observer] is Role.COOPERATIVE
    }
    assert len(material) == len(artifact.episodes) * cfg.steps, "one record per step"
    early_hits = 0
    caught = []
    held = []
    for k, ep in enumerate(artifact.episodes):
        lies = material[k * cfg.steps : (k + 1) * cfg.steps]
        for observer, peers in liars_heard.items():
            for peer in peers:
                flagged = [
                    entry.beliefs[peer] < cfg.tau for entry in ep.steps
                ]
                early_hits += any(flagged[:50])  # steps are 1-based
                if any(flagged):
                    since = flagged[flagged.index(True) :]
                    held.append(sum(since) / len(since))
            for entry, liars in zip(ep.steps, lies):
                if liars.intersection(peers):
                    caught.append(f1(entry.confusion[observer]))
    early_n = len(artifact.episodes) * sum(map(len, liars_heard.values()))
    early = early_hits / early_n if early_n else float("nan")
    caught_mean = mean(caught) if caught else float("nan")
    held_mean = mean(held) if held else float("nan")
    return early, early_n, caught_mean, len(caught), held_mean


def test_criterion_5_defense_recovers_team_coverage(capsys, monkeypatch):
    """The defense restores cooperative coverage and identifies the liar.

    Detection is judged against the lies that could be seen: (a) each
    cooperative observer flags the liar within the first 50 steps in at
    least 90% of cases, and (b) at the steps where the liar tells a
    material lie, the observer's step F1 averages at least 0.9. The team
    F1 from step 50 on, and how long a flag is held, are printed but not
    gated: at the shipped settings one consistent verdict lifts belief
    back over tau, and after step 50 the naive lure adversary rarely has
    an uncovered cell left to lie about (see README, "Known limitation").
    """
    started = time.monotonic()
    nodef = run_scenario(load_scenarios(SHIPPED)["nodef"])
    tom_cfg = load_scenarios(SHIPPED)["tom"]
    material = record_material_lies(monkeypatch, tom_cfg)
    tom = run_scenario(tom_cfg)
    monkeypatch.undo()
    control = run_scenario(load_scenarios(SHIPPED)["control"])
    nodef_cov = mean(nodef.cooperative_coverages())
    tom_cov = mean(tom.cooperative_coverages())
    control_cov = mean(control.cooperative_coverages())
    early, early_n, caught, caught_n, held = detection_scores(tom, material)
    f1_tail = tom.mean_team_f1_timeline()[49:]  # step 50 onward, steps are 1-based
    elapsed = time.monotonic() - started

    ordering_ok = nodef_cov < tom_cov
    control_ok = abs(tom_cov - control_cov) <= 0.05
    early_ok = early_n > 0 and early >= 0.9
    caught_ok = caught_n > 0 and caught >= 0.9
    runtime_ok = elapsed < 300.0
    ok = ordering_ok and control_ok and early_ok and caught_ok and runtime_ok
    line = announce(
        capsys,
        5,
        "directional defense claim",
        ok,
        f"coop coverage nodef {nodef_cov:.4f} < tom {tom_cov:.4f}: {ordering_ok}; "
        f"|tom - control {control_cov:.4f}| = {abs(tom_cov - control_cov):.4f} <= 0.05: "
        f"{control_ok}; liar flagged by step 50 in {early:.3f} of {early_n} "
        f"(episode, observer, liar) cases >= 0.9: {early_ok}; F1 at {caught_n} "
        f"observer-steps with a material lie {caught:.3f} >= 0.9: {caught_ok}; "
        f"{elapsed:.0f}s < 300s: {runtime_ok}; reported, not gated: team F1 step "
        f">= 50 min {min(f1_tail):.4f} mean {mean(f1_tail):.4f}, liar kept flagged "
        f"for {held:.3f} of the steps after its first flag",
    )
    assert ok, line


def test_criterion_6_kl_calibration_matches_recomputation(capsys):
    rng = random.Random(606)
    oracle = ValueOracleConfig()
    samples = []
    for _ in range(1000):
        rows = [
            [rng.choice((0, 0, 1, 1, 2)) for _ in range(5)] for _ in range(5)
        ]
        payload = Observation(0, (2, 2), np.array(rows, dtype=np.int8), 0)
        probs = softmax(list(action_values(payload, oracle)), 1.0)
        observed = Action(rng.choices(range(len(probs)), weights=probs)[0])
        samples.append((payload, observed))

    got = calibrate_kl_threshold(samples, 1.0, oracle)
    want = mean(
        kl_surprise(list(action_values(payload, oracle)), int(observed), 1.0)
        for payload, observed in samples
    )
    calibration_ok = abs(got - want) <= 1e-9

    equal_pairs = 0
    zero_violations = 0
    for payload, observed in samples:
        probs = softmax(list(action_values(payload, oracle)), 1.0)
        canonical = max(Action, key=lambda a: (probs[a], -a))
        if probs[observed] == probs[canonical]:
            equal_pairs += 1
            if not kl_score(payload, observed, 1.0, oracle) < 1e-12:
                zero_violations += 1

    ok = calibration_ok and equal_pairs > 0 and zero_violations == 0
    line = announce(
        capsys,
        6,
        "surprise-score calibration",
        ok,
        f"1000 sampled honest actions, |calibration diff| {abs(got - want):.2e} "
        f"<= 1e-9; {equal_pairs} equal-distribution pairs, {zero_violations} "
        f"nonzero scores",
    )
    assert ok, line


def test_criterion_7_reruns_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "rerun.ini"
    path.write_text(
        textwrap.dedent(
            """
            [grid]
            width = 7
            height = 7
            [episode]
            steps = 40
            seeds = 0:5
            [defense]
            mode = tom
            gating = bernoulli
            tau = 0.6
            [roster]
            falsification = babble
            """
        )
    )
    cfg = load_scenarios(str(path))["default"]
    first = write_artifact(run_scenario(cfg), str(tmp_path / "a"))
    second = write_artifact(run_scenario(cfg), str(tmp_path / "b"))
    matches = []
    for path_a, path_b in zip(first, second):
        with open(path_a, "rb") as fh_a, open(path_b, "rb") as fh_b:
            matches.append(fh_a.read() == fh_b.read())
    ok = all(matches)
    line = announce(
        capsys,
        7,
        "byte-identical reruns",
        ok,
        f"csv identical: {matches[0]}, json identical: {matches[1]}",
    )
    assert ok, line


def test_criterion_8_confusion_identities_hold(tmp_path, capsys):
    f1_exact = abs(f1(ConfusionCounts(tp=2, fp=1, fn=1)) - 2 / 3) <= 1e-12
    degenerate = f1(ConfusionCounts()) == 1.0

    path = tmp_path / "uneven.ini"
    path.write_text(
        textwrap.dedent(
            """
            [grid]
            width = 6
            height = 6
            [episode]
            steps = 10
            seeds = 0:2
            [defense]
            mode = nodef
            [comms]
            topology = edges
            edges = 0-1, 1-2, 2-3
            """
        )
    )
    cfg = load_scenarios(str(path))["default"]
    csv_path, _ = write_artifact(run_scenario(cfg), str(tmp_path / "out"))
    degree = {i: len(cfg.topology.neighbors(i)) for i in cfg.agent_ids()}
    row_mismatches = 0
    rows = 0
    with open(csv_path) as fh:
        for record in csv.DictReader(fh):
            rows += 1
            total = sum(int(record[k]) for k in ("tp", "tn", "fp", "fn"))
            if total != degree[int(record["observer"])]:
                row_mismatches += 1

    rng = random.Random(88)
    roles = {0: Role.SELF_INTERESTED, 1: Role.COOPERATIVE, 2: Role.COOPERATIVE}
    heard = {i: tuple(j for j in sorted(roles) if j != i) for i in roles}
    sum_mismatches = 0
    for _ in range(50):
        ts = init_trust(sorted(roles), s=3.7)
        for peer in ts.beliefs:
            ts.beliefs[peer] = rng.random()
        for counts in classify_step(ts, roles, rng.random(), heard).values():
            if counts.total() != len(roles) - 1:
                sum_mismatches += 1

    ok = f1_exact and degenerate and rows > 0 and row_mismatches == 0 and sum_mismatches == 0
    line = announce(
        capsys,
        8,
        "confusion metric identities",
        ok,
        f"f1(2,1,1)=2/3: {f1_exact}; empty counts -> 1.0: {degenerate}; "
        f"{rows} csv rows, {row_mismatches} bad sums; "
        f"{sum_mismatches} classify mismatches",
    )
    assert ok, line
