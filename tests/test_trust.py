"""Trust state, consistency verdicts, belief arithmetic, gating."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from oracles import kl_surprise, replay_beliefs, softmax
from test_golden import BASE, TOPOLOGIES
from trustgrid import policies, trust
from trustgrid.config import load_scenarios
from trustgrid.env import CELL_COVERED, CELL_OOB, CELL_UNCOVERED, Action, Observation
from trustgrid.harness import run_episode
from trustgrid.policies import ValueOracleConfig, action_values, greedy_action
from trustgrid.trust import (
    ConsistencyConfig,
    ConsistencyMode,
    GatingMode,
    Verdict,
    calibrate_kl_threshold,
    consistency_check,
    gate_messages,
    init_trust,
    kl_score,
    step_trust_all,
    update_belief,
)

ORACLE = ValueOracleConfig(gamma=0.9, horizon=1, radius=1)
EXACT = ConsistencyConfig(
    mode=ConsistencyMode.EXACT_MATCH, rho=0.0, kl_threshold=None, temperature=1.0
)


def window_obs(rows, agent_id=0, position=(1, 1), t=0):
    return Observation(agent_id, position, np.array(rows, dtype=np.int8), t)


def right_window(agent_id=0, t=0):
    """Single uncovered cell to the right: greedy is Right, value 1."""
    rows = [[CELL_COVERED] * 3 for _ in range(3)]
    rows[1][2] = CELL_UNCOVERED
    return window_obs(rows, agent_id=agent_id, t=t)


def test_init_trust_full_belief_and_zero_counts():
    ts = init_trust({3, 0, 1}, s=3.7)
    assert ts.t == 1
    assert ts.beliefs == {0: 1.0, 1: 1.0, 3: 1.0}
    assert list(ts.beliefs) == [0, 1, 3]
    assert ts.counts == {0: [0, 0], 1: [0, 0], 3: [0, 0]}
    assert ts.s == 3.7


def test_fresh_state_gates_nothing():
    ts = init_trust([1, 2], s=3.7)
    inbox = (right_window(agent_id=1), right_window(agent_id=2))
    assert gate_messages(ts, inbox, 1.0, GatingMode.THRESHOLD, random.Random(0)) == inbox


def test_value_gap_zero_for_value_ties():
    rows = [[CELL_COVERED] * 3 for _ in range(3)]
    rows[1][0] = CELL_UNCOVERED
    rows[1][2] = CELL_UNCOVERED
    obs = window_obs(rows)
    cfg = replace(EXACT, mode=ConsistencyMode.VALUE_THRESHOLD, rho=0.0)
    assert consistency_check(ORACLE, obs, Action.LEFT, cfg) == Verdict(True, 0.0)
    assert consistency_check(ORACLE, obs, Action.RIGHT, cfg) == Verdict(True, 0.0)
    assert greedy_action(obs, ORACLE) is Action.LEFT  # earlier in the order


def test_exact_match_verdicts():
    cfg = EXACT
    obs = right_window()
    assert consistency_check(ORACLE, obs, Action.RIGHT, cfg) == Verdict(True, 0.0)
    verdict = consistency_check(ORACLE, obs, Action.DOWN, cfg)
    assert not verdict.consistent
    assert verdict.score == 1.0


@pytest.mark.parametrize(
    "cfg",
    [
        EXACT,
        replace(EXACT, mode=ConsistencyMode.VALUE_THRESHOLD, rho=0.1),
        replace(EXACT, mode=ConsistencyMode.KL, kl_threshold=0.1),
    ],
    ids=lambda cfg: cfg.mode.value,
)
def test_every_mode_reads_the_oracle_once_per_verdict(monkeypatch, cfg):
    calls = []

    def counting_values(obs, oracle):
        calls.append(obs)
        return action_values(obs, oracle)

    # both modules' names, so a lookup through greedy_action counts too
    monkeypatch.setattr(policies, "action_values", counting_values)
    monkeypatch.setattr(trust, "action_values", counting_values)
    obs = right_window()
    for action in Action:
        before = len(calls)
        consistency_check(ORACLE, obs, action, cfg)
        assert len(calls) - before == 1, action


def test_exact_match_flags_the_offbrand_tie():
    # tied value but not the shared tie-break choice: inconsistent, gap 0
    rows = [[CELL_COVERED] * 3 for _ in range(3)]
    rows[1][0] = CELL_UNCOVERED
    rows[1][2] = CELL_UNCOVERED
    obs = window_obs(rows)
    cfg = EXACT
    verdict = consistency_check(ORACLE, obs, Action.RIGHT, cfg)
    assert verdict == Verdict(False, 0.0)


def test_value_threshold_verdicts():
    obs = right_window()
    loose = replace(EXACT, mode=ConsistencyMode.VALUE_THRESHOLD, rho=0.1)
    tight = replace(EXACT, mode=ConsistencyMode.VALUE_THRESHOLD, rho=0.0)
    # greedy action passes every threshold
    assert consistency_check(ORACLE, obs, Action.RIGHT, loose).consistent
    assert consistency_check(ORACLE, obs, Action.RIGHT, tight).consistent
    # gap 1 fails rho = 0.1
    verdict = consistency_check(ORACLE, obs, Action.DOWN, loose)
    assert verdict == Verdict(False, 1.0)
    # a sub-threshold gap passes, an over-threshold one fails
    cfg3 = ValueOracleConfig(gamma=0.9, horizon=3, radius=1)
    rows = [
        [CELL_COVERED, CELL_UNCOVERED, CELL_COVERED],
        [CELL_COVERED, CELL_COVERED, CELL_UNCOVERED],
        [CELL_COVERED, CELL_COVERED, CELL_UNCOVERED],
    ]
    obs2 = window_obs(rows)
    near = replace(EXACT, mode=ConsistencyMode.VALUE_THRESHOLD, rho=0.1)
    up = consistency_check(cfg3, obs2, Action.UP, near)
    assert 0.0 < up.score <= 0.1  # 1.9 down the right column vs 1.81 going up first
    assert up.consistent
    assert not consistency_check(
        cfg3, obs2, Action.DOWN, near
    ).consistent


def test_value_threshold_zero_accepts_exact_match_superset():
    rng = random.Random(17)
    exact = EXACT
    zero = replace(EXACT, mode=ConsistencyMode.VALUE_THRESHOLD, rho=0.0)
    for _ in range(40):
        rows = [
            [rng.choice((CELL_UNCOVERED, CELL_COVERED, CELL_OOB)) for _ in range(3)]
            for _ in range(3)
        ]
        obs = window_obs(rows)
        for action in Action:
            e = consistency_check(ORACLE, obs, action, exact).consistent
            z = consistency_check(ORACLE, obs, action, zero).consistent
            assert z or not e  # ExactMatch-consistent implies gap 0


def test_consistency_config_validation():
    with pytest.raises(TypeError):
        ConsistencyConfig()  # the config file holds the defaults
    with pytest.raises(ValueError):
        replace(EXACT, rho=-0.1)
    with pytest.raises(ValueError):
        replace(EXACT, kl_threshold=-1.0)
    with pytest.raises(ValueError):
        replace(EXACT, temperature=0.0)
    with pytest.raises(ValueError, match="kl_threshold is required"):
        replace(EXACT, mode=ConsistencyMode.KL)


def test_count_updates():
    ts = init_trust([1], s=0.1)
    ts.t = 2
    update_belief(ts, 1, Verdict(True, 0.0))
    assert ts.counts[1] == [0, 1]
    update_belief(ts, 1, Verdict(False, 1.0))
    update_belief(ts, 1, Verdict(False, 1.0))
    assert ts.counts[1] == [2, 1]
    with pytest.raises(KeyError):
        update_belief(ts, 5, Verdict(True, 0.0))


def test_belief_update_spec_arithmetic():
    ts = init_trust([1], s=0.5)
    ts.t = 2
    update_belief(ts, 1, Verdict(False, 1.0))  # counts this verdict first
    assert ts.counts[1] == [1, 0]
    assert ts.beliefs[1] == 1.0 - 0.5 * (1 / 2)

    ts2 = init_trust([1], s=0.5)
    ts2.t = 2
    update_belief(ts2, 1, Verdict(True, 0.0))
    assert ts2.counts[1] == [0, 1]
    assert ts2.beliefs[1] == 1.0  # clamped at the ceiling


def test_belief_collapse_at_default_step_multiplier():
    ts = init_trust([1], s=3.7)
    ts.t = 2
    update_belief(ts, 1, Verdict(False, 1.0))
    assert ts.beliefs[1] == 0.0


def test_belief_trajectories_match_replay_oracle():
    rng = random.Random(99)
    for _ in range(30):
        s = rng.choice((0.1, 0.5, 1.0, 3.7))
        verdicts = [rng.random() < 0.5 for _ in range(rng.randrange(1, 30))]
        ts = init_trust([1], s=s)
        got = []
        for consistent in verdicts:
            ts.t += 1
            update_belief(ts, 1, Verdict(consistent, 0.0))
            got.append(ts.beliefs[1])
        assert got == replay_beliefs(verdicts, s)


def test_step_trust_all_cooperative_beliefs_stay_at_one():
    ids = [0, 1, 2]
    ts = init_trust(ids, s=3.7)
    cfg = EXACT
    payloads = {i: right_window(agent_id=i) for i in ids}
    actions = {i: Action.RIGHT for i in ids}
    for _ in range(5):
        verdicts = step_trust_all(ts, payloads, actions, cfg, ORACLE)
        assert sorted(verdicts) == ids
        assert all(v.consistent for v in verdicts.values())
    assert ts.t == 6
    assert all(b == 1.0 for b in ts.beliefs.values())
    assert ts.counts == {i: [0, 5] for i in ids}


def test_step_trust_all_flags_a_liar_everywhere():
    ids = [0, 1, 2]
    ts = init_trust(ids, s=3.7)
    cfg = EXACT
    payloads = {
        0: window_obs([[CELL_COVERED] * 3 for _ in range(3)], agent_id=0),  # the lie
        1: right_window(agent_id=1),
        2: right_window(agent_id=2),
    }
    actions = {0: Action.RIGHT, 1: Action.RIGHT, 2: Action.RIGHT}
    verdicts = step_trust_all(ts, payloads, actions, cfg, ORACLE)
    # greedy on the all-covered lie is Up, agent 0 acted Right
    assert not verdicts[0].consistent
    assert verdicts[1].consistent and verdicts[2].consistent
    assert ts.beliefs == {0: 0.0, 1: 1.0, 2: 1.0}


def test_an_unheard_sender_has_no_belief_and_is_never_judged(tmp_path, monkeypatch):
    # the golden sweep's cutoff topology: nobody hears agent 0, the adversary
    kind, edges = TOPOLOGIES["cutoff"]
    path = tmp_path / "cutoff.ini"
    path.write_text(BASE.format(steps=15) + f"[comms]\ntopology = {kind}\nedges = {edges}\n")
    cfg = load_scenarios(str(path))["default"]
    judged = []

    def recording_check(oracle, payload, action, consistency):
        judged.append(payload.agent_id)
        return consistency_check(oracle, payload, action, consistency)

    monkeypatch.setattr(trust, "consistency_check", recording_check)
    for seed in cfg.seeds:
        for entry in run_episode(cfg, seed).steps:
            assert sorted(entry.beliefs) == sorted(entry.verdicts) == [1, 2, 3]
    assert judged and 0 not in judged
    assert len(judged) % 3 == 0  # each heard sender once per simulated step


def test_step_trust_all_requires_sender_actions():
    ts = init_trust([1], s=3.7)
    payloads = {1: right_window(agent_id=1)}
    with pytest.raises(KeyError):
        step_trust_all(ts, payloads, {0: Action.STAY}, EXACT, ORACLE)


def test_step_trust_all_no_message_no_change():
    ts = init_trust([], s=3.7)
    assert step_trust_all(ts, {}, {}, EXACT, ORACLE) == {}
    assert ts.t == 2
    assert ts.beliefs == {} and ts.counts == {}


def test_gate_messages_threshold_rule():
    ts = init_trust([1, 2], s=3.7)
    ts.beliefs[1] = 0.3
    inbox = (right_window(agent_id=1), right_window(agent_id=2))
    rng = random.Random(0)  # never read in threshold mode
    kept = gate_messages(ts, inbox, 0.5, GatingMode.THRESHOLD, rng)
    assert [p.agent_id for p in kept] == [2]
    # boundary: belief exactly tau is kept
    ts.beliefs[1] = 0.5
    kept = gate_messages(ts, inbox, 0.5, GatingMode.THRESHOLD, rng)
    assert [p.agent_id for p in kept] == [1, 2]
    # tau = 0 disables gating
    ts.beliefs[1] = 0.0
    assert gate_messages(ts, inbox, 0.0, GatingMode.THRESHOLD, rng) == inbox
    with pytest.raises(KeyError):
        gate_messages(ts, (right_window(agent_id=9),), 0.5, GatingMode.THRESHOLD, rng)


def test_gate_messages_bernoulli_samples_by_belief():
    ts = init_trust([1], s=3.7)
    ts.beliefs[1] = 0.25
    inbox = (right_window(agent_id=1),)
    rng = random.Random(123)
    kept = sum(
        len(gate_messages(ts, inbox, tau=0.5, mode=GatingMode.BERNOULLI, rng=rng))
        for _ in range(4000)
    )
    assert 0.2 < kept / 4000 < 0.3
    # belief 1.0 always passes, 0.0 never does
    ts.beliefs[1] = 1.0
    assert gate_messages(ts, inbox, tau=0.5, mode=GatingMode.BERNOULLI, rng=rng) == inbox
    ts.beliefs[1] = 0.0
    assert gate_messages(ts, inbox, tau=0.5, mode=GatingMode.BERNOULLI, rng=rng) == ()


def test_kl_score_rejects_bad_temperature():
    # for the canonical action too, whose score needs no softmax
    for action in (Action.RIGHT, Action.DOWN):
        for temperature in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                kl_score(right_window(), action, temperature, ORACLE)


def test_kl_score_zero_cases():
    obs = right_window()
    assert kl_score(obs, Action.RIGHT, 1.0, ORACLE) == 0.0
    # symmetric window: left and right tie, probabilities equal
    rows = [[CELL_COVERED] * 3 for _ in range(3)]
    rows[1][0] = CELL_UNCOVERED
    rows[1][2] = CELL_UNCOVERED
    tied = window_obs(rows)
    assert kl_score(tied, Action.RIGHT, 1.0, ORACLE) == 0.0


def test_kl_score_matches_full_divergence_sum():
    rng = random.Random(41)
    for _ in range(50):
        rows = [
            [rng.choice((CELL_UNCOVERED, CELL_COVERED, CELL_OOB)) for _ in range(3)]
            for _ in range(3)
        ]
        obs = window_obs(rows)
        values = list(action_values(obs, ORACLE))
        for action in Action:
            got = kl_score(obs, action, 1.0, ORACLE)
            want = kl_surprise(values, int(action), 1.0)
            assert got == pytest.approx(want, abs=1e-12)
            assert got >= 0.0


def test_kl_mode_verdicts_respect_threshold():
    obs = right_window()
    score = kl_score(obs, Action.DOWN, 1.0, ORACLE)
    assert score > 0.0
    tight = replace(EXACT, mode=ConsistencyMode.KL, kl_threshold=score / 2)
    loose = replace(EXACT, mode=ConsistencyMode.KL, kl_threshold=score * 2)
    assert not consistency_check(ORACLE, obs, Action.DOWN, tight).consistent
    assert consistency_check(ORACLE, obs, Action.DOWN, loose).consistent


def test_kl_score_is_infinite_when_the_softmax_underflows():
    obs = right_window()
    # at temperature 0.001 a value gap of 1 weighs exp(-1000), which is 0.0
    assert softmax(list(action_values(obs, ORACLE)), 0.001)[Action.DOWN] == 0.0
    assert kl_score(obs, Action.DOWN, 0.001, ORACLE) == math.inf
    cfg = replace(EXACT, mode=ConsistencyMode.KL, kl_threshold=0.1, temperature=0.001)
    verdict = consistency_check(ORACLE, obs, Action.DOWN, cfg)
    assert not verdict.consistent and verdict.score == math.inf
    assert consistency_check(ORACLE, obs, Action.RIGHT, cfg).consistent


def test_calibrate_kl_threshold_single_and_empty():
    obs = right_window()
    lone = calibrate_kl_threshold([(obs, Action.DOWN)], 1.0, ORACLE)
    assert lone == kl_score(obs, Action.DOWN, 1.0, ORACLE)
    with pytest.raises(ValueError):
        calibrate_kl_threshold([], 1.0, ORACLE)


def test_calibrate_kl_threshold_near_zero_for_greedy_actors():
    rng = random.Random(8)
    samples = []
    for _ in range(50):
        rows = [
            [rng.choice((CELL_UNCOVERED, CELL_COVERED)) for _ in range(3)]
            for _ in range(3)
        ]
        obs = window_obs(rows)
        samples.append((obs, greedy_action(obs, ORACLE)))
    assert calibrate_kl_threshold(samples, 1.0, ORACLE) < 1e-6
