"""Episode loop, observation merging, artifact files."""

from __future__ import annotations

import json
import os
import random
import textwrap
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from oracles import csv_text
from windows import window_rows

from trustgrid import harness, trust
from trustgrid.comms import FalsificationStrategy, Role, falsify, transmit
from trustgrid.config import ConfigError, load_scenarios
from trustgrid.env import (
    CELL_COVERED,
    CELL_OOB,
    CELL_UNCOVERED,
    Action,
    Observation,
    observe,
    reset,
    step,
)
from trustgrid.harness import (
    CSV_HEADER,
    merge_observation,
    run_episode,
    run_scenario,
    write_artifact,
)
from trustgrid.metrics import ConfusionCounts, f1
from trustgrid.policies import greedy_action


def obs(agent_id, position, rows, t=0):
    return Observation(agent_id, position, np.array(rows, dtype=np.int8), t)


def config_from(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(body))
    return load_scenarios(str(path))["default"]


def scenarios_from(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(body))
    return load_scenarios(str(path))


U, C, B = CELL_UNCOVERED, CELL_COVERED, CELL_OOB


def test_merge_without_messages_is_identity():
    own = obs(1, (2, 2), [[U] * 3] * 3)
    assert merge_observation(own, ()) is own


def test_merge_overlays_exactly_the_overlapping_claims():
    own = obs(1, (2, 2), [[U] * 3] * 3)
    peer = obs(2, (3, 2), [[C] * 3] * 3)
    merged = merge_observation(own, (peer,))
    # peer's window spans x in [2,4]; only columns x=2,3 fall inside own's
    want = [[U, C, C], [U, C, C], [U, C, C]]
    assert window_rows(merged) == want
    assert (merged.agent_id, merged.position, merged.t) == (1, (2, 2), 0)
    # the original window is untouched
    assert window_rows(own) == [[U] * 3] * 3


def test_merge_ignores_claims_fully_outside_own_window():
    own = obs(1, (2, 2), [[U] * 3] * 3)
    far = obs(2, (7, 7), [[C] * 3] * 3)
    assert merge_observation(own, (far,)) is own


def test_merge_never_touches_covered_or_blocked_cells():
    rows = [[C, B, U], [U, C, U], [U, U, B]]
    own = obs(1, (2, 2), rows)
    peer = obs(2, (2, 2), [[C] * 3] * 3)
    merged = merge_observation(own, (peer,))
    want = [[C, B, C], [C, C, C], [C, C, B]]
    assert window_rows(merged) == want


def test_merge_with_nothing_new_returns_own_object():
    own = obs(1, (2, 2), [[C, B, C], [C, C, C], [C, C, C]])
    peer = obs(2, (2, 2), [[C] * 3] * 3)
    assert merge_observation(own, (peer,)) is own
    # uncovered claims carry no information either
    blank = obs(2, (2, 2), [[U] * 3] * 3)
    fresh = obs(1, (2, 2), [[U] * 3] * 3)
    assert merge_observation(fresh, (blank,)) is fresh


def test_merge_refuses_a_claim_of_another_window_size():
    own = obs(1, (2, 2), [[U] * 3] * 3)
    wide = obs(2, (2, 2), [[C] * 5] * 5)
    with pytest.raises(ValueError, match="claim window of 25 cells merged into a window of 9"):
        merge_observation(own, (wide,))


def test_merge_unions_claims_across_messages():
    own = obs(1, (2, 2), [[U] * 3] * 3)
    a = obs(2, (2, 2), [[C, U, U], [U, U, U], [U, U, U]])
    b = obs(3, (2, 2), [[U, U, U], [U, U, U], [U, U, C]])
    merged = merge_observation(own, (a, b))
    want = [[C, U, U], [U, U, U], [U, U, C]]
    assert window_rows(merged) == want


SMALL_RUN = """
[grid]
width = 8
height = 8
[episode]
steps = 40
seeds = 0:3
"""


def test_episode_reward_and_coverage_accounting(tmp_path):
    cfg = config_from(tmp_path, SMALL_RUN)
    cells = cfg.width * cfg.height
    for seed in cfg.seeds:
        ep = run_episode(cfg, seed)
        start_cells = len(set(reset(cfg, seed).positions.values()))
        timeline = ep.summary.coverage_timeline
        previous = start_cells / cells
        for entry in ep.steps:
            gained = sum(entry.rewards.values())
            assert round((entry.coverage - previous) * cells) == gained
            previous = entry.coverage
        assert timeline[-1] == previous
        totals = {i: 0 for i in cfg.agent_ids()}
        for entry in ep.steps:
            for agent, reward in entry.rewards.items():
                totals[agent] += reward
        assert totals == ep.summary.reward_totals


def test_episodes_are_deterministic_and_seed_sensitive(tmp_path):
    cfg = config_from(tmp_path, SMALL_RUN)
    once = run_episode(cfg, 1)
    again = run_episode(cfg, 1)
    assert once.steps == again.steps
    assert once.summary == again.summary
    other = run_episode(cfg, 2)
    assert other.summary.coverage_timeline != once.summary.coverage_timeline


def test_trust_gating_is_inert_on_an_honest_team(tmp_path):
    scenarios = scenarios_from(
        tmp_path,
        """
        [grid]
        width = 6
        height = 6
        [episode]
        steps = 30
        seeds = 0:4
        [roster]
        agents = 3
        adversaries = 0

        [scenario.gated]
        defense.mode = tom

        [scenario.open]
        defense.mode = ideal_coop
        """,
    )
    gated = run_scenario(scenarios["gated"])
    open_run = run_scenario(scenarios["open"])
    assert gated.coverage_timelines() == open_run.coverage_timelines()
    gated_csv, _ = write_artifact(gated, str(tmp_path / "gated"))
    open_csv, _ = write_artifact(open_run, str(tmp_path / "open"))
    with open(gated_csv, "rb") as fh_a, open(open_csv, "rb") as fh_b:
        assert fh_a.read() == fh_b.read()


def test_zero_tau_gating_reproduces_the_undefended_run(tmp_path):
    scenarios = scenarios_from(
        tmp_path,
        """
        [grid]
        width = 6
        height = 6
        [episode]
        steps = 30
        seeds = 0:4
        [defense]
        tau = 0

        [scenario.undefended]
        defense.mode = nodef

        [scenario.toothless]
        defense.mode = tom
        """,
    )
    a_csv, _ = write_artifact(
        run_scenario(scenarios["undefended"]), str(tmp_path / "a")
    )
    b_csv, _ = write_artifact(
        run_scenario(scenarios["toothless"]), str(tmp_path / "b")
    )
    with open(a_csv, "rb") as fh_a, open(b_csv, "rb") as fh_b:
        assert fh_a.read() == fh_b.read()


def record_steps(monkeypatch):
    """Per call of the harness's ``step``: (state before, state after,
    actions). The harness calls ``step`` once per episode step."""
    log = []

    def recording_step(state, actions):
        after, rewards = step(state, actions)
        log.append((state, after, dict(actions)))
        return after, rewards

    monkeypatch.setattr(harness, "step", recording_step)
    return log


def fixed_points(log, ep):
    """Per step of one episode: whether it moved no agent, logged every
    belief as 1.0 for a consistent verdict and 0.0 for an inconsistent one,
    and logged the same beliefs as the step before, the ones that gated
    it. ``log`` is the episode's part of a ``record_steps`` log."""
    return [
        k > 0
        and before.positions == after.positions
        and all(entry.beliefs[j] == float(v) for j, v in entry.verdicts.items())
        and entry.beliefs == ep.steps[k - 1].beliefs
        for k, ((before, after, _), entry) in enumerate(zip(log, ep.steps))
    ]


def simulated_steps(log, ep):
    """How many of an episode's steps are simulated in full when no
    sender's falsification draws randomness: every step up to and
    including its first fixed point. The episode is frozen after that."""
    points = fixed_points(log, ep)
    return points.index(True) + 1 if True in points else len(points)


def assert_frozen_tail(log, ep, simulated):
    """Every step after the episode's first fixed point holds that step's
    log itself, whose rewards are all 0, and the environment pays each of
    those steps exactly those rewards."""
    frozen = ep.steps[simulated - 1]
    assert all(entry is frozen for entry in ep.steps[simulated:])
    assert set(frozen.rewards.values()) == {0}
    for before, _, actions in log[simulated:]:
        assert step(before, actions)[1] == frozen.rewards


def episode_logs(log):
    """Splits a ``record_steps`` log of a whole run into its episodes."""
    out = []
    for entry in log:
        if entry[0].t == 0:
            out.append([])
        out[-1].append(entry)
    return out


@pytest.mark.parametrize(
    "edges, heard_senders",
    [("", 4), ("1-2, 1-3, 2-3", 3)],  # complete graph; the shipped control cut
    ids=["complete", "control"],
)
def test_each_step_observes_each_agent_and_judges_each_heard_sender_once(
    tmp_path, monkeypatch, edges, heard_senders
):
    """Every agent is observed once on each simulated step and never after
    the episode freezes. Each heard sender is judged once per simulated
    step."""
    topology = "edges" if edges else "complete"
    cfg = config_from(
        tmp_path,
        SMALL_RUN + f"[comms]\ntopology = {topology}\nedges = {edges}\n",
    )
    observed = []  # the step count of the state each call observes
    judged = 0
    check = trust.consistency_check

    def recording_observe(state, agent_id, radius):
        observed.append(state.t)
        return observe(state, agent_id, radius)

    def counted_check(*args):
        nonlocal judged
        judged += 1
        return check(*args)

    monkeypatch.setattr(harness, "observe", recording_observe)
    monkeypatch.setattr(trust, "consistency_check", counted_check)
    log = record_steps(monkeypatch)
    ep = run_episode(cfg, cfg.seeds[0])
    assert len(log) == cfg.steps
    simulated = simulated_steps(log, ep)
    assert 0 < simulated < cfg.steps  # the episode freezes part-way
    assert_frozen_tail(log, ep, simulated)
    assert observed == [t for t in range(simulated) for _ in cfg.roster]
    senders = {j for _, nbrs in cfg.topology.adjacency for j in nbrs}
    assert len(senders) == heard_senders
    assert judged == heard_senders * simulated


LIAR_RUN = """
[grid]
width = 6
height = 6
[episode]
steps = 20
seeds = 0:2
[defense]
mode = nodef
"""


def record_adversary(monkeypatch):
    """Starts recording agent 0's truthful view and payload at the
    harness's own calls to ``transmit``, and every step with
    ``record_steps``. Call ``adversary_steps`` on the result after the run."""
    sent = []

    def recording_transmit(views, roster, rng, grid_size):
        payloads = transmit(views, roster, rng, grid_size)
        sent.append((views[0], payloads[0]))
        return payloads

    monkeypatch.setattr(harness, "transmit", recording_transmit)
    return sent, record_steps(monkeypatch)


def adversary_steps(recording, artifact):
    """Per step, agent 0's (truthful view, payload, action). ``transmit``
    runs on each episode's simulated steps only. A frozen step repeats the
    last simulated step's action, view and payload, and that view must
    still show the world the step acts on."""
    sent, log = recording
    radius = artifact.config.oracle.radius
    out = []
    transmits = frozen = 0
    for ep, ep_log in zip(artifact.episodes, episode_logs(log), strict=True):
        simulated = simulated_steps(ep_log, ep)
        frozen += len(ep_log) - simulated
        for k, (before, _, actions) in enumerate(ep_log):
            if k < simulated:
                view, payload = sent[transmits + k]
            else:
                assert actions[0] == ep_log[simulated - 1][2][0]
            truth = observe(before, 0, radius)
            assert view.position == truth.position
            assert view.window_key() == truth.window_key()
            out.append((view, payload, actions[0]))
        transmits += simulated
    assert transmits == len(sent)
    assert frozen > 0  # some steps are fast-forwarded
    return out


def test_naive_adversary_acts_greedily_on_its_view(tmp_path, monkeypatch):
    cfg = config_from(tmp_path, LIAR_RUN)  # agent 0: naive, lure payloads
    recording = record_adversary(monkeypatch)
    record = adversary_steps(recording, run_scenario(cfg))
    assert len(record) == 2 * 20
    for view, _, action in record:
        assert action == greedy_action(view, cfg.oracle)
    assert any(action is not Action.UP for _, _, action in record)


def test_consistent_liar_acts_greedily_on_its_lie(tmp_path, monkeypatch):
    cfg = config_from(tmp_path, LIAR_RUN + "[roster]\nacting = consistent_liar\n")
    recording = record_adversary(monkeypatch)
    record = adversary_steps(recording, run_scenario(cfg))
    assert len(record) == 2 * 20
    for _, payload, action in record:
        assert action == greedy_action(payload, cfg.oracle)
        # an all-covered lure payload pins the liar to the tie-break action
        assert action is Action.UP
    assert any(action != greedy_action(view, cfg.oracle) for view, _, action in record)


PARKED_RUN = """
[grid]
width = 4
height = 2
[episode]
steps = 20
seeds = 5
[roster]
agents = 4
adversaries = 1
"""


def test_a_belief_that_crosses_tau_on_a_step_that_moves_nobody_changes_the_next_action(
    tmp_path, monkeypatch
):
    # Agent 0 lies with a lure payload that claims the one uncovered cell,
    # (2, 1), is covered. Nobody can reach another uncovered cell within
    # the one-step horizon, so everyone parks on the top row: an all-zero
    # value table picks UP. Agent 0 is judged inconsistent on every step
    # that moves nobody, and s = 50 drops the belief in it from 1.0 to 0.0
    # at once. That step moves nobody and leaves every belief at its
    # verdict's value, but its beliefs are not the ones that gated it:
    # once gating drops agent 0's message, the agent at (2, 0) sees the
    # cell and must step DOWN into it.
    cfg = config_from(
        tmp_path,
        """
        [grid]
        width = 3
        height = 2
        [episode]
        steps = 12
        seeds = 0
        [oracle]
        horizon = 1
        [defense]
        s = 50
        [roster]
        agents = 5
        adversaries = 1
        starts = 0,0; 1,0; 2,0; 0,1; 1,1
        """,
    )
    log = record_steps(monkeypatch)
    check = trust.consistency_check

    def distrust_the_liar_when_nobody_moves(oracle, payload, action, consistency):
        verdict = check(oracle, payload, action, consistency)
        before, after, _ = log[-1]
        if payload.agent_id == 0 and before.positions == after.positions:
            return trust.Verdict(False, verdict.score)
        return verdict

    monkeypatch.setattr(trust, "consistency_check", distrust_the_liar_when_nobody_moves)
    ep = run_episode(cfg, cfg.seeds[0])
    crossing = 1  # the second step
    before, after, _ = log[crossing]
    assert before.positions == after.positions
    assert fixed_points(log, ep)[crossing] is False
    assert ep.steps[crossing - 1].beliefs[0] == 1.0
    assert ep.steps[crossing].beliefs[0] == 0.0
    assert all(
        belief == float(ep.steps[crossing].verdicts[sender])
        for sender, belief in ep.steps[crossing].beliefs.items()
    )
    assert ep.steps[crossing].coverage == 5 / 6
    assert log[crossing + 1][2][2] is Action.DOWN
    assert ep.steps[crossing + 1].coverage == 1.0


S_BELOW_HALF_AN_ULP = """
[grid]
width = 4
height = 2
[episode]
steps = 30
seeds = 624
[oracle]
horizon = 2
[defense]
s = 1e-16
[roster]
agents = 2
adversaries = 1
acting = consistent_liar
"""


def never_frozen():
    """Makes the fixed point unreachable: every falsification counts as
    drawing randomness, so every step is simulated in full."""
    every = frozenset(FalsificationStrategy)
    return mock.patch.object(harness, "RANDOM_FALSIFICATIONS", every)


def test_a_saturated_belief_that_disagrees_with_its_verdict_does_not_freeze(
    tmp_path, monkeypatch
):
    # With s = 1e-16, the belief in agent 1, heard only by the liar, stays
    # 1.0 under an inconsistent verdict while s * count / step is below half
    # an ulp of 1.0, so two steps that move nobody log the same beliefs. The belief
    # moves at the step after, so those steps are no fixed point.
    cfg = config_from(tmp_path, S_BELOW_HALF_AN_ULP)
    log = record_steps(monkeypatch)
    ep = run_episode(cfg, cfg.seeds[0])
    sender = 1
    for k in (1, 2):
        before, after, _ = log[k]
        assert before.positions == after.positions
        assert ep.steps[k].beliefs[sender] == 1.0
        assert ep.steps[k].verdicts[sender] is False
    assert ep.steps[2].beliefs == ep.steps[1].beliefs
    assert ep.steps[3].beliefs[sender] < 1.0
    with never_frozen():
        simulated = run_episode(cfg, cfg.seeds[0])
    assert simulated.steps == ep.steps


@pytest.mark.parametrize("falsification", ["babble", "position_spoof"])
def test_random_falsifications_draw_every_step_in_order(
    tmp_path, monkeypatch, falsification
):
    cfg = config_from(tmp_path, PARKED_RUN + f"falsification = {falsification}\n")
    sent = []

    def recording_transmit(views, roster, rng, grid_size):
        payloads = transmit(views, roster, rng, grid_size)
        sent.append((views, payloads))
        return payloads

    monkeypatch.setattr(harness, "transmit", recording_transmit)
    log = record_steps(monkeypatch)
    seed = cfg.seeds[0]
    ep = run_episode(cfg, seed)
    assert any(fixed_points(log, ep))  # only the random payloads keep it simulated
    assert len(sent) == cfg.steps
    rng = random.Random(f"comms:{seed}")
    for views, payloads in sent:
        for i in sorted(views):
            strategy = cfg.roster[i].falsification
            assert falsify(views[i], strategy, rng, (cfg.width, cfg.height)) == payloads[i]


def test_bernoulli_gating_draws_once_per_message_every_step(tmp_path, monkeypatch):
    cfg = config_from(tmp_path, PARKED_RUN + "[defense]\ngating = bernoulli\n")
    draws = []

    def recording_gate(ts, inbox, tau, mode, rng):
        before = rng.getstate()
        kept = trust.gate_messages(ts, inbox, tau, mode, rng)
        draws.append((before, len(inbox), rng.getstate()))
        return kept

    monkeypatch.setattr(harness, "gate_messages", recording_gate)
    log = record_steps(monkeypatch)
    seed = cfg.seeds[0]
    ep = run_episode(cfg, seed)
    simulated = simulated_steps(log, ep)
    assert simulated < cfg.steps
    assert_frozen_tail(log, ep, simulated)
    cooperative = sum(spec.role is Role.COOPERATIVE for spec in cfg.roster)
    assert len(draws) == cooperative * simulated
    replay = random.Random(f"gate:{seed}")
    for before, n_msgs, after in draws:
        assert n_msgs == len(cfg.roster) - 1
        assert before == replay.getstate()
        for _ in range(n_msgs):
            replay.random()
        assert after == replay.getstate()


def test_run_episode_rejects_an_unvalidated_config(tmp_path):
    cfg = config_from(tmp_path, SMALL_RUN + "[roster]\nagents = 5\nadversaries = 0\n")
    for bad in (
        lambda: replace(cfg, width=2, height=2),  # more agents than cells
        lambda: replace(cfg, roster=tuple(replace(spec, start=(1, 1)) for spec in cfg.roster)),
    ):
        with pytest.raises(ConfigError):
            run_episode(bad(), 0)


def test_run_scenario_never_revalidates_the_config(tmp_path):
    # a config is checked once, when it is built; running it checks nothing again
    base = config_from(tmp_path, SMALL_RUN)
    for episodes in (3, 30):
        cfg = replace(base, steps=2, seeds=tuple(range(episodes)))
        with mock.patch.object(type(cfg), "validate") as validate:
            artifact = run_scenario(cfg)
        assert len(artifact.episodes) == episodes
        assert validate.call_count == 0


def test_lure_lies_cost_the_team_what_honesty_would_have_earned(tmp_path):
    # fixed ten-seed batch at the standard desk scale; the comparison uses
    # team-credited coverage because the liar's own wandering still covers
    # cells and would mask the damage in the raw total
    scenarios = scenarios_from(
        tmp_path,
        """
        [episode]
        steps = 200
        seeds = 0:10

        [scenario.lied_to]
        defense.mode = nodef

        [scenario.honest]
        defense.mode = ideal_coop
        roster.adversaries = 0
        """,
    )
    lied = run_scenario(scenarios["lied_to"]).cooperative_coverages()
    honest = run_scenario(scenarios["honest"]).cooperative_coverages()
    for seed, (with_liar, without) in enumerate(zip(lied, honest)):
        assert with_liar <= without, f"seed {seed}"
    assert sum(lied) / 10 < sum(honest) / 10 - 0.1


ARTIFACT_RUN = """
[grid]
width = 6
height = 6
[episode]
steps = 10
seeds = 0:3
"""


def test_artifact_files_are_complete_and_stable(tmp_path):
    cfg = config_from(tmp_path, ARTIFACT_RUN)
    artifact = run_scenario(cfg)
    csv_path, json_path = write_artifact(artifact, str(tmp_path / "out"))

    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 10 * sum(len(nbrs) for _, nbrs in cfg.topology.adjacency)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 12
        assert fields[6] in ("0", "1")
        assert 0.0 <= float(fields[5]) <= 1.0
        counts = ConfusionCounts(*(int(v) for v in fields[7:11]))
        assert sum(astuple(counts)) == 3  # complete graph: three senders heard
        assert fields[11] == "%.9g" % f1(counts)

    with open(json_path) as fh:
        text = fh.read()
    data = json.loads(text)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text
    assert data["scenario"] == "default"
    assert data["episodes"] == 3
    assert data["seeds"] == [0, 1, 2]
    assert data["config"]["defense"]["tau"] == 0.5
    assert data["config"]["grid"] == {"width": 6, "height": 6}
    assert len(data["coverage"]["mean_timeline"]) == 10
    assert len(data["team_f1"]["mean_timeline"]) == 10
    assert set(data["mean_reward_per_agent"]) == {"0", "1", "2", "3"}
    assert data["notes"]  # scripted falsification is declared

    rerun_csv, rerun_json = write_artifact(run_scenario(cfg), str(tmp_path / "out2"))
    for first, second in ((csv_path, rerun_csv), (json_path, rerun_json)):
        with open(first, "rb") as fh_a, open(second, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()


SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "default.ini")

# criterion 7's run: babble redraws every step, so no episode freezes, and
# bernoulli gating spreads the beliefs over many values
BABBLE_BERNOULLI = """
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


@pytest.mark.parametrize("arm", ["tom", "control", "babble_bernoulli"])
def test_csv_matches_a_row_by_row_reference(tmp_path, arm):
    if arm == "babble_bernoulli":
        cfg = config_from(tmp_path, BABBLE_BERNOULLI)
    else:
        # full length, so most episodes end in a frozen tail; control's
        # triangle leaves the adversary hearing nobody
        cfg = replace(load_scenarios(SHIPPED)[arm], seeds=(0, 1, 42))
    artifact = run_scenario(cfg)
    frozen = sum(
        a is b for ep in artifact.episodes for a, b in zip(ep.steps, ep.steps[1:])
    )
    assert (frozen == 0) == (arm == "babble_bernoulli")
    csv_path, _ = write_artifact(artifact, str(tmp_path / "out"))
    heard = dict(cfg.topology.adjacency)
    want = csv_text([(ep.seed, ep.steps) for ep in artifact.episodes], heard)
    with open(csv_path, "rb") as fh:
        assert fh.read() == want.encode()


@pytest.mark.parametrize("failing", ["csv", "json"])
def test_a_failed_write_leaves_no_partial_artifact(tmp_path, monkeypatch, failing):
    cfg = config_from(tmp_path, ARTIFACT_RUN)
    out = tmp_path / "out"
    real_f1 = harness.f1
    calls = 0

    def failing_f1(counts):
        # raises part-way through the CSV rows: the writer scores each
        # distinct count once, each run here holds ten, and the ninth first
        # appears in the second episode, after the first is in the file
        nonlocal calls
        calls += 1
        if calls == 9:
            raise RuntimeError("disk gone")
        return real_f1(counts)

    def failing_summary(artifact):
        raise RuntimeError("disk gone")

    def break_writer(patch):
        if failing == "csv":
            patch.setattr(harness, "f1", failing_f1)
        else:
            patch.setattr(harness, "artifact_summary", failing_summary)

    with monkeypatch.context() as patch:
        break_writer(patch)
        with pytest.raises(RuntimeError):
            write_artifact(run_scenario(cfg), str(out))
    assert sorted(p.name for p in out.iterdir()) == []

    write_artifact(run_scenario(cfg), str(out))
    names = ["default.csv", "default.json"]
    before = [(out / name).read_bytes() for name in names]
    calls = 0
    other = run_scenario(replace(cfg, seeds=(7, 8, 9)))
    with monkeypatch.context() as patch:
        break_writer(patch)
        with pytest.raises(RuntimeError):
            write_artifact(other, str(out))
    assert sorted(p.name for p in out.iterdir()) == names
    assert [(out / name).read_bytes() for name in names] == before


@pytest.mark.parametrize("blocked", ["default.csv", "default.json"])
def test_a_directory_at_an_artifact_path_replaces_neither_file(tmp_path, blocked):
    cfg = config_from(tmp_path, ARTIFACT_RUN)
    out = tmp_path / "out"
    write_artifact(run_scenario(cfg), str(out))
    (out / blocked).unlink()
    (out / blocked).mkdir()
    kept = "default.json" if blocked == "default.csv" else "default.csv"
    before = (out / kept).read_bytes()
    with pytest.raises(IsADirectoryError):
        write_artifact(run_scenario(replace(cfg, seeds=(7, 8, 9))), str(out))
    assert sorted(p.name for p in out.iterdir()) == ["default.csv", "default.json"]
    assert (out / blocked).is_dir()
    assert (out / kept).read_bytes() == before


def test_isolated_agents_produce_no_rows(tmp_path):
    cfg = config_from(
        tmp_path,
        ARTIFACT_RUN
        + textwrap.dedent(
            """
            [defense]
            mode = nodef
            [comms]
            topology = edges
            edges = 1-2, 1-3, 2-3
            """
        ),
    )
    csv_path, _ = write_artifact(run_scenario(cfg), str(tmp_path / "out"))
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 3 * 10 * 6
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] != "0" and fields[4] != "0"
        counts = ConfusionCounts(*(int(v) for v in fields[7:11]))
        assert sum(astuple(counts)) == 2
