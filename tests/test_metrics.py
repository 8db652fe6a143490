"""Confusion tallies, F1 scoring, episode summaries."""

from __future__ import annotations

import random
from dataclasses import astuple

import pytest

from trustgrid import metrics
from trustgrid.comms import CommGraph, Role
from trustgrid.metrics import (
    ConfusionCounts,
    EpisodeSummary,
    StepLog,
    classify_step,
    f1,
    summarize,
    team_f1,
)

ROLES = {
    0: Role.SELF_INTERESTED,
    1: Role.COOPERATIVE,
    2: Role.COOPERATIVE,
    3: Role.COOPERATIVE,
}


# every agent hears every other
HEARD = {i: tuple(j for j in sorted(ROLES) if j != i) for i in ROLES}


def beliefs_with(beliefs):
    """Full belief in every agent, except where ``beliefs`` says otherwise."""
    return {**dict.fromkeys(sorted(ROLES), 1.0), **beliefs}


def test_classify_fresh_states_miss_the_adversary():
    confusion = classify_step(beliefs_with({}), ROLES, tau=0.5, heard=HEARD)
    assert confusion[1] == ConfusionCounts(tp=0, tn=2, fp=0, fn=1)
    assert confusion[2] == ConfusionCounts(tp=0, tn=2, fp=0, fn=1)
    assert confusion[3] == ConfusionCounts(tp=0, tn=2, fp=0, fn=1)
    # the adversary observes three cooperators
    assert confusion[0] == ConfusionCounts(tp=0, tn=3, fp=0, fn=0)


def test_classify_collapsed_belief_is_a_true_positive():
    confusion = classify_step(beliefs_with({0: 0.0}), ROLES, tau=0.5, heard=HEARD)
    for observer in (1, 2, 3):
        assert confusion[observer] == ConfusionCounts(tp=1, tn=2, fp=0, fn=0)
    assert confusion[0] == ConfusionCounts(tp=0, tn=3, fp=0, fn=0)


def test_classify_boundary_belief_is_trusted():
    # flagged iff belief < tau, so belief == tau counts as trusted
    beliefs = beliefs_with({0: 0.5})
    assert classify_step(beliefs, ROLES, tau=0.5, heard=HEARD)[1].fn == 1
    beliefs = beliefs_with({0: 0.4999})
    assert classify_step(beliefs, ROLES, tau=0.5, heard=HEARD)[1].tp == 1


def test_classify_mixed_hand_tally():
    beliefs = beliefs_with({0: 0.1, 2: 0.2, 3: 0.9})
    confusion = classify_step(beliefs, ROLES, tau=0.5, heard=HEARD)
    # adversary 0 flagged, cooperator 2 wrongly flagged, cooperator 3 trusted
    assert confusion[1] == ConfusionCounts(tp=1, tn=1, fp=1, fn=0)
    assert f1(confusion[1]) == pytest.approx(2 / 3)


def test_classify_respects_heard_restriction():
    beliefs = beliefs_with({0: 0.0})
    heard = {1: (2, 3)}  # the adversary is off-channel for this observer
    confusion = classify_step(beliefs, ROLES, tau=0.5, heard=heard)
    assert confusion == {1: ConfusionCounts(tp=0, tn=2, fp=0, fn=0)}
    assert sum(astuple(confusion[1])) == len(heard[1])


def test_classify_never_counts_self():
    # heard maps built as the episode engine builds them, from the topology
    ids = sorted(ROLES)
    for graph, degrees in (
        (CommGraph.complete(ids), {i: len(ROLES) - 1 for i in ids}),
        (CommGraph.from_edges(ids, [(0, 1), (1, 2), (1, 3)]), {0: 1, 1: 3, 2: 1, 3: 1}),
    ):
        heard = dict(graph.adjacency)
        confusion = classify_step(beliefs_with({}), ROLES, tau=0.5, heard=heard)
        assert sorted(confusion) == ids
        for observer, counts in confusion.items():
            assert observer not in heard[observer]
            assert sum(astuple(counts)) == degrees[observer], observer


def test_f1_values():
    assert f1(ConfusionCounts(tp=1)) == 1.0
    assert f1(ConfusionCounts(tp=2, fp=1, fn=1)) == pytest.approx(2 / 3)
    assert f1(ConfusionCounts(fn=1)) == 0.0
    assert f1(ConfusionCounts(fp=3)) == 0.0
    assert f1(ConfusionCounts(tn=5)) == 1.0
    assert f1(ConfusionCounts()) == 1.0


def test_f1_is_scale_invariant():
    rng = random.Random(5)
    for _ in range(25):
        counts = ConfusionCounts(
            rng.randrange(4), rng.randrange(4), rng.randrange(4), rng.randrange(4)
        )
        scaled = ConfusionCounts(
            3 * counts.tp, 3 * counts.tn, 3 * counts.fp, 3 * counts.fn
        )
        assert f1(scaled) == pytest.approx(f1(counts))


def test_team_f1_averages_cooperative_observers_only():
    confusion = {
        0: ConfusionCounts(tp=0, tn=0, fp=3, fn=0),  # adversary's view, ignored
        1: ConfusionCounts(tp=1),
        2: ConfusionCounts(fn=1, tn=2),
        3: ConfusionCounts(tp=1, fp=1),
    }
    want = (1.0 + 0.0 + 2 / 3) / 3
    assert team_f1(confusion, ROLES) == pytest.approx(want)


def test_team_f1_falls_back_to_everyone():
    roles = {0: Role.SELF_INTERESTED, 1: Role.SELF_INTERESTED}
    confusion = {0: ConfusionCounts(tp=1), 1: ConfusionCounts(fn=1)}
    assert team_f1(confusion, roles) == pytest.approx(0.5)


def step_log(coverage, rewards, confusion):
    return StepLog(
        coverage=coverage,
        rewards=rewards,
        beliefs={},
        verdicts={},
        confusion=confusion,
    )


def test_summarize_two_step_episode():
    steps = [
        step_log(
            0.10,
            {0: 1, 1: 0, 2: 1, 3: 2},
            {i: ConfusionCounts(tn=2, fn=1) if ROLES[i] is Role.COOPERATIVE
             else ConfusionCounts(tn=3) for i in ROLES},
        ),
        step_log(
            0.14,
            {0: 0, 1: 1, 2: 1, 3: 0},
            {i: ConfusionCounts(tp=1, tn=2) if ROLES[i] is Role.COOPERATIVE
             else ConfusionCounts(tn=3) for i in ROLES},
        ),
    ]
    summary = summarize(steps, ROLES)
    assert isinstance(summary, EpisodeSummary)
    assert summary.coverage_timeline == (0.10, 0.14)
    assert summary.mean_f1_timeline == (0.0, 1.0)
    assert summary.reward_totals == {0: 1, 1: 1, 2: 2, 3: 2}


def test_summarize_adversary_free_scores_perfect():
    roles = {0: Role.COOPERATIVE, 1: Role.COOPERATIVE}
    steps = [
        step_log(0.05 * k, {0: 1, 1: 0}, {0: ConfusionCounts(tn=1), 1: ConfusionCounts(tn=1)})
        for k in range(1, 6)
    ]
    summary = summarize(steps, roles)
    assert summary.mean_f1_timeline == (1.0,) * 5
    assert summary.reward_totals == {0: 5, 1: 0}


def test_summarize_scores_a_frozen_log_once(monkeypatch):
    # a frozen episode tail repeats its last log object; a log equal to
    # an earlier one but not the same object is scored again
    moving = step_log(0.2, {0: 1, 1: 1, 2: 0, 3: 0}, {i: ConfusionCounts(tp=1) for i in ROLES})
    frozen = step_log(0.3, {i: 0 for i in ROLES}, {i: ConfusionCounts(fn=1) for i in ROLES})
    twin = step_log(0.3, {i: 0 for i in ROLES}, {i: ConfusionCounts(fn=1) for i in ROLES})
    calls = []

    def counting_team_f1(confusion, roles):
        calls.append(confusion)
        return team_f1(confusion, roles)

    monkeypatch.setattr(metrics, "team_f1", counting_team_f1)
    summary = summarize([moving, frozen, frozen, frozen, twin, twin], ROLES)
    assert calls == [moving.confusion, frozen.confusion, twin.confusion]
    assert summary.mean_f1_timeline == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert summary.coverage_timeline == (0.2, 0.3, 0.3, 0.3, 0.3, 0.3)
    assert summary.reward_totals == {0: 1, 1: 1, 2: 0, 3: 0}
