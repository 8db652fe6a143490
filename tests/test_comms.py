"""Topology, message exchange, and falsification strategies."""

from __future__ import annotations

import random

import numpy as np
import pytest
from windows import window_rows

from trustgrid.comms import (
    AgentSpec,
    CommGraph,
    FalsificationStrategy,
    Role,
    address,
    falsify,
    transmit,
)
from trustgrid.env import (
    CELL_COVERED,
    CELL_OOB,
    CELL_UNCOVERED,
    Observation,
    observe,
    reset,
)


def coop(i, start=None):
    return AgentSpec(i, Role.COOPERATIVE, start=start)


def adversary(i, strategy, start=None):
    return AgentSpec(i, Role.SELF_INTERESTED, falsification=strategy, start=start)


class Geometry:
    def __init__(self, width, height, roster):
        self.width = width
        self.height = height
        self.roster = roster


def fresh_state(roster, width=8, height=8, seed=0):
    return reset(Geometry(width, height, roster), seed)


def window_obs(rows, agent_id=0, position=(2, 2), t=0):
    return Observation(agent_id, position, np.array(rows, dtype=np.int8), t)


def views_of(state, radius):
    return {i: observe(state, i, radius) for i in state.positions}


def test_complete_graph_counts_and_neighbors():
    graph = CommGraph.complete([0, 1, 2, 3])
    assert graph.agents() == (0, 1, 2, 3)
    assert sum(len(nbrs) for _, nbrs in graph.adjacency) == 12
    assert dict(graph.adjacency)[2] == (0, 1, 3)


def test_graph_from_edges_is_symmetric():
    graph = CommGraph.from_edges([0, 1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    assert dict(graph.adjacency) == {0: (), 1: (2, 3), 2: (1, 3), 3: (1, 2)}


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        CommGraph.from_edges([0, 1], [(0, 5)])
    with pytest.raises(ValueError):
        CommGraph.from_edges([0, 1], [(1, 1)])
    with pytest.raises(ValueError):
        CommGraph(adjacency=((0, (1,)), (1, ())))  # asymmetric
    with pytest.raises(ValueError):
        CommGraph(adjacency=((0, (0,)),))  # self-edge
    with pytest.raises(ValueError, match=r"edge \(0, 5\) references an unknown agent"):
        CommGraph(adjacency=((0, (5,)),))


def test_graph_refuses_a_duplicate_neighbour():
    # agent 1 would hear agent 2 twice and log its verdict on 2 twice
    with pytest.raises(ValueError, match="agent 1 lists a neighbour twice"):
        CommGraph(adjacency=((1, (2, 2, 3)), (2, (1,)), (3, (1,))))


def test_graph_refuses_a_duplicate_agent():
    with pytest.raises(ValueError, match="agent 1 is listed twice"):
        CommGraph(adjacency=((1, (2,)), (2, (1,)), (1, (2,))))


def test_falsify_truthful_is_identity():
    obs = window_obs([[CELL_UNCOVERED] * 3 for _ in range(3)])
    out = falsify(obs, FalsificationStrategy.TRUTHFUL, random.Random(0), (8, 8))
    assert out is obs


def test_falsify_lure_flips_exactly_the_uncovered_cells():
    rows = [
        [CELL_OOB, CELL_OOB, CELL_OOB],
        [CELL_UNCOVERED, CELL_COVERED, CELL_UNCOVERED],
        [CELL_COVERED, CELL_COVERED, CELL_UNCOVERED],
    ]
    obs = window_obs(rows, position=(1, 0))
    out = falsify(obs, FalsificationStrategy.LURE, random.Random(0), (8, 8))
    assert out.position == obs.position
    assert out.t == obs.t
    lured = window_rows(out)
    assert lured[0] == [CELL_OOB] * 3
    assert all(cell == CELL_COVERED for row in lured[1:] for cell in row)
    # three cells changed, all of them uncovered ones
    assert sum(a != b for a, b in zip(out.window_key(), obs.window_key())) == 3


def test_falsify_lure_draws_nothing_from_the_stream():
    obs = window_obs([[CELL_UNCOVERED] * 3 for _ in range(3)])
    rng = random.Random(42)
    falsify(obs, FalsificationStrategy.LURE, rng, (8, 8))
    assert rng.random() == random.Random(42).random()


def test_falsify_babble_is_seeded_and_preserves_structure():
    rows = [
        [CELL_OOB, CELL_OOB, CELL_OOB],
        [CELL_UNCOVERED, CELL_COVERED, CELL_UNCOVERED],
        [CELL_COVERED, CELL_UNCOVERED, CELL_COVERED],
    ]
    obs = window_obs(rows, position=(1, 0))
    one = falsify(obs, FalsificationStrategy.BABBLE, random.Random(7), (8, 8))
    two = falsify(obs, FalsificationStrategy.BABBLE, random.Random(7), (8, 8))
    other = falsify(obs, FalsificationStrategy.BABBLE, random.Random(8), (8, 8))
    assert window_rows(one) == window_rows(two)
    assert window_rows(one) != window_rows(other)
    assert one.position == obs.position
    assert window_rows(one)[0] == [CELL_OOB] * 3
    babbled = {cell for row in window_rows(one)[1:] for cell in row}
    assert babbled <= {CELL_COVERED, CELL_UNCOVERED}


def test_falsify_babble_draws_once_per_in_grid_cell_in_row_major_order():
    picker = random.Random(3)
    for radius in (1, 2, 4):
        size = 2 * radius + 1
        for seed in range(20):
            rows = [
                [picker.choice((CELL_UNCOVERED, CELL_COVERED, CELL_OOB)) for _ in range(size)]
                for _ in range(size)
            ]
            obs = window_obs(rows, position=(radius, radius))
            rng = random.Random(seed)
            babbled = falsify(obs, FalsificationStrategy.BABBLE, rng, (8, 8))
            assert len(babbled.window_key()) == size * size
            out = window_rows(babbled)
            replay = random.Random(seed)
            for r in range(size):
                for c in range(size):
                    if rows[r][c] == CELL_OOB:
                        assert out[r][c] == CELL_OOB
                    else:
                        draw = replay.random()
                        assert out[r][c] == (CELL_COVERED if draw < 0.5 else CELL_UNCOVERED)
            in_grid = sum(cell != CELL_OOB for row in rows for cell in row)
            fresh = random.Random(seed)
            for _ in range(in_grid):
                fresh.random()
            assert rng.getstate() == fresh.getstate()


def test_falsify_position_spoof_prefers_distant_cells():
    rows = [[CELL_COVERED] * 3 for _ in range(3)]
    obs = window_obs(rows, position=(0, 0))
    rng = random.Random(3)
    out = falsify(obs, FalsificationStrategy.POSITION_SPOOF, rng, (12, 12))
    assert out.position != (0, 0)
    # the claimed position is the farthest of the eight drawn candidates
    draws = random.Random(3)
    candidates = [(draws.randrange(12), draws.randrange(12)) for _ in range(8)]
    farthest = max(candidates, key=lambda c: abs(c[0]) + abs(c[1]))
    assert out.position == farthest


def test_falsify_position_spoof_recenters_the_window():
    # sender truly at (0,0); (1,0) is covered and (0,1) is not, so a
    # transposed lookup into the real window shows
    rows = [
        [CELL_OOB, CELL_OOB, CELL_OOB],
        [CELL_OOB, CELL_COVERED, CELL_COVERED],
        [CELL_OOB, CELL_UNCOVERED, CELL_UNCOVERED],
    ]
    obs = window_obs(rows, position=(0, 0))
    checked = {"oob": 0, "reused": 0, "covered": 0}
    # Random(0) puts the fake window wholly inside the 6x6 grid and apart
    # from the real one; on the 2x2 grid it overlaps both the edge and the
    # whole real window, covered and uncovered cells alike
    for size in (6, 2):
        rng = random.Random(0)
        out = falsify(obs, FalsificationStrategy.POSITION_SPOOF, rng, (size, size))
        fx, fy = out.position
        spoofed = window_rows(out)
        assert 0 <= fx < size and 0 <= fy < size
        for row in range(3):
            for col in range(3):
                gx, gy = fx + col - 1, fy + row - 1
                if not (0 <= gx < size and 0 <= gy < size):
                    checked["oob"] += 1
                    assert spoofed[row][col] == CELL_OOB
                elif abs(gx) <= 1 and abs(gy) <= 1:
                    # overlaps the sender's real window: true knowledge reused
                    checked["reused"] += 1
                    assert spoofed[row][col] == rows[gy + 1][gx + 1]
                else:
                    checked["covered"] += 1
                    assert spoofed[row][col] == CELL_COVERED
    assert all(checked.values()), checked


def test_transmit_orders_stream_by_agent_id():
    roster = {
        0: adversary(0, FalsificationStrategy.BABBLE, start=(0, 0)),
        1: adversary(1, FalsificationStrategy.BABBLE, start=(4, 4)),
    }
    views = views_of(fresh_state(tuple(roster.values())), radius=1)
    a = transmit(views, roster, random.Random(5), (8, 8))
    b = transmit(views, roster, random.Random(5), (8, 8))
    assert window_rows(a[0]) == window_rows(b[0])
    assert window_rows(a[1]) == window_rows(b[1])


def test_transmit_rejects_lying_cooperators():
    with pytest.raises(ValueError):
        bad = (
            AgentSpec(0, Role.COOPERATIVE, falsification=FalsificationStrategy.LURE, start=(0, 0)),
            coop(1, start=(1, 1)),
        )
        views = views_of(fresh_state(bad), radius=1)
        transmit(views, {spec.agent_id: spec for spec in bad}, random.Random(0), (8, 8))


def test_a_lying_cooperator_is_refused_at_construction():
    with pytest.raises(ValueError, match="cooperative agent 3 must transmit truthfully"):
        AgentSpec(3, Role.COOPERATIVE, falsification=FalsificationStrategy.BABBLE)
    assert AgentSpec(3, Role.SELF_INTERESTED, falsification=FalsificationStrategy.BABBLE)


def test_broadcast_counts_and_truthful_payloads():
    roster_specs = (coop(0, (0, 0)), coop(1, (3, 3)), coop(2, (5, 5)), coop(3, (7, 7)))
    roster = {spec.agent_id: spec for spec in roster_specs}
    state = fresh_state(roster_specs)
    graph = CommGraph.complete(list(roster))
    views = views_of(state, radius=2)
    before = {
        i: Observation(v.agent_id, v.position, bytearray(v.window_key()), v.t)
        for i, v in views.items()
    }
    inboxes = address(transmit(views, roster, random.Random(0), (8, 8)), graph)
    assert views == before  # never mutates
    assert sum(len(v) for v in inboxes.values()) == 12
    for receiver, inbox in inboxes.items():
        assert [p.agent_id for p in inbox] == [i for i in roster if i != receiver]
        for payload in inbox:
            truth = observe(state, payload.agent_id, 2)
            assert payload == truth
            assert payload.t == state.t


def test_broadcast_applies_adversary_strategy():
    roster_specs = (
        adversary(0, FalsificationStrategy.LURE, start=(4, 4)),
        coop(1, (0, 0)),
        coop(2, (7, 7)),
    )
    roster = {spec.agent_id: spec for spec in roster_specs}
    state = fresh_state(roster_specs)
    graph = CommGraph.complete(list(roster))
    payloads = transmit(views_of(state, radius=2), roster, random.Random(0), (8, 8))
    inboxes = address(payloads, graph)
    lie = inboxes[1][0]
    truth = observe(state, 0, 2)
    pairs = list(zip(truth.window_key(), lie.window_key()))
    flipped = [told for seen, told in pairs if seen == CELL_UNCOVERED]
    assert all(told == CELL_COVERED for told in flipped)
    assert all(told == CELL_COVERED for seen, told in pairs if seen == CELL_COVERED)


def test_address_routes_by_topology():
    roster_specs = (coop(0, (0, 0)), coop(1, (2, 2)), coop(2, (4, 4)))
    roster = {spec.agent_id: spec for spec in roster_specs}
    state = fresh_state(roster_specs)
    payloads = transmit(views_of(state, radius=1), roster, random.Random(0), (8, 8))
    graph = CommGraph.from_edges([0, 1, 2], [(0, 1)])
    inboxes = address(payloads, graph)
    assert [p.agent_id for p in inboxes[0]] == [1]
    assert [p.agent_id for p in inboxes[1]] == [0]
    assert inboxes[2] == ()
