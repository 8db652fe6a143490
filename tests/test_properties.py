"""Property tests for the engine's invariants, over generated inputs.

``deadline=None`` throughout: example run times drift with host load, and
a timing deadline would make these tests flaky without testing anything.
"""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from windows import covered_at, grid, window_rows

from trustgrid import harness
from trustgrid.comms import CommGraph, FalsificationStrategy
from trustgrid.config import load_scenarios
from trustgrid.env import (
    CELL_COVERED,
    CELL_OOB,
    CELL_UNCOVERED,
    GridState,
    Observation,
    observe,
)
from trustgrid.harness import merge_observation, run_episode

FLAGS = (CELL_UNCOVERED, CELL_COVERED, CELL_OOB)


@st.composite
def windows(draw, agent_id, radius):
    size = 2 * radius + 1
    flat = draw(st.lists(st.sampled_from(FLAGS), min_size=size * size, max_size=size * size))
    # wide enough that a payload can overlap the own window partly, wholly
    # or not at all, at any radius
    position = (draw(st.integers(-4, 13)), draw(st.integers(-4, 13)))
    return Observation(agent_id, position, np.array(flat, dtype=np.int8).reshape(size, size), 0)


@st.composite
def merges(draw):
    """An own window and up to four claims, all of one size, as in a scenario."""
    radius = draw(st.integers(1, 3))
    return draw(windows(0, radius)), draw(st.lists(windows(1, radius), max_size=4))


def grid_cells(obs):
    """(global x, global y) -> flag for every cell of the window."""
    r = obs.radius
    x, y = obs.position
    return {
        (x - r + col, y - r + row): flag
        for row, flags in enumerate(window_rows(obs))
        for col, flag in enumerate(flags)
    }


@settings(deadline=None, max_examples=200)
@given(case=merges())
def test_merge_never_uncovers_and_covers_only_claimed_cells(case):
    own, payloads = case
    result = merge_observation(own, tuple(payloads))
    merged = grid_cells(result)
    claimed = {
        cell
        for payload in payloads
        for cell, flag in grid_cells(payload).items()
        if flag == CELL_COVERED
    }
    flipped = False
    for cell, before in grid_cells(own).items():
        after = merged[cell]
        if before != CELL_UNCOVERED:
            assert after == before  # covered stays covered, out-of-grid stays out
        else:
            # an uncovered cell flips exactly when some retained claim covers it
            assert after == (CELL_COVERED if cell in claimed else CELL_UNCOVERED)
            flipped |= after == CELL_COVERED
    # ``own`` itself comes back exactly when nothing flips; the benchmark's
    # no-op merge count relies on it
    assert (result is own) == (not flipped)


@st.composite
def placed_grids(draw):
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    flat = draw(st.lists(st.booleans(), min_size=width * height, max_size=width * height))
    # edges and corners are drawn often, not left to chance
    x = draw(st.sampled_from([0, width - 1]) | st.integers(0, width - 1))
    y = draw(st.sampled_from([0, height - 1]) | st.integers(0, height - 1))
    covered = grid([flat])  # one row-major run of flags
    return GridState(width, height, covered, {3: (x, y)}, t=draw(st.integers(0, 50)))


@settings(deadline=None, max_examples=200)
@given(state=placed_grids(), radius=st.integers(1, 4))
def test_observe_matches_a_per_cell_reference(state, radius):
    obs = observe(state, 3, radius)
    x, y = state.positions[3]
    assert (obs.agent_id, obs.position, obs.t, obs.radius) == (3, (x, y), state.t, radius)
    assert type(obs.window_key()) is bytes
    for (gx, gy), flag in grid_cells(obs).items():
        if 0 <= gx < state.width and 0 <= gy < state.height:
            assert flag == (CELL_COVERED if covered_at(state, gx, gy) else CELL_UNCOVERED)
        else:
            assert flag == CELL_OOB


def load_body(body: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(body)
        return load_scenarios(path)["default"]


@st.composite
def scenarios(draw, max_steps=12, s=st.floats(0.1, 10.0)):
    width, height = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    agents = draw(st.integers(2, 4))
    mode = draw(st.sampled_from(["nodef", "adv_nodef", "tom", "ideal_coop"]))
    adversaries = draw(
        st.integers(mode == "adv_nodef", 0 if mode == "ideal_coop" else agents)
    )
    consistency = draw(st.sampled_from(["exact_match", "value_threshold", "kl"]))
    topology = draw(st.sampled_from(["complete", "edges"]))
    chain = ", ".join(f"{i}-{i + 1}" for i in range(agents - 1))
    return load_body(
        f"""
[grid]
width = {width}
height = {height}
[episode]
steps = {draw(st.integers(2, max_steps))}
seeds = {draw(st.integers(0, 10_000))}
[oracle]
gamma = {draw(st.sampled_from([0.0, 0.5, 0.9]))}
horizon = {draw(st.integers(1, 3))}
radius = {draw(st.integers(1, 2))}
[defense]
mode = {mode}
consistency = {consistency}
rho = {draw(st.sampled_from([0.0, 0.3]))}
kl_threshold = {0.05 if consistency == "kl" else ""}
s = {draw(s)}
tau = {draw(st.floats(0.0, 1.0))}
gating = {draw(st.sampled_from(["threshold", "bernoulli"]))}
[comms]
topology = {topology}
edges = {chain if topology == "edges" else ""}
[roster]
agents = {agents}
adversaries = {adversaries}
falsification = {draw(st.sampled_from(["truthful", "lure", "position_spoof", "babble"]))}
acting = {draw(st.sampled_from(["naive", "consistent_liar"]))}
"""
    )


@settings(deadline=None, max_examples=40)
@given(cfg=scenarios())
def test_episode_coverage_rewards_and_beliefs(cfg):
    run = run_episode(cfg, cfg.seeds[0])
    cells = cfg.width * cfg.height
    covered = len(cfg.roster)  # start cells are covered at reset
    for entry in run.steps:
        now = round(entry.coverage * cells)
        assert now >= covered  # coverage never shrinks
        assert sum(entry.rewards.values()) == now - covered
        covered = now
        assert all(0.0 <= belief <= 1.0 for belief in entry.beliefs.values())


@settings(deadline=None, max_examples=100)
@given(cfg=scenarios(max_steps=60, s=st.sampled_from([1e-16, 3.7, 50.0])))
def test_a_frozen_episode_logs_what_full_simulation_logs(cfg):
    # s = 1e-16 keeps beliefs within an ulp of 1.0 for many steps, where a
    # step can repeat its beliefs without having reached a fixed point
    ep = run_episode(cfg, cfg.seeds[0])
    with mock.patch.object(harness, "RANDOM_FALSIFICATIONS", frozenset(FalsificationStrategy)):
        simulated = run_episode(cfg, cfg.seeds[0])
    assert simulated.steps == ep.steps


@settings(deadline=None, max_examples=200)
@given(
    ids=st.sets(st.integers(0, 12), min_size=1, max_size=8),
    data=st.data(),
)
def test_graph_from_edges_is_symmetric(ids, data):
    pool = sorted(ids)
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=20)
    )
    edges = [(a, b) for a, b in pairs if a != b]
    graph = CommGraph.from_edges(pool, edges)
    assert graph.agents() == tuple(pool)
    undirected = {frozenset(edge) for edge in edges}
    heard = dict(graph.adjacency)
    for i in pool:
        nbrs = heard[i]
        assert list(nbrs) == sorted(set(nbrs))
        for j in pool:
            assert (j in nbrs) == (i in heard[j]) == (frozenset((i, j)) in undirected)
