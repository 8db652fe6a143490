"""Config file parsing, defaults, scenario overrides, validation."""

from __future__ import annotations

import textwrap
import tracemalloc
from dataclasses import replace

import pytest

from trustgrid.comms import CommGraph, FalsificationStrategy, Role
from trustgrid.config import (
    MAX_RUN_SIZE,
    ConfigError,
    DefenseMode,
    load_scenarios,
    parse_seeds,
)
from trustgrid.policies import AdversaryStrategy
from trustgrid.trust import ConsistencyMode, GatingMode


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(textwrap.dedent(body))
    return str(path)


def test_empty_file_yields_the_default_desk_setup(tmp_path):
    cfg = load_scenarios(write_config(tmp_path, ""))["default"]
    assert cfg.name == "default"
    assert (cfg.width, cfg.height) == (10, 10)
    assert cfg.steps == 200
    assert cfg.seeds == tuple(range(100))
    assert cfg.oracle.gamma == 0.9
    assert cfg.oracle.horizon == 3
    assert cfg.oracle.radius == 2
    assert cfg.mode is DefenseMode.TOM
    assert cfg.consistency.mode is ConsistencyMode.EXACT_MATCH
    assert cfg.consistency.rho == 0.0
    assert cfg.consistency.kl_threshold is None
    assert cfg.consistency.temperature == 1.0
    assert cfg.s == 3.7
    assert cfg.tau == 0.5
    assert cfg.gating is GatingMode.THRESHOLD
    assert cfg.gating_enabled()
    assert len(cfg.roster) == 4
    assert cfg.agent_ids() == (0, 1, 2, 3)
    assert cfg.roles()[0] is Role.SELF_INTERESTED
    assert all(cfg.roles()[i] is Role.COOPERATIVE for i in (1, 2, 3))
    assert cfg.roster[0].falsification is FalsificationStrategy.LURE
    assert cfg.roster[0].acting is AdversaryStrategy.NAIVE
    assert all(s.falsification is FalsificationStrategy.TRUTHFUL for s in cfg.roster[1:])
    assert all(s.start is None for s in cfg.roster)
    assert sum(len(nbrs) for _, nbrs in cfg.topology.adjacency) == 12


def test_plain_sections_override_defaults(tmp_path):
    cfg = load_scenarios(
        write_config(
            tmp_path,
            """
            [grid]
            width = 6
            height = 5
            [episode]
            steps = 40
            seeds = 3,5,9
            [defense]
            mode = nodef
            s = 1.25
            tau = 0.3
            [roster]
            agents = 3
            adversaries = 2
            falsification = babble
            acting = consistent_liar
            """,
        )
    )["default"]
    assert (cfg.width, cfg.height) == (6, 5)
    assert cfg.steps == 40
    assert cfg.seeds == (3, 5, 9)
    assert cfg.mode is DefenseMode.NODEF
    assert not cfg.gating_enabled()
    assert (cfg.s, cfg.tau) == (1.25, 0.3)
    assert [s.role for s in cfg.roster] == [
        Role.SELF_INTERESTED,
        Role.SELF_INTERESTED,
        Role.COOPERATIVE,
    ]
    assert cfg.roster[0].falsification is FalsificationStrategy.BABBLE
    assert cfg.roster[1].acting is AdversaryStrategy.CONSISTENT_LIAR
    assert cfg.roster[2].falsification is FalsificationStrategy.TRUTHFUL


def test_scenario_sections_layer_dotted_overrides(tmp_path):
    path = write_config(
        tmp_path,
        """
        [episode]
        steps = 30
        seeds = 0:4

        [scenario.ideal]
        defense.mode = ideal_coop
        roster.adversaries = 0

        [scenario.tight]
        defense.tau = 0.9
        episode.steps = 10
        """,
    )
    scenarios = load_scenarios(path)
    assert list(scenarios) == ["ideal", "tight"]
    ideal, tight = scenarios["ideal"], scenarios["tight"]
    assert ideal.mode is DefenseMode.IDEAL_COOP
    assert all(s.role is Role.COOPERATIVE for s in ideal.roster)
    assert ideal.steps == 30  # base section still applies
    assert tight.tau == 0.9
    assert tight.steps == 10
    assert tight.mode is DefenseMode.TOM


def test_named_scenario_selection(tmp_path):
    path = write_config(
        tmp_path,
        """
        [scenario.a]
        grid.width = 4
        [scenario.b]
        grid.width = 7
        """,
    )
    assert load_scenarios(path)["a"].width == 4
    assert load_scenarios(path)["b"].width == 7


def test_edges_topology(tmp_path):
    cfg = load_scenarios(
        write_config(
            tmp_path,
            """
            [comms]
            topology = edges
            edges = 1-2, 1-3, 2-3
            """,
        )
    )["default"]
    assert dict(cfg.topology.adjacency) == {0: (), 1: (2, 3), 2: (1, 3), 3: (1, 2)}


def test_parse_seeds_syntax():
    assert parse_seeds("0:100") == range(100)
    assert parse_seeds("5:8") == range(5, 8)
    assert parse_seeds("42") == (42,)
    assert parse_seeds(" 1, 2 , 3 ") == (1, 2, 3)
    with pytest.raises(ConfigError):
        parse_seeds("9:9")
    with pytest.raises(ConfigError):
        parse_seeds("a:b")
    with pytest.raises(ConfigError):
        parse_seeds("1,x")


def test_explicit_starts_are_applied_and_checked(tmp_path):
    cfg = load_scenarios(
        write_config(
            tmp_path,
            """
            [grid]
            width = 4
            height = 4
            [roster]
            agents = 2
            adversaries = 0
            starts = 0,0; 3,2
            [defense]
            mode = ideal_coop
            """,
        )
    )["default"]
    assert cfg.roster[0].start == (0, 0)
    assert cfg.roster[1].start == (3, 2)
    with pytest.raises(ConfigError, match="outside the grid"):
        load_scenarios(
            write_config(
                tmp_path,
                """
                [grid]
                width = 4
                height = 4
                [roster]
                agents = 2
                adversaries = 0
                starts = 0,0; 4,0
                [defense]
                mode = ideal_coop
                """,
            )
        )


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("[grid]\nwidth = 1\n", "at least 2"),
        ("[episode]\nsteps = 1\n", "at least 2"),
        ("[roster]\nagents = 1\nadversaries = 0\n", "at least 2"),
        ("[roster]\nagents = 4\nadversaries = 5\n", "adversaries"),
        ("[defense]\ntau = 1.5\n", "tau"),
        ("[defense]\ns = 0\n", "positive"),
        ("[defense]\nmode = ideal_coop\n", "no adversaries"),
        ("[roster]\nadversaries = 0\n[defense]\nmode = adv_nodef\n", "adv_nodef"),
        ("[defense]\nconsistency = kl\n", "kl_threshold"),
        ("[grid]\nwidth = 2\nheight = 2\n[roster]\nagents = 5\nadversaries = 0\n[defense]\nmode = ideal_coop\n", "grid cells"),
        ("[roster]\nstarts = 1,1\n", "4 agents"),
        ("[roster]\nstarts = 0,0; 1; 2,2; 3,3\n", "not 'x,y'"),
        ("[roster]\nstarts = 1,1; 1,1; 2,2; 3,3\n", "more than one agent"),
        ("[comms]\ntopology = ring\n", "complete"),
        ("[comms]\ntopology = edges\nedges = 1-2, 9-3\n", "comms.edges"),
        ("[comms]\ntopology = edges\nedges = 1:2\n", "not 'a-b'"),
        # every key is parsed, also one that comms.topology = complete leaves unused
        ("[comms]\nedges = 1:2\n", "not 'a-b'"),
        ("[defense]\nmode = off\n", "defense.mode"),
        ("[defense]\nconsistency = euclid\n", "defense.consistency"),
        ("[roster]\nfalsification = mirage\n", "roster.falsification"),
        ("[roster]\nacting = telepathic\n", "roster.acting"),
        ("[grid]\nwidth = ten\n", "integer"),
        ("[defense]\ntau = half\n", "number"),
        ("[grid]\ndepth = 3\n", "unknown key"),
        ("[physics]\ngravity = 9.8\n", "unknown section"),
        ("[scenario.x]\ngrid.depth = 3\n", "unknown key"),
        ("[scenario.]\ngrid.width = 3\n", "needs a name"),
        ("[scenario.../escaped]\n", r"\[scenario\.\.\./escaped\] must not contain"),
        ("[scenario.a/b]\n", r"\[scenario\.a/b\] must not contain"),
        ("[scenario.a\\b]\n", r"\[scenario\.a\\b\] must not contain"),
        ("[episode]\nseeds =\n", "at least one seed"),
        ("[episode]\nseeds = 1,1\n", "duplicate seed"),
        ("[episode]\nseeds = -3,3\n", r"episode\.seeds must be non-negative, got -3"),
        ("[episode]\nseeds = -2:3\n", r"episode\.seeds must be non-negative, got -2"),
        ("[oracle]\nhorizon = 0\n", r"oracle\.horizon must be >= 1"),
        ("[oracle]\nhorizon = 990\n", r"oracle\.horizon must be <= 500"),
        ("[oracle]\ngamma = 1.0\n", r"oracle\.gamma must be in \[0, 1\)"),
        ("[oracle]\nradius = 0\n", r"oracle\.radius must be >= 1"),
        ("[defense]\nrho = -1\n", r"defense\.rho must be non-negative"),
        ("[defense]\ntemperature = 0\n", r"defense\.temperature must be positive"),
        ("[defense]\nkl_threshold = -1\n", r"defense\.kl_threshold must be non-negative"),
        ("orphan = 1\n[grid]\nwidth = 6\n", "cannot parse config"),
        # configparser would apply these to every section, or ignore them
        ("[DEFAULT]\nwidth = 5\n[grid]\nheight = 6\n", r"unknown section \[DEFAULT\]"),
        ("[DEFAULT]\ngrid.width = 5\n", r"unknown section \[DEFAULT\]"),
    ],
)
def test_rejected_configs(tmp_path, body, pattern):
    with pytest.raises(ConfigError, match=pattern):
        load_scenarios(write_config(tmp_path, body))


def test_topology_must_cover_exactly_the_roster(tmp_path):
    body = "[roster]\nagents = 2\nadversaries = 0\n[defense]\nmode = ideal_coop\n"
    cfg = load_scenarios(write_config(tmp_path, body))["default"]
    with pytest.raises(ConfigError, match="topology"):
        replace(cfg, topology=CommGraph.complete([0, 1, 2])).validate()


def test_replace_with_a_bad_value_raises_at_construction(tmp_path):
    cfg = load_scenarios(write_config(tmp_path, ""))["default"]
    for bad, pattern in (
        ({"seeds": (0, 0)}, "duplicate seed"),
        ({"seeds": (3, -3)}, r"episode\.seeds must be non-negative"),
        ({"tau": 1.5}, "tau"),
        ({"steps": 1}, "at least 2"),
        ({"topology": CommGraph.complete([0, 1, 2])}, "topology"),
        (
            {"roster": (cfg.roster[0], replace(cfg.roster[1], agent_id=0), *cfg.roster[2:])},
            "duplicate agent id in roster",
        ),
    ):
        with pytest.raises(ConfigError, match=pattern):
            replace(cfg, **bad)


def test_kl_with_threshold_is_accepted(tmp_path):
    cfg = load_scenarios(
        write_config(
            tmp_path,
            """
            [defense]
            consistency = kl
            kl_threshold = 0.05
            temperature = 0.7
            """,
        )
    )["default"]
    assert cfg.consistency.mode is ConsistencyMode.KL
    assert cfg.consistency.kl_threshold == 0.05
    assert cfg.consistency.temperature == 0.7


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenarios(str(tmp_path / "absent.ini"))


def test_scenarios_reuse_is_independent(tmp_path):
    # same file parsed twice gives equal configs
    path = write_config(tmp_path, "[episode]\nseeds = 0:3\n")
    assert load_scenarios(path)["default"] == load_scenarios(path)["default"]


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("[grid]\nwidth = 1000000\nheight = 1000000\n", "1000000000000 grid cells"),
        ("[grid]\nwidth = 1000001\n", "10000010 grid cells"),
        ("[episode]\nseeds = 0:1000000000000\n", "800000000000000 agent-steps"),
        # longer than sys.maxsize, so len() of its range would overflow
        ("[episode]\nseeds = 0:10000000000000000000\n", "8000000000000000000000 agent-steps"),
        ("[episode]\nsteps = 1000000000000\n", "400000000000000 agent-steps"),
        ("[roster]\nagents = 1000000000000\n", "agent-steps"),
        ("[episode]\nseeds = 0:1\nsteps = 2\n[roster]\nagents = 4000\n", "messages per step"),
        (
            "[grid]\nwidth = 100\nheight = 100\n[episode]\nsteps = 2\nseeds = 0:1666\n"
            "[roster]\nagents = 3000\n",
            "29978004000 observer-peer rows",
        ),
        # rows count the listed edges both ways, each pair once
        (
            "[episode]\nseeds = 0:625001\nsteps = 2\n[roster]\nagents = 4\n"
            "[comms]\ntopology = edges\nedges = 0-1, 1-0, 0-2, 1-3, 2-3\n",
            "10000016 observer-peer rows",
        ),
    ],
)
def test_oversized_runs_are_refused_before_anything_is_built(tmp_path, body, pattern):
    with pytest.raises(ConfigError, match=pattern):
        load_scenarios(write_config(tmp_path, body))


def test_a_refused_seed_range_is_never_built(tmp_path):
    # 10**7 seeds of 800 agent-steps each, refused before a tuple of them
    # (hundreds of MiB) is built
    path = write_config(tmp_path, "[episode]\nseeds = 0:10000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="8000000000 agent-steps"):
            load_scenarios(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_the_largest_run_size_is_accepted(tmp_path):
    # exactly MAX_RUN_SIZE cells, agent-steps and observer-peer rows (two
    # agents, so one directed edge each): every bound is inclusive
    side = 1000
    assert side * side * 10 == MAX_RUN_SIZE
    body = f"[grid]\nwidth = {side * 10}\nheight = {side}\n[episode]\nseeds = 0:{side * 5}\n"
    body += f"steps = {side}\n[roster]\nagents = 2\n"
    cfg = load_scenarios(write_config(tmp_path, body))["default"]
    assert cfg.width * cfg.height == len(cfg.seeds) * cfg.steps * len(cfg.roster) == MAX_RUN_SIZE
    assert len(cfg.seeds) * cfg.steps * cfg.topology.directed_edges() == MAX_RUN_SIZE
    with pytest.raises(ConfigError, match="run too large"):
        replace(cfg, width=cfg.width + 1).validate()
    with pytest.raises(ConfigError, match="agent-steps"):
        replace(cfg, steps=cfg.steps + 1).validate()


def test_rows_are_bounded_below_the_agent_step_bound(tmp_path):
    # four agents on a complete graph write three rows per agent-step, so a
    # third of the agent-step bound is the most rows allow
    body = "[episode]\nseeds = 0:8333\nsteps = 100\n[roster]\nagents = 4\n"
    cfg = load_scenarios(write_config(tmp_path, body))["default"]
    assert len(cfg.seeds) * cfg.steps * cfg.topology.directed_edges() == 9_999_600
    with pytest.raises(ConfigError, match="10000800 observer-peer rows"):
        replace(cfg, seeds=tuple(range(8334))).validate()


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("[oracle]\nradius = 200\n", r"oracle\.radius = 200 exceeds the grid's longer side 10"),
        ("[oracle]\nradius = 1000\n", r"oracle\.radius = 1000 exceeds"),
        (
            "[grid]\nwidth = 5000000\nheight = 2\n[oracle]\nradius = 2000\n",
            r"run too large: 16008001 window cells \(\(2 x oracle\.radius \+ 1\)\^2\)",
        ),
    ],
)
def test_oracle_radius_is_bounded_by_the_grid_and_the_run_size(tmp_path, body, pattern):
    with pytest.raises(ConfigError, match=pattern):
        load_scenarios(write_config(tmp_path, body))


def test_oracle_radius_may_reach_the_grid_side(tmp_path):
    body = "[grid]\nwidth = 2\nheight = 3\n[oracle]\nradius = 3\n[roster]\nagents = 2\n"
    assert load_scenarios(write_config(tmp_path, body))["default"].oracle.radius == 3
    with pytest.raises(ConfigError, match="oracle.radius = 4"):
        load_scenarios(write_config(tmp_path, body.replace("radius = 3", "radius = 4")))
