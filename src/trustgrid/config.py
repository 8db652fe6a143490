"""Scenario configuration: INI parsing, defaults, validation.

A config file sets base values in plain sections and may define any number
of named ``[scenario.NAME]`` sections that override individual keys using
dotted ``section.key`` names. A file with no scenario sections defines a
single scenario called "default".
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from enum import Enum

from .comms import AgentSpec, CommGraph, FalsificationStrategy, Role
from .policies import AdversaryStrategy, ValueOracleConfig
from .trust import ConsistencyConfig, ConsistencyMode, GatingMode


class ConfigError(ValueError):
    pass


# The most grid cells, agent-steps (episodes x steps x agents) or messages
# per step (agents x (agents - 1)) one run may ask for. Its memory and time
# grow with each, so a larger run is refused (exit 2) before any of it is
# allocated; the shipped arms take 100 cells and 80,000 agent-steps each.
MAX_RUN_SIZE = 10**7


def check_run_size(width: int, height: int, episodes: int, steps: int, agents: int) -> None:
    """Raise ``ConfigError`` when a size exceeds ``MAX_RUN_SIZE``. A size
    with a factor below 1 is left to ``ScenarioConfig.validate``."""
    for what, factors in (
        ("grid cells (grid.width x grid.height)", (width, height)),
        ("agent-steps (episodes x episode.steps x roster.agents)", (episodes, steps, agents)),
        ("messages per step (roster.agents x (roster.agents - 1))", (agents, agents - 1)),
    ):
        size = math.prod(factors)
        if size > MAX_RUN_SIZE and min(factors) > 0:
            raise ConfigError(f"run too large: {size} {what}, at most {MAX_RUN_SIZE}")


class DefenseMode(Enum):
    NODEF = "nodef"  # adversary on the channel, no gating
    ADV_NODEF = "adv_nodef"  # same dynamics; the adversary's gain is the reading
    TOM = "tom"  # trust-gated messages
    IDEAL_COOP = "ideal_coop"  # adversary-free control


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    width: int
    height: int
    steps: int
    seeds: tuple[int, ...]
    oracle: ValueOracleConfig
    mode: DefenseMode
    consistency: ConsistencyConfig
    s: float
    tau: float
    gating: GatingMode
    roster: tuple[AgentSpec, ...]
    topology: CommGraph

    def __post_init__(self) -> None:
        # also runs on every dataclasses.replace, so no invalid config exists
        self.validate()

    def agent_ids(self) -> tuple[int, ...]:
        return tuple(spec.agent_id for spec in self.roster)

    def roles(self) -> dict[int, Role]:
        return {spec.agent_id: spec.role for spec in self.roster}

    def validate(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ConfigError(
                f"grid.width/grid.height must be at least 2, got {self.width}x{self.height}"
            )
        if self.steps < 2:
            raise ConfigError(
                f"episode.steps must be at least 2 (trust updates start then), got {self.steps}"
            )
        if not self.seeds:
            raise ConfigError("episode.seeds must name at least one seed")
        if min(self.seeds) < 0:
            # random.Random(-n) is seeded like random.Random(n)
            raise ConfigError(f"episode.seeds must be non-negative, got {min(self.seeds)}")
        check_run_size(self.width, self.height, len(self.seeds), self.steps, len(self.roster))
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seed in episode.seeds: {list(self.seeds)}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"defense.tau must lie in [0, 1], got {self.tau}")
        if self.s <= 0.0:
            raise ConfigError(f"defense.s must be positive, got {self.s}")
        ids = [spec.agent_id for spec in self.roster]
        if len(ids) < 2:
            raise ConfigError(f"roster.agents must be at least 2, got {len(ids)}")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate agent id in roster: {sorted(ids)}")
        if len(ids) > self.width * self.height:
            raise ConfigError(
                f"roster.agents = {len(ids)} exceeds the {self.width * self.height} grid cells"
            )
        # a window wider than the grid only adds out-of-grid cells
        radius, side = self.oracle.radius, max(self.width, self.height)
        if radius > side:
            raise ConfigError(f"oracle.radius = {radius} exceeds the grid's longer side {side}")
        window = (2 * radius + 1) ** 2
        if window > MAX_RUN_SIZE:
            raise ConfigError(
                f"run too large: {window} window cells ((2 x oracle.radius + 1)^2), "
                f"at most {MAX_RUN_SIZE}"
            )
        adversaries = [s for s in self.roster if s.role is Role.SELF_INTERESTED]
        if self.mode is DefenseMode.IDEAL_COOP and adversaries:
            raise ConfigError(
                f"defense.mode = ideal_coop admits no adversaries, got {len(adversaries)}"
            )
        if self.mode is DefenseMode.ADV_NODEF and not adversaries:
            raise ConfigError("defense.mode = adv_nodef needs at least one adversary")
        taken = set()
        for spec in self.roster:
            if spec.start is not None:
                x, y = spec.start
                if not (0 <= x < self.width and 0 <= y < self.height):
                    raise ConfigError(
                        f"roster.starts places agent {spec.agent_id} at {spec.start}, outside the grid"
                    )
                if spec.start in taken:
                    raise ConfigError(
                        f"roster.starts places more than one agent at {spec.start}"
                    )
                taken.add(spec.start)
        if set(self.topology.agents()) != set(ids):
            raise ConfigError("comms topology does not cover exactly the roster")

    def gating_enabled(self) -> bool:
        return self.mode is DefenseMode.TOM


_DEFAULTS: dict[str, str] = {
    "grid.width": "10",
    "grid.height": "10",
    "episode.steps": "200",
    "episode.seeds": "0:100",
    "oracle.gamma": "0.9",
    "oracle.horizon": "3",
    "oracle.radius": "2",
    "defense.mode": "tom",
    "defense.consistency": "exact_match",
    "defense.rho": "0.0",
    "defense.kl_threshold": "",
    "defense.temperature": "1.0",
    # the belief step multiplier: one inconsistent verdict early in an
    # episode is enough to collapse belief from 1.0 to the floor
    "defense.s": "3.7",
    "defense.tau": "0.5",
    "defense.gating": "threshold",
    "comms.topology": "complete",
    "comms.edges": "",
    "roster.agents": "4",
    "roster.adversaries": "1",
    "roster.falsification": "lure",
    "roster.acting": "naive",
    "roster.starts": "",
}

# the plain sections; each may set the keys its dotted names above list
_SECTIONS = {dotted.partition(".")[0] for dotted in _DEFAULTS}

_ENUMS = {
    "defense.mode": {m.value: m for m in DefenseMode},
    "defense.consistency": {m.value: m for m in ConsistencyMode},
    "defense.gating": {m.value: m for m in GatingMode},
    "roster.falsification": {s.value: s for s in FalsificationStrategy},
    "roster.acting": {s.value: s for s in AdversaryStrategy},
}


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _to_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return value


def _to_enum(key: str, raw: str):
    table = _ENUMS[key]
    value = raw.strip().lower()
    if value not in table:
        raise ConfigError(
            f"{key} must be one of {sorted(table)}, got {raw!r}"
        )
    return table[value]


def parse_seeds(raw: str) -> range | tuple[int, ...]:
    """Seed list syntax: "a:b" for the half-open range, or comma-separated.
    A range stays a ``range`` until its run size is checked."""
    raw = raw.strip()
    if ":" in raw:
        lo_s, _, hi_s = raw.partition(":")
        lo = _to_int("episode.seeds", lo_s)
        hi = _to_int("episode.seeds", hi_s)
        if hi <= lo:
            raise ConfigError(f"episode.seeds range {raw!r} is empty")
        return range(lo, hi)
    return tuple(_to_int("episode.seeds", part) for part in raw.split(",") if part.strip())


def _parse_starts(raw: str, n_agents: int) -> list[tuple[int, int] | None]:
    raw = raw.strip()
    if not raw:
        return [None] * n_agents
    cells = []
    for part in raw.split(";"):
        xy = part.split(",")
        if len(xy) != 2:
            raise ConfigError(f"roster.starts entry {part.strip()!r} is not 'x,y'")
        cells.append((_to_int("roster.starts", xy[0]), _to_int("roster.starts", xy[1])))
    if len(cells) != n_agents:
        raise ConfigError(
            f"roster.starts lists {len(cells)} cells for {n_agents} agents"
        )
    return cells


def _parse_edges(raw: str) -> list[tuple[int, int]]:
    edges = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        ab = part.split("-")
        if len(ab) != 2:
            raise ConfigError(f"comms.edges entry {part!r} is not 'a-b'")
        edges.append((_to_int("comms.edges", ab[0]), _to_int("comms.edges", ab[1])))
    return edges


def _build_scenario(name: str, values: dict[str, str]) -> ScenarioConfig:
    width = _to_int("grid.width", values["grid.width"])
    height = _to_int("grid.height", values["grid.height"])
    steps = _to_int("episode.steps", values["episode.steps"])
    seeds = parse_seeds(values["episode.seeds"])

    # both configs' range errors start with the field name, so the section
    # prefix turns them into the offending key
    oracle_fields = {
        "gamma": _to_float("oracle.gamma", values["oracle.gamma"]),
        "horizon": _to_int("oracle.horizon", values["oracle.horizon"]),
        "radius": _to_int("oracle.radius", values["oracle.radius"]),
    }
    try:
        oracle = ValueOracleConfig(**oracle_fields)
    except ValueError as exc:
        raise ConfigError(f"oracle.{exc}") from None

    kl_raw = values["defense.kl_threshold"].strip()
    consistency_fields = {
        "mode": _to_enum("defense.consistency", values["defense.consistency"]),
        "rho": _to_float("defense.rho", values["defense.rho"]),
        "kl_threshold": _to_float("defense.kl_threshold", kl_raw) if kl_raw else None,
        "temperature": _to_float("defense.temperature", values["defense.temperature"]),
    }
    try:
        consistency = ConsistencyConfig(**consistency_fields)
    except ValueError as exc:
        raise ConfigError(f"defense.{exc}") from None

    n_agents = _to_int("roster.agents", values["roster.agents"])
    n_adv = _to_int("roster.adversaries", values["roster.adversaries"])
    if n_adv < 0 or n_adv > n_agents:
        raise ConfigError(
            f"roster.adversaries must lie in [0, {n_agents}], got {n_adv}"
        )
    # before the seeds, roster and topology are built; len() overflows on huge ranges
    episodes = seeds.stop - seeds.start if isinstance(seeds, range) else len(seeds)
    check_run_size(width, height, episodes, steps, n_agents)
    falsification = _to_enum("roster.falsification", values["roster.falsification"])
    acting = _to_enum("roster.acting", values["roster.acting"])
    starts = _parse_starts(values["roster.starts"], n_agents)
    # the lowest ids are the self-interested ones; the classic setup puts
    # the single adversary at id 0
    roster = tuple(
        AgentSpec(
            agent_id=i,
            role=Role.SELF_INTERESTED if i < n_adv else Role.COOPERATIVE,
            falsification=falsification if i < n_adv else FalsificationStrategy.TRUTHFUL,
            acting=acting if i < n_adv else AdversaryStrategy.NAIVE,
            start=starts[i],
        )
        for i in range(n_agents)
    )

    topology_kind = values["comms.topology"].strip().lower()
    ids = [spec.agent_id for spec in roster]
    if topology_kind == "complete":
        topology = CommGraph.complete(ids)
    elif topology_kind == "edges":
        try:
            topology = CommGraph.from_edges(ids, _parse_edges(values["comms.edges"]))
        except ValueError as exc:
            raise ConfigError(f"comms.edges: {exc}") from None
    else:
        raise ConfigError(
            f"comms.topology must be 'complete' or 'edges', got {topology_kind!r}"
        )

    return ScenarioConfig(
        name=name,
        width=width,
        height=height,
        steps=steps,
        seeds=tuple(seeds),
        oracle=oracle,
        mode=_to_enum("defense.mode", values["defense.mode"]),
        consistency=consistency,
        s=_to_float("defense.s", values["defense.s"]),
        tau=_to_float("defense.tau", values["defense.tau"]),
        gating=_to_enum("defense.gating", values["defense.gating"]),
        roster=roster,
        topology=topology,
    )


def load_scenarios(path: str) -> dict[str, ScenarioConfig]:
    """Parse a config file into its scenarios, in declaration order."""
    # a default_section no header can spell: [DEFAULT] is then an unknown
    # section, not values silently inherited by every section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {' '.join(str(exc).splitlines())}") from None

    base = dict(_DEFAULTS)
    scenario_sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section in _SECTIONS:
            for key, value in parser.items(section):
                dotted = f"{section}.{key}"
                if dotted not in _DEFAULTS:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                base[dotted] = value
        elif section.startswith("scenario."):
            name = section[len("scenario."):]
            if not name:
                raise ConfigError("scenario section needs a name: [scenario.NAME]")
            if "/" in name or "\\" in name:
                # the name becomes an artifact file name inside --out
                raise ConfigError(
                    f"scenario name in [{section}] must not contain '/' or '\\'"
                )
            overrides = {}
            for key, value in parser.items(section):
                if key not in _DEFAULTS:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                overrides[key] = value
            scenario_sections[name] = overrides
        else:
            raise ConfigError(f"unknown section [{section}]")

    if not scenario_sections:
        scenario_sections = {"default": {}}
    out: dict[str, ScenarioConfig] = {}
    for name, overrides in scenario_sections.items():
        values = dict(base)
        values.update(overrides)
        out[name] = _build_scenario(name, values)
    return out

