"""Scenario configuration: INI parsing, defaults, validation.

A config file sets base values in plain sections and may define any number
of named ``[scenario.NAME]`` sections that override individual keys using
dotted ``section.key`` names. A file with no scenario sections defines a
single scenario called "default". A file is read as UTF-8, whatever the
locale; a leading byte-order mark is skipped.

``_KEYS`` declares each key once: its default text and its parser. No
other module holds a default. Every key of a scenario is parsed, so a
malformed value is refused even where another key leaves it unused.
"""

from __future__ import annotations

import configparser
import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import Any

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


def _to_optional_float(key: str, raw: str) -> float | None:
    return _to_float(key, raw.strip()) if raw.strip() else None


def _to_choice(enum: type[Enum]) -> Callable[[str, str], Enum]:
    """A parser for the values of ``enum``, in any case."""
    table = {member.value: member for member in enum}

    def parse(key: str, raw: str) -> Enum:
        value = raw.strip().lower()
        if value not in table:
            raise ConfigError(f"{key} must be one of {sorted(table)}, got {raw!r}")
        return table[value]

    return parse


def _to_topology(key: str, raw: str) -> str:
    kind = raw.strip().lower()
    if kind not in ("complete", "edges"):
        raise ConfigError(f"{key} must be 'complete' or 'edges', got {kind!r}")
    return kind


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


def _to_starts(key: str, raw: str) -> list[tuple[int, int]]:
    cells = []
    for part in raw.split(";") if raw.strip() else ():
        xy = part.split(",")
        if len(xy) != 2:
            raise ConfigError(f"{key} entry {part.strip()!r} is not 'x,y'")
        cells.append((_to_int(key, xy[0]), _to_int(key, xy[1])))
    return cells


def _to_edges(key: str, raw: str) -> list[tuple[int, int]]:
    edges = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        ab = part.split("-")
        if len(ab) != 2:
            raise ConfigError(f"{key} entry {part!r} is not 'a-b'")
        edges.append((_to_int(key, ab[0]), _to_int(key, ab[1])))
    return edges


# Every key, once: its default text and the parser that turns a text into
# its value. A parser takes the dotted key, so its errors name it.
_KEYS: dict[str, tuple[str, Callable[[str, str], Any]]] = {
    "grid.width": ("10", _to_int),
    "grid.height": ("10", _to_int),
    "episode.steps": ("200", _to_int),
    "episode.seeds": ("0:100", lambda _, raw: parse_seeds(raw)),
    "oracle.gamma": ("0.9", _to_float),
    "oracle.horizon": ("3", _to_int),
    "oracle.radius": ("2", _to_int),
    "defense.mode": ("tom", _to_choice(DefenseMode)),
    "defense.consistency": ("exact_match", _to_choice(ConsistencyMode)),
    "defense.rho": ("0.0", _to_float),
    "defense.kl_threshold": ("", _to_optional_float),
    "defense.temperature": ("1.0", _to_float),
    # the belief step multiplier: one inconsistent verdict early in an
    # episode is enough to collapse belief from 1.0 to the floor
    "defense.s": ("3.7", _to_float),
    "defense.tau": ("0.5", _to_float),
    "defense.gating": ("threshold", _to_choice(GatingMode)),
    "comms.topology": ("complete", _to_topology),
    "comms.edges": ("", _to_edges),
    "roster.agents": ("4", _to_int),
    "roster.adversaries": ("1", _to_int),
    "roster.falsification": ("lure", _to_choice(FalsificationStrategy)),
    "roster.acting": ("naive", _to_choice(AdversaryStrategy)),
    "roster.starts": ("", _to_starts),
}

# the plain sections; each may set the keys its dotted names above list
_SECTIONS = {dotted.partition(".")[0] for dotted in _KEYS}


def _build_scenario(name: str, texts: dict[str, str]) -> ScenarioConfig:
    v = {key: parse(key, texts[key]) for key, (_, parse) in _KEYS.items()}

    # both configs' range errors start with the field name, so the section
    # prefix turns them into the offending key
    try:
        oracle = ValueOracleConfig(
            gamma=v["oracle.gamma"], horizon=v["oracle.horizon"], radius=v["oracle.radius"]
        )
    except ValueError as exc:
        raise ConfigError(f"oracle.{exc}") from None
    try:
        consistency = ConsistencyConfig(
            mode=v["defense.consistency"],
            rho=v["defense.rho"],
            kl_threshold=v["defense.kl_threshold"],
            temperature=v["defense.temperature"],
        )
    except ValueError as exc:
        raise ConfigError(f"defense.{exc}") from None

    n_agents, n_adv, seeds = v["roster.agents"], v["roster.adversaries"], v["episode.seeds"]
    if n_adv < 0 or n_adv > n_agents:
        raise ConfigError(
            f"roster.adversaries must lie in [0, {n_agents}], got {n_adv}"
        )
    # before the seeds, roster and topology are built; len() overflows on huge ranges
    episodes = seeds.stop - seeds.start if isinstance(seeds, range) else len(seeds)
    check_run_size(v["grid.width"], v["grid.height"], episodes, v["episode.steps"], n_agents)
    starts = v["roster.starts"] or [None] * n_agents
    if len(starts) != n_agents:
        raise ConfigError(
            f"roster.starts lists {len(starts)} cells for {n_agents} agents"
        )
    # the lowest ids are the self-interested ones; the classic setup puts
    # the single adversary at id 0
    roster = tuple(
        AgentSpec(
            agent_id=i,
            role=Role.SELF_INTERESTED if i < n_adv else Role.COOPERATIVE,
            falsification=v["roster.falsification"] if i < n_adv else FalsificationStrategy.TRUTHFUL,
            acting=v["roster.acting"] if i < n_adv else AdversaryStrategy.NAIVE,
            start=starts[i],
        )
        for i in range(n_agents)
    )

    ids = list(range(n_agents))
    if v["comms.topology"] == "complete":
        topology = CommGraph.complete(ids)
    else:
        try:
            topology = CommGraph.from_edges(ids, v["comms.edges"])
        except ValueError as exc:
            raise ConfigError(f"comms.edges: {exc}") from None

    return ScenarioConfig(
        name=name,
        width=v["grid.width"],
        height=v["grid.height"],
        steps=v["episode.steps"],
        seeds=tuple(seeds),
        oracle=oracle,
        mode=v["defense.mode"],
        consistency=consistency,
        s=v["defense.s"],
        tau=v["defense.tau"],
        gating=v["defense.gating"],
        roster=roster,
        topology=topology,
    )


def load_scenarios(path: str) -> dict[str, ScenarioConfig]:
    """Parse a config file into its scenarios, in declaration order."""
    # a default_section no header can spell: [DEFAULT] is then an unknown
    # section, not values silently inherited by every section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        # the same bytes mean the same config whatever the locale; a leading
        # byte-order mark is skipped
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {' '.join(str(exc).splitlines())}") from None

    base = {key: default for key, (default, _) in _KEYS.items()}
    overrides: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section in _SECTIONS:
            texts, prefix = base, f"{section}."
        elif section.startswith("scenario."):
            name = section[len("scenario."):]
            if not name:
                raise ConfigError("scenario section needs a name: [scenario.NAME]")
            # the name becomes an artifact file name inside --out
            if "/" in name or "\\" in name or "\x00" in name:
                shown = section.replace("\x00", "\\x00")  # a raw NUL would not print
                raise ConfigError(f"scenario name in [{shown}] must not contain '/', '\\' or NUL")
            try:
                os.fsencode(name)
            except UnicodeEncodeError as exc:
                raise ConfigError(f"scenario name in [{section}] is not a file name: {exc}") from None
            texts, prefix = overrides.setdefault(name, {}), ""
        else:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if prefix + key not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            texts[prefix + key] = value

    return {
        name: _build_scenario(name, base | texts)
        for name, texts in (overrides or {"default": {}}).items()
    }
