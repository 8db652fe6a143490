"""Communication layer: topology graph, message exchange, falsification.

Every step each agent transmits one observation payload over each of its
bidirectional channels. Cooperative agents transmit the truth; a
self-interested agent first runs its payload through a scripted
falsification strategy.
"""

from __future__ import annotations

import io
import random
import re
from dataclasses import dataclass
from enum import Enum

from .env import CELL_COVERED, CELL_OOB, CELL_UNCOVERED, Observation
from .policies import AdversaryStrategy

# Candidate cells drawn when spoofing a position; farthest (Manhattan) wins.
POSITION_SPOOF_CANDIDATES = 8

# bytes.translate table for a lure payload: every uncovered cell reads covered
_LURE = bytes.maketrans(bytes([CELL_UNCOVERED]), bytes([CELL_COVERED]))

# bytes.translate table from the byte holding a random() draw's top bit to
# the babbled cell: covered when the bit is clear, that is when the draw is
# below 0.5
_COIN = bytes(CELL_COVERED if byte < 0x80 else CELL_UNCOVERED for byte in range(256))

# a maximal run of in-grid cells in a window
_IN_GRID_RUNS = re.compile(b"[^%c]+" % CELL_OOB)


class Role(Enum):
    COOPERATIVE = "cooperative"
    SELF_INTERESTED = "self_interested"


class FalsificationStrategy(Enum):
    TRUTHFUL = "truthful"
    LURE = "lure"  # report every uncovered cell as covered
    POSITION_SPOOF = "position_spoof"  # claim a far-away position
    BABBLE = "babble"  # random flags, no usable content


# Strategies that draw from the sender's rng stream on every call, so their
# payload changes from step to step even when the truthful view does not.
RANDOM_FALSIFICATIONS = frozenset(
    {FalsificationStrategy.POSITION_SPOOF, FalsificationStrategy.BABBLE}
)


@dataclass(frozen=True)
class AgentSpec:
    """Roster entry: who an agent is and how it communicates and acts."""

    agent_id: int
    role: Role
    falsification: FalsificationStrategy = FalsificationStrategy.TRUTHFUL
    acting: AdversaryStrategy = AdversaryStrategy.NAIVE
    start: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.role is Role.COOPERATIVE and self.falsification is not FalsificationStrategy.TRUTHFUL:
            raise ValueError(f"cooperative agent {self.agent_id} must transmit truthfully")


@dataclass(frozen=True)
class CommGraph:
    """Symmetric communication topology without self-edges."""

    adjacency: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def complete(cls, ids: list[int] | tuple[int, ...]) -> "CommGraph":
        ids = sorted(ids)
        return cls(
            tuple(
                (i, tuple(j for j in ids if j != i))
                for i in ids
            )
        )

    @classmethod
    def from_edges(
        cls, ids: list[int] | tuple[int, ...], edges: list[tuple[int, int]]
    ) -> "CommGraph":
        """Build from undirected pairs; both directions are implied."""
        ids = sorted(ids)
        known = set(ids)
        neighbors: dict[int, set[int]] = {i: set() for i in ids}
        for a, b in edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) references an unknown agent")
            neighbors[a].add(b)
            neighbors[b].add(a)
        return cls(tuple((i, tuple(sorted(neighbors[i]))) for i in ids))

    def __post_init__(self) -> None:
        adjacency: dict[int, set[int]] = {}
        for i, nbrs in self.adjacency:
            if i in adjacency:
                raise ValueError(f"agent {i} is listed twice")
            adjacency[i] = set(nbrs)
            if len(adjacency[i]) != len(nbrs):
                raise ValueError(f"agent {i} lists a neighbour twice: {nbrs}")
        for i, nbrs in self.adjacency:
            for j in nbrs:
                if j == i:
                    raise ValueError(f"self-edge on agent {i}")
                if j not in adjacency:
                    raise ValueError(f"edge ({i}, {j}) references an unknown agent")
                if i not in adjacency[j]:
                    raise ValueError(f"asymmetric graph: edge ({i}, {j}) has no reverse")

    def agents(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.adjacency)

    def directed_edges(self) -> int:
        """Messages per step: one per (receiver, heard sender) pair."""
        return sum(len(nbrs) for _, nbrs in self.adjacency)


def falsify(
    obs: Observation,
    strategy: FalsificationStrategy,
    rng: random.Random,
    grid_size: tuple[int, int],
) -> Observation:
    """Transform a truthful observation per the sender's strategy.

    ``grid_size`` bounds the cells a spoofed position may claim. The rng is
    the sender's per-episode stream; TRUTHFUL and LURE draw nothing from it.
    """
    if strategy is FalsificationStrategy.TRUTHFUL:
        return obs

    cells = obs.window_key()
    if strategy is FalsificationStrategy.LURE:
        return Observation(obs.agent_id, obs.position, cells.translate(_LURE), obs.t)

    if strategy is FalsificationStrategy.BABBLE:
        # one random() draw per in-grid cell, in row-major order, taken in
        # one call: each draw is two 32-bit words and is < 0.5 exactly when
        # its first word's top bit is clear, the top bit of byte 3 of its
        # 8 little-endian bytes
        n = len(cells) - cells.count(CELL_OOB)
        coins = rng.getrandbits(64 * n).to_bytes(8 * n, "little")[3::8].translate(_COIN)
        draws = io.BytesIO(coins)
        babbled = _IN_GRID_RUNS.sub(lambda run: draws.read(len(run[0])), cells)
        return Observation(obs.agent_id, obs.position, babbled, obs.t)

    if strategy is FalsificationStrategy.POSITION_SPOOF:
        width, height = grid_size
        x, y = obs.position
        candidates = [
            (rng.randrange(width), rng.randrange(height))
            for _ in range(POSITION_SPOOF_CANDIDATES)
        ]
        fake = max(candidates, key=lambda c: abs(c[0] - x) + abs(c[1] - y))
        radius = obs.radius
        size = 2 * radius + 1
        faked = bytearray([CELL_COVERED]) * (size * size)
        for row in range(size):
            for col in range(size):
                gx = fake[0] + (col - radius)
                gy = fake[1] + (row - radius)
                if not (0 <= gx < width and 0 <= gy < height):
                    faked[row * size + col] = CELL_OOB
                elif abs(gx - x) <= radius and abs(gy - y) <= radius:
                    # inside the sender's real window: reuse true knowledge
                    faked[row * size + col] = cells[(gy - y + radius) * size + gx - x + radius]
        return Observation(obs.agent_id, fake, bytes(faked), obs.t)

    raise ValueError(f"unknown falsification strategy {strategy!r}")


def transmit(
    views: dict[int, Observation],
    roster: dict[int, AgentSpec],
    rng: random.Random,
    grid_size: tuple[int, int],
) -> dict[int, Observation]:
    """The payload each agent transmits this step, keyed by sender.

    ``views`` holds every agent's truthful observation. Payloads are
    computed once per sender in ascending id order so the falsification rng
    stream is identical regardless of topology.
    """
    payloads: dict[int, Observation] = {}
    for i in sorted(roster):
        payloads[i] = falsify(views[i], roster[i].falsification, rng, grid_size)
    return payloads


def address(
    payloads: dict[int, Observation], graph: CommGraph
) -> dict[int, tuple[Observation, ...]]:
    """Fan payloads out over the directed edges: receiver id -> inbox, the
    payloads of its neighbours in neighbour order. A payload's sender is
    its ``agent_id``."""
    return {
        receiver: tuple(payloads[sender] for sender in nbrs)
        for receiver, nbrs in graph.adjacency
    }
