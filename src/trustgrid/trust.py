"""Peer trust from observed behaviour.

After every exchange each heard sender is put to one question: given the
basis it is judged on (its claimed observation, in every shipped mode),
would a cooperative agent have acted as the sender did? Agents share one
policy, so an honest sender's action must match (or score close to) the
shared choice on that basis. The verdict depends only on the basis it is
given and on the sender's action. The engine passes one basis per sender,
so every agent that hears the sender reaches the same verdict and holds
the same belief in it: one belief in [0, 1] per heard sender stands for
all of its hearers. Verdicts accumulate into per-sender counts that drive
belief updates, and beliefs gate which incoming messages an agent is
willing to use.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .env import Observation
from .policies import Action, ValueOracleConfig, action_values


class ConsistencyMode(Enum):
    EXACT_MATCH = "exact_match"
    VALUE_THRESHOLD = "value_threshold"
    KL = "kl"


class GatingMode(Enum):
    THRESHOLD = "threshold"  # keep iff belief >= tau
    BERNOULLI = "bernoulli"  # keep with probability equal to belief


@dataclass(frozen=True)
class ConsistencyConfig:
    mode: ConsistencyMode
    rho: float
    kl_threshold: float | None
    temperature: float

    def __post_init__(self) -> None:
        if self.rho < 0.0:
            raise ValueError(f"rho must be non-negative, got {self.rho}")
        if self.kl_threshold is not None and self.kl_threshold < 0.0:
            raise ValueError(
                f"kl_threshold must be non-negative, got {self.kl_threshold}"
            )
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.mode is ConsistencyMode.KL and self.kl_threshold is None:
            raise ValueError("kl_threshold is required when defense.consistency = kl")


@dataclass(frozen=True)
class Verdict:
    """One consistency judgement: the flag that counts, plus its raw score."""

    consistent: bool
    score: float


@dataclass
class TrustState:
    """One episode's running model of every heard sender.

    ``counts[sender]`` is [inconsistent verdicts, consistent verdicts].
    Every hearer of a sender judges it by the same verdict at the same
    step, from the same initial belief, so one entry serves them all.
    """

    beliefs: dict[int, float]
    counts: dict[int, list[int]]
    s: float
    t: int = 1


def init_trust(senders: Iterable[int], s: float) -> TrustState:
    """Fresh state: full belief in every heard sender, no evidence yet. The
    caller passes the step multiplier ``s``, as ``ScenarioConfig`` checked it."""
    ids = sorted(senders)
    return TrustState(
        beliefs={i: 1.0 for i in ids},
        counts={i: [0, 0] for i in ids},
        s=s,
    )


def kl_score(values: tuple[float, ...], observed: Action, temperature: float) -> float:
    """Surprise of the observed action under a softmax over one value row.

    Compares the softmax over ``values`` against the same distribution with
    the probabilities of the canonical (first-max) and observed actions
    swapped; only those two actions contribute. Exactly 0.0 when the
    observed action is the canonical one or ties it in probability, and
    infinite when the observed action's probability underflows to 0.0.
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    top = max(values)
    canonical = values.index(top)
    if observed == canonical:
        return 0.0
    # shifted by the top value, so the softmax cannot overflow
    weights = [math.exp((v - top) / temperature) for v in values]
    total = sum(weights)
    p_canon = weights[canonical] / total
    p_obs = weights[observed] / total
    if p_canon == p_obs:
        return 0.0
    if p_obs == 0.0:
        return math.inf
    return (p_canon - p_obs) * math.log(p_canon / p_obs)


def calibrate_kl_threshold(
    samples: list[tuple[Observation, Action]],
    temperature: float,
    oracle: ValueOracleConfig,
) -> float:
    """Mean surprise score over known-honest (observation, action) samples.

    Under a stochastic policy honest peers routinely deviate from the
    canonical action, so the consistency cut-off has to come from data:
    scores at or below this mean pass.
    """
    if not samples:
        raise ValueError("cannot calibrate a threshold from zero samples")
    total = 0.0
    for payload, observed in samples:
        total += kl_score(action_values(payload, oracle), observed, temperature)
    return total / len(samples)


def consistency_check(
    oracle: ValueOracleConfig,
    basis: Observation,
    observed_action: Action,
    cfg: ConsistencyConfig,
) -> Verdict:
    """Judge a peer's action against the action a cooperative agent would
    take on ``basis``, the observation the peer is anticipated from.

    Every mode reads one value row, the shared oracle's values on the
    basis, so the verdict is the same for every observer given the basis.
    The anticipated action is the row's first maximum. The score is the
    value gap ``max(values) - values[observed]`` in ``exact_match`` and
    ``value_threshold`` modes, and ``kl_score`` of the same row in ``kl``
    mode.
    """
    values = action_values(basis, oracle)
    if cfg.mode is ConsistencyMode.KL:
        score = kl_score(values, observed_action, cfg.temperature)
        return Verdict(score <= cfg.kl_threshold, score)
    top = max(values)
    gap = top - values[observed_action]
    if cfg.mode is ConsistencyMode.EXACT_MATCH:
        # greedy_action's first-max tie-break
        return Verdict(values.index(top) == observed_action, gap)
    if cfg.mode is ConsistencyMode.VALUE_THRESHOLD:
        return Verdict(gap <= cfg.rho, gap)
    raise ValueError(f"unknown consistency mode {cfg.mode!r}")


def update_belief(ts: TrustState, sender: int, verdict: Verdict) -> None:
    """Count this step's verdict, then move belief by s * (matching verdict
    count / step), clamped to [0, 1].

    Counts grow while the divisor is the running step, so a consistent
    streak holds belief at the ceiling and repeated inconsistency pins it
    to the floor.
    """
    counts = ts.counts[sender]  # KeyError for a sender nobody hears
    counts[1 if verdict.consistent else 0] += 1
    belief = ts.beliefs[sender]
    if verdict.consistent:
        belief = belief + ts.s * (counts[1] / ts.t)
    else:
        belief = belief - ts.s * (counts[0] / ts.t)
    ts.beliefs[sender] = min(1.0, max(0.0, belief))


def step_trust_all(
    ts: TrustState,
    bases: dict[int, Observation],
    observed_actions: dict[int, Action],
    cfg: ConsistencyConfig,
    oracle: ValueOracleConfig,
) -> dict[int, bool]:
    """One reevaluation round after an environment step; returns each heard
    sender's verdict, True for consistent.

    ``bases`` holds the observation each sender's action in the step just
    taken is judged on, and ``observed_actions`` those actions. The step
    counter advances once, and each heard sender is judged once. Its
    verdict counts for every hearer, including hearers that chose not to
    act on the message, so beliefs keep moving for gated senders.
    """
    ts.t += 1
    verdicts: dict[int, bool] = {}
    for sender in ts.beliefs:
        verdict = consistency_check(oracle, bases[sender], observed_actions[sender], cfg)
        update_belief(ts, sender, verdict)
        verdicts[sender] = verdict.consistent
    return verdicts


def gate_messages(
    beliefs: dict[int, float],
    inbox: tuple[Observation, ...],
    tau: float,
    mode: GatingMode,
    rng: random.Random,
) -> tuple[Observation, ...]:
    """Drop an inbox's payloads from senders that ``beliefs`` does not trust.

    Threshold mode keeps a payload iff its sender's belief is at least tau,
    so tau = 0 disables gating. Bernoulli mode keeps it with probability
    equal to the belief, drawing one uniform per payload in inbox order.
    Dropped senders simply contribute nothing; the receiving agent
    proceeds on fewer payloads. The caller passes every value, ``tau`` as
    ``ScenarioConfig`` checked it; threshold mode never reads ``rng``.
    """
    kept: list[Observation] = []
    for payload in inbox:
        belief = beliefs[payload.agent_id]  # KeyError for a sender nobody hears
        if mode is GatingMode.THRESHOLD:
            keep = belief >= tau
        else:
            keep = rng.random() < belief
        if keep:
            kept.append(payload)
    return tuple(kept)
