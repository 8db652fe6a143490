"""Trust-decision classification and episode aggregation.

The positive class is "adversary": a true positive is a distrusted
adversary, a false positive a distrusted cooperative peer. Counts are
tallied per observer per step against ground-truth roles, so they measure
the defense's detection quality independent of coverage outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .comms import Role


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0  # distrusted adversary
    tn: int = 0  # trusted cooperative
    fp: int = 0  # distrusted cooperative
    fn: int = 0  # trusted adversary


@dataclass(frozen=True)
class StepLog:
    """Everything one step contributes to metrics, after the trust update.
    Its step number is its 1-based position in the episode's log list."""

    coverage: float
    rewards: dict[int, int]
    beliefs: dict[int, float]  # heard sender -> belief, shared by its hearers
    verdicts: dict[int, bool]  # heard sender -> consistent, shared by its hearers
    confusion: dict[int, ConfusionCounts]  # observer -> step counts


@dataclass(frozen=True)
class EpisodeSummary:
    coverage_timeline: tuple[float, ...]
    mean_f1_timeline: tuple[float, ...]
    reward_totals: dict[int, int]


def classify_step(
    beliefs: dict[int, float],
    roles: dict[int, Role],
    tau: float,
    heard: dict[int, tuple[int, ...]],
) -> dict[int, ConfusionCounts]:
    """Per-observer confusion at one instant: flagged iff belief < tau.

    ``beliefs`` maps each heard peer to the belief its hearers share.
    ``heard`` maps each observer to the peers it receives messages from
    (its channel neighbours). Each heard peer lands in exactly one cell,
    so an observer's counts sum to its received-message count.
    """
    out: dict[int, ConfusionCounts] = {}
    for observer in sorted(heard):
        tp = tn = fp = fn = 0
        for peer in heard[observer]:
            flagged = beliefs[peer] < tau
            if roles[peer] is Role.SELF_INTERESTED:
                if flagged:
                    tp += 1
                else:
                    fn += 1
            else:
                if flagged:
                    fp += 1
                else:
                    tn += 1
        out[observer] = ConfusionCounts(tp, tn, fp, fn)
    return out


def f1(counts: ConfusionCounts) -> float:
    """2*tp / (2*tp + fp + fn); 1.0 when no positives exist and none were
    claimed, so adversary-free runs score perfect rather than undefined."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 1.0
    return 2 * counts.tp / denom


def team_f1(confusion: dict[int, ConfusionCounts], roles: dict[int, Role]) -> float:
    """Mean per-observer F1 over the cooperative team.

    Adversaries run the same monitoring code but are not part of the team
    being evaluated; with no cooperative observers at all, fall back to the
    mean over everyone.
    """
    observers = [i for i in confusion if roles[i] is Role.COOPERATIVE]
    if not observers:
        observers = sorted(confusion)
    return sum(f1(confusion[i]) for i in observers) / len(observers)


def summarize(steps: list[StepLog], roles: dict[int, Role]) -> EpisodeSummary:
    """Collapse a full step log into per-episode timelines and totals."""
    coverage = tuple(entry.coverage for entry in steps)
    totals: dict[int, int] = {i: 0 for i in sorted(roles)}
    f1_timeline = []
    last = None
    for entry in steps:
        for agent, reward in entry.rewards.items():
            totals[agent] += reward
        # a step whose flags did not change shares the previous step's
        # counts (frozen steps its whole log); score them once
        if entry.confusion is not last:
            last, score = entry.confusion, team_f1(entry.confusion, roles)
        f1_timeline.append(score)
    return EpisodeSummary(
        coverage_timeline=coverage,
        mean_f1_timeline=tuple(f1_timeline),
        reward_totals=totals,
    )
