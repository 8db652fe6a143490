"""Independent reference implementations used to cross-check the package.

Everything here recomputes a library quantity by a different method:
action values by brute-force enumeration of whole action sequences and by
a plain recursive DP with the library's float operations (the bit-exact
reference), belief trajectories by a literal replay of the update
arithmetic, KL surprise scores via the full five-term divergence sum,
and the artifact CSV by formatting every row on its own. Nothing imports from trustgrid, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import itertools
import math

UNCOVERED, COVERED, OOB = 0, 1, 2
UP, DOWN, LEFT, RIGHT, STAY = range(5)
# (row step, col step) per action, row 0 at the top
MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1), STAY: (0, 0)}


def enumeration_values(window: list[list[int]], gamma: float, horizon: int) -> list[float]:
    """Best discounted coverage gain per first action, by trying every
    action sequence of the given length from the window center.

    A move off the window or onto an out-of-grid cell resolves to staying;
    landing on a not-yet-collected uncovered cell earns gamma**depth.
    """
    size = len(window)
    start = (size // 2, size // 2)
    values = []
    for first in range(5):
        best = 0.0
        for rest in itertools.product(range(5), repeat=horizon - 1):
            pos = start
            collected: set[tuple[int, int]] = set()
            total = 0.0
            for depth, action in enumerate((first,) + rest):
                dr, dc = MOVES[action]
                nxt = (pos[0] + dr, pos[1] + dc)
                if (
                    not (0 <= nxt[0] < size and 0 <= nxt[1] < size)
                    or window[nxt[0]][nxt[1]] == OOB
                ):
                    nxt = pos
                if window[nxt[0]][nxt[1]] == UNCOVERED and nxt not in collected:
                    collected.add(nxt)
                    total += gamma**depth
                pos = nxt
            if total > best:
                best = total
        values.append(best)
    return values


def dp_values(window: list[list[int]], gamma: float, horizon: int) -> list[float]:
    """Value per first action by the plain recursive DP over (cell, mask,
    depth), memoised and fully recursive down to depth 0.

    The float operations and their order are the library's: a step onto a
    not-yet-collected uncovered cell is worth 1.0 + gamma * (rest), any
    other step gamma * (rest), and a node keeps the first strict maximum
    in action order starting from 0.0. Equality with this function is
    therefore bit-for-bit, not approximate.
    """
    size = len(window)
    cells = [cell for row in window for cell in row]
    center = (size // 2) * size + (size // 2)

    moves = []
    for idx in range(size * size):
        row, col = divmod(idx, size)
        dests = []
        for action in range(5):
            dr, dc = MOVES[action]
            nr, nc = row + dr, col + dc
            if 0 <= nr < size and 0 <= nc < size and cells[nr * size + nc] != OOB:
                dests.append(nr * size + nc)
            else:
                dests.append(idx)
        moves.append(dests)

    memo: dict[tuple[int, int, int], float] = {}

    def best(idx: int, mask: int, depth: int) -> float:
        if depth == 0:
            return 0.0
        key = (idx, mask, depth)
        if key in memo:
            return memo[key]
        out = 0.0
        for dest in moves[idx]:
            bit = 1 << dest
            if cells[dest] == UNCOVERED and not mask & bit:
                v = 1.0 + gamma * best(dest, mask | bit, depth - 1)
            else:
                v = gamma * best(dest, mask, depth - 1)
            if v > out:
                out = v
        memo[key] = out
        return out

    values = []
    for dest in moves[center]:
        bit = 1 << dest
        if cells[dest] == UNCOVERED:
            values.append(1.0 + gamma * best(dest, bit, horizon - 1))
        else:
            values.append(gamma * best(dest, 0, horizon - 1))
    return values


def ternary_windows(size: int, max_uncovered: int):
    """Every size x size flag assignment with at most max_uncovered
    uncovered cells, as row-major nested lists."""
    for flat in itertools.product((UNCOVERED, COVERED, OOB), repeat=size * size):
        if flat.count(UNCOVERED) > max_uncovered:
            continue
        yield [list(flat[r * size : (r + 1) * size]) for r in range(size)]


def replay_beliefs(verdicts: list[bool], s: float) -> list[float]:
    """Belief trajectory for one peer from a scripted verdict list.

    Verdict k lands at step t = k + 2: its count is bumped first, then the
    belief moves by s * (count / t) and is clamped to [0, 1]. Returns the
    belief after every update.
    """
    belief = 1.0
    consistent_count = 0
    inconsistent_count = 0
    out = []
    for k, consistent in enumerate(verdicts):
        t = k + 2
        if consistent:
            consistent_count += 1
            belief = belief + s * (consistent_count / t)
        else:
            inconsistent_count += 1
            belief = belief - s * (inconsistent_count / t)
        belief = min(1.0, max(0.0, belief))
        out.append(belief)
    return out


def softmax(values: list[float], temperature: float) -> list[float]:
    shifted = [(v - max(values)) / temperature for v in values]
    weights = [math.exp(v) for v in shifted]
    total = sum(weights)
    return [w / total for w in weights]


def kl_surprise(values: list[float], observed: int, temperature: float) -> float:
    """Full five-term KL divergence between the softmax distribution and the
    same distribution with the canonical and observed probabilities swapped.

    The canonical action is the first argmax of the values. Computed as the
    complete sum, unlike the library's two-term shortcut.
    """
    canonical = max(range(5), key=lambda a: (values[a], -a))
    probs = softmax(values, temperature)
    swapped = list(probs)
    swapped[canonical], swapped[observed] = swapped[observed], swapped[canonical]
    return sum(
        p * math.log(p / q) for p, q in zip(probs, swapped) if p != q
    )


def csv_text(episodes, heard: dict[int, tuple[int, ...]]) -> str:
    """The artifact CSV, every field of every row formatted on its own.

    ``episodes`` holds (seed, step logs) pairs. A log has ``coverage``,
    ``beliefs`` and ``verdicts`` per peer, and ``confusion`` per observer
    with ``tp``, ``tn``, ``fp`` and ``fn``. ``heard`` maps each observer to
    its peers in row order. F1 is 2*tp / (2*tp + fp + fn), and 1.0 when
    that denominator is 0.
    """
    lines = ["step,episode,coverage,observer,peer,belief,verdict,tp,tn,fp,fn,f1"]
    for seed, logs in episodes:
        for t, log in enumerate(logs, 1):
            for observer in sorted(heard):
                counts = log.confusion[observer]
                denom = 2 * counts.tp + counts.fp + counts.fn
                score = 2 * counts.tp / denom if denom else 1.0
                for peer in heard[observer]:
                    fields = [
                        str(t),
                        str(seed),
                        "%.9g" % log.coverage,
                        str(observer),
                        str(peer),
                        "%.9g" % log.beliefs[peer],
                        "1" if log.verdicts[peer] else "0",
                        str(counts.tp),
                        str(counts.tn),
                        str(counts.fp),
                        str(counts.fn),
                        "%.9g" % score,
                    ]
                    lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
