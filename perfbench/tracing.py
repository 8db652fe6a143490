"""Layer spans recorded from outside the program.

Each traced function is replaced, in every module that calls it, by a
wrapper that times the call and charges the time to a named span. A
span's self time is its duration minus the time of the traced calls made
inside it. Spans are aggregated in memory (calls, total and self seconds
per name) because a run makes millions of them. A few spans also carry a
hook that counts what passed through the call, such as messages kept by
gating.
"""

from __future__ import annotations

import time
from collections import Counter


def _count_agent_steps(args, result, counts):
    counts["agent_steps"] += len(args[1])


def _count_messages(args, result, counts):
    counts["messages"] += sum(len(inbox) for inbox in result.values())


def _count_gated(args, result, counts):
    counts["gate_offered"] += len(args[1])
    counts["gate_kept"] += len(result)


def _count_verdicts(args, result, counts):
    counts["inconsistent"] += not result.consistent


def _count_noop_merges(args, result, counts):
    counts["merge_noop"] += result is args[0]


# span name -> (call sites as (module, attribute), hook). A call site is
# the name a caller looks up at call time, so patching it there catches
# every call that module makes.
SPANS = {
    "config.load_scenarios": ((("config", "load_scenarios"),), None),
    "env.reset": ((("harness", "reset"),), None),
    "env.observe": ((("harness", "observe"), ("comms", "observe")), None),
    "env.step": ((("harness", "step"),), _count_agent_steps),
    "comms.transmit": ((("harness", "transmit"),), None),
    "comms.falsify": ((("comms", "falsify"),), None),
    "comms.address": ((("harness", "address"),), _count_messages),
    "policies.greedy_action": (
        (("harness", "greedy_action"), ("policies", "greedy_action"), ("trust", "greedy_action")),
        None,
    ),
    "policies.action_values": (
        (("policies", "action_values"), ("trust", "action_values")),
        None,
    ),
    "trust.step_trust_all": ((("harness", "step_trust_all"),), None),
    "trust.consistency_check": ((("trust", "consistency_check"),), _count_verdicts),
    "trust.gate_messages": ((("harness", "gate_messages"),), _count_gated),
    "metrics.classify_step": ((("harness", "classify_step"),), None),
    "metrics.summarize": ((("harness", "summarize"),), None),
    "harness.merge_observation": ((("harness", "merge_observation"),), _count_noop_merges),
    "harness.run_episode": ((("harness", "run_episode"),), None),
    "harness.run_scenario": ((("harness", "run_scenario"),), None),
    "harness.write_artifact": ((("harness", "write_artifact"),), None),
}


class Tracer:
    """Span totals per name plus the counts the hooks make."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._open: list[float] = []  # traced child time of each open span

    def wrap(self, name, fn, hook=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if hook is not None:
                hook(args, result, counts)
            return result

        return traced

    def install(self, modules: dict) -> list[str]:
        """Patch every call site found in ``modules`` (short name -> module).

        Returns the span names none of whose call sites exist, so their
        metrics can be reported as missing rather than as zero.
        """
        missing = []
        for name, (sites, hook) in SPANS.items():
            found = False
            for module_name, attr in sites:
                module = modules[module_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self.wrap(name, fn, hook))
                found = True
            if not found:
                missing.append(name)
        return missing
