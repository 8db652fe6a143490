"""trustgrid benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. A workload is a scenario file and a number
of batches of episodes. Each repetition runs one batch in a fresh
interpreter (perfbench/worker.py) that imports trustgrid from ``src/``,
loads the scenarios, runs ``harness.run_scenario`` and
``harness.write_artifact`` for each, and hashes the artifacts.
Repetitions run one after another (closed loop, one process at a time),
cycling through the batches, at least twice each and more while
``--seconds`` allow. wall_s and agent_steps_per_s are the mean over
batches of each batch's median repetition (see batch_median); setup_s and
peak_rss_mb are medians over repetitions. Many batches average over many
distinct episodes; repeating each batch lets the median average out the
slowdowns that other tenants of a shared host cause.

Every time reported is scaled to a fixed host speed: a repetition's times
are multiplied by calibration.speed_scale of the median time of the
calibration ticks sampled while it ran (see calibration.py). The host
this was tuned on changed speed by up to a factor of two from minute to
minute; the ticks slow with it, while a change to trustgrid moves only
the program's own times. The report lines give the unscaled times too.

``--seed`` is the seed offset: it is added to every episode seed, as the
CLI's ``--seed-offset`` does. At offset 0 every episode's CSV rows and
every scenario's JSON are checked against the SHA-256 digests in
``perfbench/reference``; at any other offset the repetitions of a batch
must produce identical artifacts. Counts that the same code and seeds
must repeat exactly are compared across repetitions of a batch too.

``--trace 0`` reports the end-to-end metrics from untraced repetitions.
``--trace 1`` interleaves traced and untraced repetitions of the first
batch and reports the per-layer metrics: span counts and self times
recorded by perfbench/tracing.py, an oracle microbenchmark over the fixed
windows in ``perfbench/fixtures``, and the tracing overhead.

Every line but the last is a report for people; the last line is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from statistics import median

from calibration import speed_scale

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Why each workload exists, and which layers it stresses:
# - default_arms: the paper's own traffic, the five shipped arms. The
#   oracle stays warm (few distinct 5x5 windows), so per-agent Python
#   overhead in merge, trust update, greedy choice, observe and CSV
#   writing dominates.
# - deep_oracle: 9x9 windows and horizon 6, and a babbling adversary whose
#   every payload is a new window, so cold value-table misses dominate;
#   exercises any fallback for windows too large to encode.
# One repetition takes 1.5 to 3 seconds on a 2-core box, so a 60 s run
# makes two to three cycles through eight batches. The cost of an episode
# depends on its seed (deep_oracle: 7% between two-batch runs at seed
# offsets 11 and 14), so each run averages over as many distinct episodes
# as still lets every batch run twice on a host twice as slow.
WORKLOADS = {
    "default_arms": {
        "config": "scenarios/default.ini",
        "episodes": 3,
        "batches": 8,
        "fixture": "oracle_r2_h3.json",
    },
    "deep_oracle": {
        "config": "perfbench/workloads/deep_oracle.ini",
        "episodes": 8,
        "batches": 8,
        "fixture": "oracle_r4_h6.json",
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "agent_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "passed_episode_frac": "ratio",
}

# Everything, child processes included, must end well inside 180 s.
BUDGET_S = 165.0


class BenchError(Exception):
    pass


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Bench:
    def __init__(self, workload: str, offset: int, work_dir: str):
        spec = WORKLOADS[workload]
        self.batches = spec["batches"]
        self.work_dir = work_dir
        self.spec = {
            "root": ROOT,
            "config": os.path.join(ROOT, spec["config"]),
            "episodes": spec["episodes"],
            "offset": offset,
            "fixture": os.path.join(BENCH_DIR, "fixtures", spec["fixture"]),
        }
        self.started = time.monotonic()
        self.runs: list[dict] = []  # every child process, in the order run
        self.numpy = None

    def child(self, mode: str, batch: int = 0, traced: bool = False) -> dict:
        """Run one worker process to completion and return its result."""
        index = len(self.runs)
        out = os.path.join(self.work_dir, f"run{index}")
        spec = dict(self.spec, mode=mode, batch=batch, trace=traced, out=out)
        remaining = BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"time budget of {BUDGET_S:.0f} s spent")
        load_before = os.getloadavg()
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} run {index} did not finish within the budget") from None
        finished = time.monotonic()
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(
            {
                "order": index,
                "kind": ("traced" if traced else "untraced") if mode == "run" else mode,
                "batch": batch,
                "start_s": round(spawned - self.started, 3),
                "duration_s": round(finished - spawned, 3),
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
            }
        )
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} run {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(batch=batch, traced=traced)
        result["setup_s"] = result["setup_done"] - spawned
        result["duration_s"] = finished - spawned
        if mode != "setup":
            if not result["ticks"]:
                raise BenchError(f"{mode} run {index} sampled no calibration tick")
            result["scale"] = speed_scale(result["tick_s"])
        self.numpy = result.get("numpy", self.numpy)
        return result

    def repeat(self, plan: list[tuple[int, bool]], min_cycles: int, seconds: float) -> list[dict]:
        """Cycles through ``plan`` ((batch, traced) pairs): at least
        ``min_cycles`` whole ones, then more repetitions while the next
        should end before ``seconds`` have passed. Every batch runs at
        least ``min_cycles`` times and at most once more than any other."""
        reps: list[dict] = []
        deadline = self.started + seconds
        begun = time.monotonic()
        while True:
            batch, traced = plan[len(reps) % len(plan)]
            reps.append(self.child("run", batch, traced))
            now = time.monotonic()
            per_rep = (now - begun) / len(reps)
            if len(reps) >= min_cycles * len(plan) and now + per_rep > deadline:
                return reps


def load_reference(workload: str) -> list[dict]:
    with open(os.path.join(BENCH_DIR, "reference", f"{workload}.json")) as fh:
        return json.load(fh)["batches"]


def by_batch(reps: list[dict]) -> dict[int, list[dict]]:
    groups: dict[int, list[dict]] = {}
    for rep in reps:
        groups.setdefault(rep["batch"], []).append(rep)
    return groups


def batch_median(reps: list[dict], value) -> float:
    """Mean over batches of the median ``value(rep)`` among each batch's
    repetitions. On a shared host the speed of one repetition varies by a
    factor of up to two from one second to the next; the best repetition
    depends on whether a quiet spell happened to come, while the median
    of many repetitions settles."""
    groups = by_batch(reps).values()
    return statistics.fmean(median(value(r) for r in group) for group in groups)


def check_episodes(rep: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed) episodes of one repetition against ``expected``
    digests per scenario. An episode fails if its scenario raised, if its
    CSV rows differ, or if the scenario's CSV header or JSON differs."""
    attempted = failed = 0
    for name, seeds in rep["seeds"].items():
        want = expected.get(name)
        got = rep["artifacts"].get(name)
        same_files = (
            want is not None
            and got is not None
            and got["header"] == want["header"]
            and got["json"] == want["json"]
        )
        for seed in seeds:
            digest = want["episodes"].get(seed) if same_files else None
            attempted += 1
            failed += digest is None or got["episodes"].get(seed) != digest
    return attempted, failed


def untraced_counts(rep: dict) -> dict:
    """Counts an untraced repetition can make that must repeat exactly."""
    counts = {
        "harness.agent_steps": sum(rep["agent_steps"][n] for n in rep["artifacts"]),
        "harness.csv_rows": sum(a["rows"] for a in rep["artifacts"].values()),
    }
    if "oracle" in rep:
        counts["policies.oracle.misses"] = rep["oracle"]["misses"]
    return counts


def traced_counts(rep: dict) -> dict:
    """Every count a traced repetition makes, all of which must repeat."""
    counts = untraced_counts(rep)
    counts.update({f"{name}.calls": stats[0] for name, stats in rep["spans"].items()})
    counts.update({f"count.{name}": value for name, value in rep["counts"].items()})
    return counts


def layer_metrics(traced: list[dict], untraced: list[dict], oracle: dict | None):
    """Per-layer metrics and the names of those whose span no longer
    exists in the program. Counts come from the first traced repetition
    (check() makes sure they repeat); times are the median over traced
    repetitions, as in batch_median. The tracer's clock counts the
    calibration ticks too; they fire evenly in time, so each span's share
    of them is its share of the run, which ``span_scale`` takes out."""
    missing_spans = set(traced[0]["missing_spans"])
    out: dict[str, tuple[float, str]] = {}

    def span_scale(r):
        return r["scale"] * r["wall_s"] / (r["wall_s"] + r["tick_spent_s"])

    missing: list[str] = []

    def span_metric(metric, span, field, unit):
        if span in missing_spans:
            missing.append(metric)
            return
        if field == "calls":  # repeats exactly across repetitions
            out[metric] = (traced[0]["spans"][span][0], unit)
        else:
            index = {"total": 1, "self": 2}[field]
            out[metric] = (median(r["spans"][span][index] * span_scale(r) for r in traced), unit)

    def ratio_metric(metric, num, den, span):
        first = traced[0]
        if span in missing_spans or not den(first):
            missing.append(metric)
        else:
            out[metric] = (num(first) / den(first), "ratio")

    span_metric("env.observe.calls", "env.observe", "calls", "count")
    span_metric("env.observe.self_s", "env.observe", "self", "s")
    span_metric("env.step.self_s", "env.step", "self", "s")
    span_metric("comms.transmit.self_s", "comms.transmit", "self", "s")
    span_metric("comms.falsify.self_s", "comms.falsify", "self", "s")
    span_metric("comms.address.self_s", "comms.address", "self", "s")
    if "comms.address" in missing_spans:
        missing.append("comms.messages")
    else:
        out["comms.messages"] = (traced[0]["counts"].get("messages", 0), "count")
    span_metric("policies.greedy_action.calls", "policies.greedy_action", "calls", "count")
    span_metric("policies.greedy_action.self_s", "policies.greedy_action", "self", "s")
    span_metric("policies.action_values.calls", "policies.action_values", "calls", "count")
    span_metric("policies.action_values.self_s", "policies.action_values", "self", "s")
    if "oracle" in traced[0]:
        hits = traced[0]["oracle"]["hits"]
        misses = traced[0]["oracle"]["misses"]
        out["policies.oracle.misses"] = (misses, "count")
        out["policies.oracle.hit_rate"] = (hits / (hits + misses), "ratio")
    else:
        missing += ["policies.oracle.misses", "policies.oracle.hit_rate"]
    if oracle is None:
        missing += ["policies.oracle.cold_us", "policies.oracle.warm_us"]
    else:
        out["policies.oracle.cold_us"] = (median(oracle["cold_us"]) * oracle["scale"], "us")
        out["policies.oracle.warm_us"] = (median(oracle["warm_us"]) * oracle["scale"], "us")
    span_metric("trust.step_trust_all.self_s", "trust.step_trust_all", "self", "s")
    span_metric("trust.consistency_check.calls", "trust.consistency_check", "calls", "count")
    span_metric("trust.consistency_check.self_s", "trust.consistency_check", "self", "s")
    span_metric("trust.gate_messages.self_s", "trust.gate_messages", "self", "s")
    ratio_metric(
        "trust.messages_kept_frac",
        lambda r: r["counts"].get("gate_kept", 0),
        lambda r: r["counts"].get("gate_offered", 0),
        "trust.gate_messages",
    )
    ratio_metric(
        "trust.inconsistent_frac",
        lambda r: r["counts"].get("inconsistent", 0),
        lambda r: r["spans"]["trust.consistency_check"][0],
        "trust.consistency_check",
    )
    span_metric("harness.merge_observation.calls", "harness.merge_observation", "calls", "count")
    span_metric("harness.merge_observation.self_s", "harness.merge_observation", "self", "s")
    ratio_metric(
        "harness.merge_observation.noop_frac",
        lambda r: r["counts"].get("merge_noop", 0),
        lambda r: r["spans"]["harness.merge_observation"][0],
        "harness.merge_observation",
    )
    span_metric("harness.run_episode.self_s", "harness.run_episode", "self", "s")
    span_metric("harness.run_scenario.s", "harness.run_scenario", "total", "s")
    span_metric("harness.write_artifact.s", "harness.write_artifact", "total", "s")
    out["harness.csv_rows"] = (untraced_counts(traced[0])["harness.csv_rows"], "count")
    if "env.step" in missing_spans:
        missing.append("harness.agent_steps")
    else:
        out["harness.agent_steps"] = (traced[0]["counts"].get("agent_steps", 0), "count")
    span_metric("metrics.classify_step.self_s", "metrics.classify_step", "self", "s")
    span_metric("metrics.summarize.self_s", "metrics.summarize", "self", "s")
    span_metric("config.load_scenarios.s", "config.load_scenarios", "total", "s")
    traced_wall = median(r["wall_s"] * r["scale"] for r in traced)
    untraced_wall = median(r["wall_s"] * r["scale"] for r in untraced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out, missing


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "trustgrid")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check(reps: list[dict], offset: int, workload: str) -> tuple[bool, int, int]:
    """Episode correctness and count determinism over all repetitions."""
    if offset == 0:
        expected = dict(enumerate(load_reference(workload)))
    else:  # no reference: each batch's first repetition is the baseline
        expected = {}
        for rep in reps:
            expected.setdefault(rep["batch"], rep["artifacts"])
    attempted = failed = 0
    for rep in reps:
        a, f = check_episodes(rep, expected[rep["batch"]])
        attempted += a
        failed += f
        for name, error in rep["errors"].items():
            print(f"batch {rep['batch']}: scenario {name} raised: {error}")
    correct = failed == 0
    for batch, group in by_batch(reps).items():
        traced = [r for r in group if r["traced"]]
        for label, members, counter in (
            ("", group, untraced_counts),
            ("traced ", traced, traced_counts),
        ):
            distinct = {json.dumps(counter(r), sort_keys=True) for r in members}
            if len(distinct) > 1:
                correct = False
                print(f"batch {batch}: counts differ between {label}repetitions: {sorted(distinct)}")
    return correct, attempted, failed


def print_scenarios(reps: list[dict]) -> None:
    for name, steps in reps[0]["agent_steps"].items():
        done = [r for r in reps if name in r["scenario_s"]]
        if done:
            seconds = batch_median(done, lambda r: r["scenario_s"][name] * r["scale"])
            print(f"  run_scenario {name}: {seconds:.4f} s, {steps / seconds:.1f} agent-steps/s")


def measure(args, bench: Bench) -> dict:
    bench.child("setup")  # discarded: compiles bytecode, warms the page cache
    if args.trace:
        reps = bench.repeat([(0, False), (0, True)], 2, args.seconds)
        oracle = bench.child("oracle")
        if not oracle["values_ok"]:
            print("oracle microbenchmark: values differ from the recorded digest")
            oracle = None
    else:
        plan = [(batch, False) for batch in range(bench.batches)]
        reps = bench.repeat(plan, 2, args.seconds)

    correct, attempted, failed = check(reps, args.seed, args.workload)
    if not any(r["scenario_s"] for r in reps):
        raise BenchError("no scenario ran to completion in any repetition")
    print(f"workload {args.workload}, seed offset {args.seed}, {len(reps)} repetitions")
    untraced = [r for r in reps if not r["traced"]]
    print_scenarios(untraced)

    if args.trace:
        correct = correct and oracle is not None
        traced = [r for r in reps if r["traced"]]
        layers, missing = layer_metrics(traced, untraced, oracle)
        if missing:
            print("missing per-layer metrics: " + ", ".join(missing))
        for name, (value, unit) in layers.items():
            print(f"{name:40} {value:14.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        def spread(label, values):
            q1, q3 = quartiles(values)
            print(f"  {label} median {median(values):.4f}, quartiles {q1:.4f} {q3:.4f} of {len(values)}")

        for batch, group in by_batch(reps).items():
            spread(f"batch {batch}: unscaled wall_s", [r["wall_s"] for r in group])
            spread(f"batch {batch}: wall_s", [r["wall_s"] * r["scale"] for r in group])
        spread("speed scale", [r["scale"] for r in reps])
        spread("unscaled setup_s", [r["setup_s"] for r in reps])
        setups = [r["setup_s"] * r["scale"] for r in reps]
        spread("setup_s", setups)
        values = {
            "wall_s": batch_median(reps, lambda r: r["wall_s"] * r["scale"]),
            "agent_steps_per_s": batch_median(
                reps,
                lambda r: sum(r["agent_steps"][n] for n in r["scenario_s"])
                / (sum(r["scenario_s"].values()) * r["scale"]),
            ),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
            "passed_episode_frac": 1.0 - failed / attempted,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed offset added to every episode seed")
    parser.add_argument("--seconds", type=int, required=True, help="measuring time for one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    needed = [
        os.path.join(ROOT, "src", "trustgrid", "__init__.py"),
        os.path.join(ROOT, WORKLOADS[args.workload]["config"]),
    ]
    absent = [path for path in needed if not os.path.isfile(path)]
    if absent:
        print(f"error: not a trustgrid checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    bench = Bench(args.workload, args.seed, work_dir)
    try:
        result = measure(args, bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it
    stamp = {
        "workload": args.workload,
        "seed_offset": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": bench.numpy,
        "nproc": os.cpu_count(),
        "runs": bench.runs,
    }
    print("environment: " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
