"""Command-line experiment driver.

Runs every scenario a config file defines (or a named subset) and writes
one CSV and one JSON summary per scenario. Exit codes: 0 success, 2 bad
configuration or arguments, 1 runtime or I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, ScenarioConfig, check_run_size, load_scenarios
from .harness import run_scenario, write_artifact


def _adjust_seeds(
    cfg: ScenarioConfig, episodes: int | None, seed_offset: int
) -> ScenarioConfig:
    seeds = cfg.seeds
    if episodes is not None:
        if episodes < 1:
            raise ConfigError(f"--episodes must be at least 1, got {episodes}")
        check_run_size(
            cfg.width,
            cfg.height,
            episodes,
            cfg.steps,
            len(cfg.roster),
            cfg.topology.directed_edges(),
        )
        if episodes <= len(seeds):
            seeds = seeds[:episodes]
        else:
            # extend past the configured list with consecutive fresh seeds
            top = max(seeds) + 1
            seeds = seeds + tuple(range(top, top + episodes - len(seeds)))
    if seed_offset:
        seeds = tuple(s + seed_offset for s in seeds)
    return replace(cfg, seeds=seeds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trustgrid",
        description="Run grid-coverage trust-defense scenarios and write CSV/JSON artifacts.",
    )
    parser.add_argument("--config", required=True, help="scenario config file (INI)")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this scenario (repeatable); default: all in the file",
    )
    parser.add_argument(
        "--seed-offset",
        type=int,
        default=0,
        help="add this offset to every seed (default 0)",
    )
    parser.add_argument(
        "--episodes",
        type=int,
        default=None,
        help="override the episode count; truncates or extends the seed list",
    )
    args = parser.parse_args(argv)

    try:
        scenarios = load_scenarios(args.config)
        if args.scenario:
            missing = [name for name in args.scenario if name not in scenarios]
            if missing:
                raise ConfigError(
                    f"unknown scenario(s) {missing}; config defines {sorted(scenarios)}"
                )
            scenarios = {name: scenarios[name] for name in args.scenario}
        for name, cfg in scenarios.items():
            artifact = run_scenario(_adjust_seeds(cfg, args.episodes, args.seed_offset))
            csv_path, json_path = write_artifact(artifact, args.out)
            finals = artifact.final_coverages()
            mean_final = sum(finals) / len(finals)
            print(
                f"{name}: {len(artifact.episodes)} episodes, "
                f"mean final coverage {mean_final:.4f} -> {csv_path}, {json_path}"
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a bare MemoryError has no message of its own
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
