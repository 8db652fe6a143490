"""Command-line entry point: flags, artifacts, exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import textwrap

import pytest

import trustgrid
from trustgrid.cli import main

BASE = """
[grid]
width = 6
height = 6
[episode]
steps = 10
seeds = 0:3
"""

TWO_SCENARIOS = BASE + textwrap.dedent(
    """
    [scenario.fast]
    episode.steps = 5

    [scenario.slow]
    episode.steps = 8
    """
)


def write(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def seeds_in(csv_path):
    with open(csv_path) as fh:
        return sorted({int(row["episode"]) for row in csv.DictReader(fh)})


def test_single_scenario_run(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["--config", write(tmp_path, BASE), "--out", str(out)])
    assert code == 0
    assert (out / "default.csv").is_file()
    assert (out / "default.json").is_file()
    line = capsys.readouterr().out.strip()
    assert line.startswith("default: 3 episodes, mean final coverage")


def test_all_scenarios_run_by_default(tmp_path):
    out = tmp_path / "artifacts"
    assert main(["--config", write(tmp_path, TWO_SCENARIOS), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fast.csv", "fast.json", "slow.csv", "slow.json"]


def test_scenario_filter_runs_only_the_named_ones(tmp_path):
    out = tmp_path / "artifacts"
    code = main(
        [
            "--config", write(tmp_path, TWO_SCENARIOS),
            "--out", str(out),
            "--scenario", "fast",
        ]
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["fast.csv", "fast.json"]


def test_unknown_scenario_is_a_usage_error(tmp_path, capsys):
    code = main(
        [
            "--config", write(tmp_path, TWO_SCENARIOS),
            "--out", str(tmp_path / "x"),
            "--scenario", "absent",
        ]
    )
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "[grid]\nwidth = 1\n",
        "[roster]\nstarts = 1,1; 1,1; 2,2; 3,3\n",
        "[oracle]\nhorizon = 0\n",
        "[episode]\nseeds = 1,1\n",
    ],
    ids=["narrow_grid", "shared_start", "zero_horizon", "duplicate_seeds"],
)
def test_invalid_config_is_a_usage_error(tmp_path, capsys, body):
    code = main(
        [
            "--config", write(tmp_path, body),
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert main(["--config", str(tmp_path / "no.ini"), "--out", str(tmp_path)]) == 2


def test_episodes_truncates_the_seed_list(tmp_path):
    out = tmp_path / "artifacts"
    code = main(
        ["--config", write(tmp_path, BASE), "--out", str(out), "--episodes", "2"]
    )
    assert code == 0
    assert seeds_in(out / "default.csv") == [0, 1]
    data = json.loads((out / "default.json").read_text())
    assert data["episodes"] == 2


def test_episodes_extends_with_fresh_seeds(tmp_path):
    out = tmp_path / "artifacts"
    code = main(
        ["--config", write(tmp_path, BASE), "--out", str(out), "--episodes", "5"]
    )
    assert code == 0
    assert seeds_in(out / "default.csv") == [0, 1, 2, 3, 4]


def test_zero_episodes_is_rejected(tmp_path, capsys):
    code = main(
        ["--config", write(tmp_path, BASE), "--out", str(tmp_path), "--episodes", "0"]
    )
    assert code == 2
    assert "--episodes" in capsys.readouterr().err


def test_seed_offset_shifts_every_episode(tmp_path):
    out = tmp_path / "artifacts"
    code = main(
        [
            "--config", write(tmp_path, BASE),
            "--out", str(out),
            "--seed-offset", "100",
        ]
    )
    assert code == 0
    assert seeds_in(out / "default.csv") == [100, 101, 102]


def test_offset_batches_tile_without_overlap(tmp_path):
    # two disjoint batches of the same scenario, the standard split pattern
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = write(tmp_path, BASE)
    assert main(["--config", cfg, "--out", str(a), "--episodes", "2"]) == 0
    assert main(
        ["--config", cfg, "--out", str(b), "--episodes", "2", "--seed-offset", "2"]
    ) == 0
    assert seeds_in(a / "default.csv") == [0, 1]
    assert seeds_in(b / "default.csv") == [2, 3]


def test_unwritable_output_reports_io_failure(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = main(["--config", write(tmp_path, BASE), "--out", str(target)])
    assert code == 1


@pytest.mark.parametrize(
    "error", [ValueError("engine fault"), KeyError("engine fault")], ids=["value", "key"]
)
def test_engine_error_is_a_runtime_failure(tmp_path, capsys, monkeypatch, error):
    def failing_run(cfg):
        raise error

    monkeypatch.setattr("trustgrid.cli.run_scenario", failing_run)
    code = main(["--config", write(tmp_path, BASE), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "engine fault" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "default.csv").exists()


def test_kl_mode_with_an_underflowing_softmax_runs(tmp_path, capsys):
    # at this temperature a non-greedy action's probability is 0.0, so its
    # surprise is infinite and the sender is judged inconsistent
    body = BASE + "[defense]\nconsistency = kl\nkl_threshold = 0.1\ntemperature = 0.001\n"
    out = tmp_path / "artifacts"
    assert main(["--config", write(tmp_path, body), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert seeds_in(out / "default.csv") == [0, 1, 2]


def test_module_form_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(trustgrid.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "trustgrid", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: trustgrid")
