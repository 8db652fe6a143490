"""Command-line entry point: flags, artifacts, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def module_env(**extra):
    """The environment that runs ``python -m trustgrid`` from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trustgrid.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


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
        "[grid]\nwidth = 4\nheight = 4\n[episode]\nsteps = 2\n[oracle]\nradius = 1\nhorizon = 990\n",
        "[episode]\nseeds = 1,1\n",
        "[defense]\ns = nan\n",
        "[defense]\ns = inf\n",
        "[defense]\nconsistency = value_threshold\nrho = nan\n",
        "[defense]\nconsistency = kl\nkl_threshold = nan\n",
        "[defense]\nconsistency = kl\nkl_threshold = 0.1\ntemperature = nan\n",
        "[defense]\nconsistency = kl\nkl_threshold = 0.1\ntemperature = inf\n",
        BASE + "[scenario.../escaped]\n",
        BASE + "[scenario.a/b]\n",
        BASE + "[scenario.a\x00b]\n",
        "orphan = 1\n" + BASE,
        "[DEFAULT]\ngrid.width = 5\n",
    ],
    ids=[
        "narrow_grid",
        "shared_start",
        "zero_horizon",
        "recursion_deep_horizon",
        "duplicate_seeds",
        "nan_s",
        "inf_s",
        "nan_rho",
        "nan_kl_threshold",
        "nan_temperature",
        "inf_temperature",
        "scenario_name_escapes_out",
        "scenario_name_has_a_slash",
        "scenario_name_has_a_nul",
        "key_before_any_section",
        "default_section",
    ],
)
def test_invalid_config_is_a_usage_error(tmp_path, capsys, body):
    out = tmp_path / "x"
    config = write(tmp_path, body)
    code = main(["--config", config, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # nothing is written, inside --out or beside it
    assert [str(p) for p in tmp_path.iterdir()] == [config]


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert main(["--config", str(tmp_path / "no.ini"), "--out", str(tmp_path)]) == 2


def test_a_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_bytes(BASE.encode() + b"# caf\xe9\n")  # Latin-1
    assert main(["--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {config}: ")


def test_a_utf8_config_runs_whatever_the_locale(tmp_path):
    # a byte-order mark and a non-ASCII comment, read under an ASCII locale
    config = tmp_path / "run.ini"
    config.write_bytes(b"\xef\xbb\xbf# agents \xc3\x97 steps\n" + BASE.encode())
    done = subprocess.run(
        [sys.executable, "-m", "trustgrid", "--config", str(config), "--out", str(tmp_path / "x")],
        env=module_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "x" / "default.csv").is_file()


def test_a_scenario_name_the_file_system_cannot_encode_is_a_usage_error(tmp_path):
    # under an ASCII locale "café.csv" cannot be a file name: refused before
    # anything runs or --out is made
    config = tmp_path / "run.ini"
    config.write_bytes(BASE.encode() + "[scenario.café]\n".encode())
    out = tmp_path / "x"
    done = subprocess.run(
        [sys.executable, "-m", "trustgrid", "--config", str(config), "--out", str(out)],
        env=module_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: scenario name in [scenario.caf")
    assert done.stderr.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("episodes", ["1000000000000", "250001"])
def test_oversized_episode_count_is_refused_before_seeds_are_built(tmp_path, capsys, episodes):
    # BASE is 10 steps of 4 agents, so 250,001 episodes is one past the
    # bound; 10**12 would need terabytes for the seed list alone
    out = tmp_path / "x"
    code = main(["--config", write(tmp_path, BASE), "--out", str(out), "--episodes", episodes])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: run too large: {int(episodes) * 40} agent-steps "
        "(episodes x episode.steps x roster.agents), at most 10000000\n"
    )
    assert not out.exists()


def test_a_run_that_writes_too_many_rows_is_refused(tmp_path, capsys):
    # 9,996,000 agent-steps and 8,997,000 messages per step are each in
    # bounds; together they ask for about 3 x 10^10 observer-peer rows
    body = """
    [grid]
    width = 100
    height = 100
    [episode]
    steps = 2
    seeds = 0:1666
    [roster]
    agents = 3000
    """
    out = tmp_path / "x"
    assert main(["--config", write(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: run too large: 29978004000 observer-peer rows "
        "(episodes x episode.steps x directed comms edges), at most 10000000\n"
    )
    assert not out.exists()


def test_episodes_that_write_too_many_rows_are_refused(tmp_path, capsys):
    # BASE writes 12 rows per step: 83,334 episodes of 10 steps pass the
    # agent-step bound (3,333,360) and break the row bound
    out = tmp_path / "x"
    code = main(["--config", write(tmp_path, BASE), "--out", str(out), "--episodes", "83334"])
    assert code == 2
    assert "error: run too large: 10000080 observer-peer rows" in capsys.readouterr().err
    assert not out.exists()


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


def test_a_negative_seed_offset_is_a_usage_error(tmp_path, capsys):
    # random.Random(-1) places agents as random.Random(1) does, so seed -1
    # would repeat seed 1's episode
    out = tmp_path / "artifacts"
    code = main(["--config", write(tmp_path, BASE), "--out", str(out), "--seed-offset", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: episode.seeds must be non-negative, got -1\n"
    assert not out.exists()


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


@pytest.mark.parametrize("blocked", ["default.csv", "default.json"])
def test_a_directory_at_an_artifact_path_is_an_io_failure(tmp_path, capsys, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = main(["--config", write(tmp_path, BASE), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [blocked]


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


@pytest.mark.parametrize(
    "error",
    [MemoryError(), MemoryError("Unable to allocate 7.28 TiB for an array")],
    ids=["bare", "numpy"],
)
def test_running_out_of_memory_is_a_runtime_failure(tmp_path, capsys, monkeypatch, error):
    def failing_run(cfg):
        raise error

    monkeypatch.setattr("trustgrid.cli.run_scenario", failing_run)
    code = main(["--config", write(tmp_path, BASE), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert str(error) in err
    assert not (tmp_path / "out" / "default.csv").exists()


def test_kl_without_a_threshold_names_the_key(tmp_path, capsys):
    body = BASE + "[defense]\nconsistency = kl\n"
    assert main(["--config", write(tmp_path, body), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: defense.kl_threshold is required when defense.consistency = kl\n"


def test_kl_mode_with_an_underflowing_softmax_runs(tmp_path, capsys):
    # at this temperature a non-greedy action's probability is 0.0, so its
    # surprise is infinite and the sender is judged inconsistent
    body = BASE + "[defense]\nconsistency = kl\nkl_threshold = 0.1\ntemperature = 0.001\n"
    out = tmp_path / "artifacts"
    assert main(["--config", write(tmp_path, body), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert seeds_in(out / "default.csv") == [0, 1, 2]


# README's keys: (valid values, malformed values). The run-size keys are
# always set and kept small: steps <= 5, horizon <= 3, at most 3 seeds.
ALWAYS_SET = {
    "grid.width": (["2", "3", "5"], ["1", "0", "-3", "2.5", "x", "nan"]),
    "grid.height": (["2", "4"], ["1", "-1", ""]),
    "episode.steps": (["2", "5"], ["1", "0", "-1", "x"]),
    "episode.seeds": (["0", "0:3", "0,4"], ["2:0", "3:3", "1,1", "", "a:b", "1:x", "-3,3"]),
    "oracle.horizon": (["1", "3"], ["0", "-1", "x", "3000"]),
}
MAYBE_SET = {
    "oracle.gamma": (["0", "0.9", "1"], ["1.5", "-0.1", "nan", "inf"]),
    "oracle.radius": (["1", "2"], ["0", "-1"]),
    "defense.mode": (["nodef", "adv_nodef", "tom", "ideal_coop"], ["bogus"]),
    "defense.consistency": (["exact_match", "value_threshold", "kl"], ["bogus"]),
    "defense.rho": (["0", "0.3"], ["-1", "nan", "inf", "-inf"]),
    "defense.kl_threshold": (["", "0.05"], ["-1", "nan", "inf"]),
    "defense.temperature": (["1", "0.001"], ["0", "-1", "nan", "inf"]),
    "defense.s": (["3.7", "1e-16", "50", "1e308"], ["0", "-1", "nan", "inf"]),
    "defense.tau": (["0", "0.5", "1"], ["1.5", "-0.1", "nan"]),
    "defense.gating": (["threshold", "bernoulli"], ["bogus"]),
    "comms.topology": (["complete", "edges"], ["bogus"]),
    "comms.edges": (
        ["", "0-1, 1-2", "1-2, 1-3, 2-3"],
        ["0-0", "0-9", "a-b", "0-1-2", "0-1, 0-1"],
    ),
    "roster.agents": (["2", "3", "4"], ["1", "0", "-1", "40"]),
    "roster.adversaries": (["0", "1", "2"], ["5", "-1"]),
    "roster.falsification": (["truthful", "lure", "position_spoof", "babble"], ["bogus"]),
    "roster.acting": (["naive", "consistent_liar"], ["bogus"]),
    "roster.starts": (
        ["", "0,0; 1,1", "0,0; 1,0; 0,1; 1,1"],
        ["0,0; 0,0; 1,1; 2,2", "9,9; 0,0; 1,0; 0,1", "x", "0,0,0"],
    ),
}


@st.composite
def config_bodies(draw):
    """An INI body with valid values, a few of them replaced by malformed
    ones. Values that are valid alone may still clash, such as more
    adversaries than agents, or edges that name no agent."""
    keys = list(ALWAYS_SET) + draw(
        st.lists(st.sampled_from(sorted(MAYBE_SET)), unique=True, max_size=len(MAYBE_SET))
    )
    pools = {**ALWAYS_SET, **MAYBE_SET}
    bad = draw(st.sets(st.sampled_from(keys), max_size=2))
    sections: dict[str, list[str]] = {}
    for dotted in keys:
        valid, malformed = pools[dotted]
        value = draw(st.sampled_from(malformed if dotted in bad else valid))
        section, key = dotted.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


def refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the JSON summary")


@settings(deadline=None, max_examples=300)
@given(body=config_bodies())
def test_any_config_exits_2_with_one_error_line_or_writes_finite_json(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(body)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", path, "--out", out])
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
        else:
            assert code == 0, err.getvalue()
            with open(os.path.join(out, "default.json")) as fh:
                json.loads(fh.read(), parse_constant=refuse_constant)


def test_module_form_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "trustgrid", "--help"],
        env=module_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: trustgrid")
