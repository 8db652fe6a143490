"""Multi-agent grid coverage with trust-gated communication.

A deterministic coverage environment, an exact local value oracle standing
in for a learned critic, scripted message falsification, and a
theory-of-mind trust defense that judges peers by whether their actions
match their claimed observations.
"""

from .comms import (
    AgentSpec,
    CommGraph,
    FalsificationStrategy,
    Role,
    falsify,
)
from .config import (
    ConfigError,
    DefenseMode,
    ScenarioConfig,
    load_scenarios,
    parse_config,
)
from .env import (
    CELL_COVERED,
    CELL_OOB,
    CELL_UNCOVERED,
    Action,
    GridState,
    Observation,
    coverage_fraction,
    observe,
    reset,
    step,
)
from .harness import (
    CSV_HEADER,
    EpisodeRun,
    RunArtifact,
    merge_observation,
    run_episode,
    run_scenario,
    write_artifact,
)
from .metrics import ConfusionCounts, EpisodeSummary, StepLog, classify_step, f1, summarize
from .policies import (
    AdversaryStrategy,
    ValueOracleConfig,
    action_values,
    greedy_action,
)
from .trust import (
    ConsistencyConfig,
    ConsistencyMode,
    GatingMode,
    TrustState,
    Verdict,
    calibrate_kl_threshold,
    consistency_check,
    gate_messages,
    init_trust,
    kl_score,
    step_trust_all,
    update_belief,
)

__version__ = "0.1.0"
