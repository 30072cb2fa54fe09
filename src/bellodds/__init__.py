"""Bayesian strength comparison of Bell tests.

How many trials does an ideal Bell experiment need before a local realist
who started at 100:1 odds in their own favor must concede at 0.01?  This
package computes the per-trial evidence rates and trial counts for the GHZ,
chained (CHSH and beyond), and Hardy configurations, verifies by grid search
that the saturating local-realist strategies are the strongest ones, and
simulates sequential experiments to their stopping decisions.
"""

from .bayes import (
    BothFalsifiedError,
    HypothesisPair,
    IndistinguishableError,
    InfiniteInformationError,
    LogBayesFactor,
    TrialTally,
    binomial_log_likelihood,
    kl_per_trial,
    log_bayes_factor,
    required_trials,
)
from .scenarios import (
    HardySolution,
    ScenarioResolution,
    ScenarioSpec,
    chained_pair,
    find_optimal_k,
    ghz_pair,
    hardy_naive_trials,
    hardy_optimize_r,
    hardy_q,
    scenario_pair,
)
from .adversary import (
    ChainAssignment,
    GhzAssignment,
    HardyAssignment,
    minimax_lr_chained,
    minimax_lr_ghz,
    minimax_lr_hardy,
)
from .simulate import (
    SimulationConfig,
    StoppingReport,
    Trajectory,
    run_replications,
    run_trajectory,
)

__version__ = "0.1.0"
