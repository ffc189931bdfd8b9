"""Sequential unambiguous discrimination of two nonorthogonal qubit states.

Closed-form optima for the no-communication chain (Bob then Charlie), three
classical-communication protocols including probabilistic cloning, the
quantum-correlation analysis of the measurement stage, brute-force oracles
certifying every closed form, and a seeded Monte Carlo simulator.
"""

from .core import (
    ConstraintError,
    DomainError,
    InfeasibleIsometryError,
    NumericError,
    Scenario,
    StrategyParams,
    entropy_H,
    make_state_pair,
)
from .correlations import (
    CorrelationInput,
    CorrelationReport,
    correlation_report,
    discord_left,
    discord_right,
    left_discord_measurement_oracle,
)
from .oracle import (
    CERT_P1_VALUES,
    CERT_S_VALUES,
    CertificationRow,
    certify,
    grid_maximize_bob,
    grid_maximize_charlie,
    grid_maximize_cloning,
    grid_maximize_joint,
    grid_maximize_protocol2,
    grid_maximize_union_ssd,
)
from .protocols import (
    CloneParams,
    at_least_one_protocol3,
    at_least_one_ssd,
    clone_optimal_for_prior,
    protocol1_optimal,
    protocol2_critical_priors,
    protocol2_optimal,
    protocol3_optimal,
)
from .simulate import (
    TrialSummary,
    build_discrimination_unitary,
    run_ssd_trials,
)
from .ssd import (
    SYMMETRY_BREAK_OVERLAP,
    CaseLabel,
    CriticalPrior,
    PiecewiseResult,
    bob_optimal,
    bob_success,
    charlie_optimal,
    critical_prior_PC,
    joint_optimal,
    joint_success,
    solve_q_star,
)
from .sweeps import FIGURE_PRESETS, SweepSpec, run_figure, run_sweep, write_csv
