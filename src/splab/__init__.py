"""splab: equilibrium solver for a monopoly price-signalling market.

A monopolist of privately known quality (good or bad) sets one price.
Consumers hold a common prior, observe private signals of heterogeneous
precision, and differ in whether they notice the precision (sophisticated)
or only the signal's valence (naive).  The good product's value and the low
signal precision are fixed by the model (``splab.model.V_G = 1`` and
``splab.model.L = 0.5``); everything else is a ModelParams field.  The
package computes posterior beliefs, willingness-to-pay schedules and the
expected demand they induce, the pooling / mixed-strategy equilibria of
the pricing game, and the comparative-statics thresholds in signal
precision, consumer sophistication, precision mix, and prior -- each
cross-checked against a brute-force oracle (grid search plus Monte-Carlo
simulation) that shares no algebra with the analytic path.
"""

from .model import (
    ConsumerType,
    ModelParams,
    ParameterError,
    Precision,
    Quality,
    Signal,
    SIGNALS,
    UnsupportedVariantError,
    Valence,
    posterior_naive,
    posterior_sophisticated,
    posterior_with_prior,
    signal_distribution,
    w_bar,
    wtp_from_posterior,
)
from .demand import (
    WtpLevel,
    WtpSchedule,
    build_wtp_schedule,
    expected_demand,
)
from .oracle import (
    GridSpec,
    SeparationReport,
    SimReport,
    bisect_threshold,
    check_no_separation,
    demand_by_enumeration,
    grid_argmax,
    simulate_market,
)
from .equilibrium import (
    ComparisonReport,
    EquilibriumOutcome,
    PoolingCandidate,
    ThresholdSet,
    best_pooling_candidate,
    classify_equilibrium,
    compare_markets,
    gamma_switch,
    gamma_thresholds,
    hstar_prior,
    prior_mu_lower,
    solve_gamma,
    solve_mixed,
    solve_pooling,
    solve_prior,
    thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConsumerType",
    "EquilibriumOutcome",
    "GridSpec",
    "ModelParams",
    "ParameterError",
    "PoolingCandidate",
    "Precision",
    "Quality",
    "SeparationReport",
    "Signal",
    "SIGNALS",
    "SimReport",
    "ThresholdSet",
    "UnsupportedVariantError",
    "Valence",
    "WtpLevel",
    "WtpSchedule",
    "best_pooling_candidate",
    "bisect_threshold",
    "build_wtp_schedule",
    "check_no_separation",
    "classify_equilibrium",
    "compare_markets",
    "demand_by_enumeration",
    "expected_demand",
    "gamma_switch",
    "gamma_thresholds",
    "grid_argmax",
    "hstar_prior",
    "posterior_naive",
    "posterior_sophisticated",
    "posterior_with_prior",
    "prior_mu_lower",
    "signal_distribution",
    "simulate_market",
    "solve_gamma",
    "solve_mixed",
    "solve_pooling",
    "solve_prior",
    "thresholds",
    "w_bar",
    "wtp_from_posterior",
]
