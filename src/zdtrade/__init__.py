"""Zero-determinant strategy toolkit for the noisy sequential data-trading
game between a data provider and a data collector.

The provider moves first each round (authentic vs noise-injected data),
the collector responds after a noisy observation (protect vs resell).
This package builds the per-state payoffs, the noisy Markov transition
dynamics and their stationary payoffs, solves the provider-side pinning
and extortionate strategies with feasibility analysis, certifies that the
collector cannot run the same strategies, and cross-checks everything
with a round-by-round Monte-Carlo simulator.
"""

from .collector import (InfeasibilityCertificate, check_collector_extortion,
                        check_collector_pinning)
from .errors import (BaselineDegenerateError, ConfigError,
                     DegenerateParameterError, InvalidParameterError,
                     NonUniqueStationaryError, ZdTradeError)
from .extortion import (ChiBounds, ChiInterval, ExtortionGrid,
                        ExtortionParams, ExtortionSolution,
                        VerificationReport, build_extortion_strategy,
                        chi_bounds, chi_feasible_interval,
                        phi_feasible_interval, scan_extortion_region,
                        verify_extortion_relation)
from .markov import (CollectorStrategy, ProviderStrategy, StationaryResult,
                     ZdColumns, build_transition_matrices,
                     build_transition_matrix, collector_zd_column,
                     expected_payoffs, expected_payoffs_many,
                     provider_zd_column, reducible_mask,
                     stationary_distribution, stationary_distributions,
                     zd_columns, zd_determinant)
from .payoffs import (GameParams, OrderingReport, PayoffVectors, STATE_NAMES,
                      StateIndex, build_payoffs, validate_ordering)
from .pinning import (PinningGrid, PinningSolution, pinning_sensitivity_noise,
                      pinning_sensitivity_strategy, scan_pinning_region,
                      solve_pinning)
from .simulate import (ComparisonReport, SimConfig, SimResult, Trace,
                       compare_to_analytic, play_rounds)

__version__ = "0.1.0"

__all__ = [
    "BaselineDegenerateError",
    "ChiBounds",
    "ChiInterval",
    "CollectorStrategy",
    "ComparisonReport",
    "ConfigError",
    "DegenerateParameterError",
    "ExtortionGrid",
    "ExtortionParams",
    "ExtortionSolution",
    "GameParams",
    "InfeasibilityCertificate",
    "InvalidParameterError",
    "NonUniqueStationaryError",
    "OrderingReport",
    "PayoffVectors",
    "PinningGrid",
    "PinningSolution",
    "ProviderStrategy",
    "STATE_NAMES",
    "SimConfig",
    "SimResult",
    "StateIndex",
    "StationaryResult",
    "Trace",
    "VerificationReport",
    "ZdColumns",
    "ZdTradeError",
    "build_extortion_strategy",
    "build_payoffs",
    "build_transition_matrices",
    "build_transition_matrix",
    "check_collector_extortion",
    "check_collector_pinning",
    "chi_bounds",
    "chi_feasible_interval",
    "collector_zd_column",
    "compare_to_analytic",
    "expected_payoffs",
    "expected_payoffs_many",
    "phi_feasible_interval",
    "pinning_sensitivity_noise",
    "pinning_sensitivity_strategy",
    "play_rounds",
    "provider_zd_column",
    "reducible_mask",
    "scan_extortion_region",
    "scan_pinning_region",
    "solve_pinning",
    "stationary_distribution",
    "stationary_distributions",
    "validate_ordering",
    "verify_extortion_relation",
    "zd_columns",
    "zd_determinant",
]
