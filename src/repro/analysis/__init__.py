"""Statistical analysis substrate: Monte Carlo, chi-square bound, cost model."""

from repro.analysis.chi2 import rho_bound
from repro.analysis.overhead import AreaEstimate, CostModel, EnergyEstimate
from repro.analysis.montecarlo import (
    MonteCarloSummary,
    run_monte_carlo,
    summarize_values,
)

__all__ = [
    "AreaEstimate",
    "CostModel",
    "EnergyEstimate",
    "MonteCarloSummary",
    "rho_bound",
    "run_monte_carlo",
    "summarize_values",
]
