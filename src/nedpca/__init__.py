"""Evaporation-deposition PCA on a ring: simulation, exact solving, closed forms.

The chain lives on binary configurations of n sites arranged in a cycle and
updates all sites synchronously. The window of length m starting at a site
decides its next value: an all-vacant window deposits with probability p1, a
window vacant except for an occupied final site deposits with probability
1 - p2, and any other window forces vacancy. The package provides the model
primitives (`model`), an exact transition-matrix oracle (`solver`), closed
forms for the stationary law, partition function and density (`closedforms`),
the nearest-neighbour analytic suite (`m2`), Monte Carlo sampling
(`montecarlo`), and a CLI (`nedpca`).
"""

from .errors import (
    BudgetExceeded,
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    NedpcaError,
    ParamError,
    SolveFailed,
)
from .model import (
    ConfigLike,
    Configuration,
    ModelParams,
    PatternCounts,
    SiteWindow,
    StationaryTable,
    classify_window,
    count_patterns,
    ror,
    scalar_step,
    site_update_prob,
    transition_prob,
    window_masks,
)
from .solver import (
    BalanceAudit,
    TransitionMatrix,
    audit_detailed_balance,
    balance_residual,
    build_matrix,
    check_irreducible_aperiodic,
    one_directional_pair,
    solve_stationary,
    transition_edges,
)
from .closedforms import (
    WeightTerm,
    density_formula,
    enumerate_compositions,
    enumerate_index_pairs,
    partition_formula,
    position_pairs,
    reversibility_ratio,
    stationary_table_formula,
    stationary_weight,
    weight_terms,
)
from .m2 import (
    PoleData,
    asymptotic_z2,
    density_series,
    free_energy,
    free_energy_grid,
    gf_denominator,
    pole_data,
    q2_parameter,
    z2_log_recurrence,
    z2_recurrence,
    z2_series,
)
from .montecarlo import (
    EmpiricalSummary,
    SimulationPlan,
    kernel_throughput,
    run,
    tv_distance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NedpcaError",
    "ParamError",
    "BudgetExceeded",
    "SolveFailed",
    "DomainError",
    "DegenerateDenominator",
    "DimensionMismatch",
    # model
    "ModelParams",
    "Configuration",
    "ConfigLike",
    "PatternCounts",
    "SiteWindow",
    "StationaryTable",
    "ror",
    "classify_window",
    "site_update_prob",
    "transition_prob",
    "count_patterns",
    "window_masks",
    "scalar_step",
    # solver
    "TransitionMatrix",
    "BalanceAudit",
    "build_matrix",
    "solve_stationary",
    "check_irreducible_aperiodic",
    "balance_residual",
    "audit_detailed_balance",
    "transition_edges",
    "one_directional_pair",
    # closed forms
    "stationary_weight",
    "stationary_table_formula",
    "position_pairs",
    "reversibility_ratio",
    "WeightTerm",
    "enumerate_index_pairs",
    "enumerate_compositions",
    "weight_terms",
    "partition_formula",
    "density_formula",
    # m = 2 analytics
    "PoleData",
    "q2_parameter",
    "z2_recurrence",
    "z2_log_recurrence",
    "z2_series",
    "density_series",
    "free_energy",
    "free_energy_grid",
    "gf_denominator",
    "pole_data",
    "asymptotic_z2",
    # Monte Carlo
    "SimulationPlan",
    "EmpiricalSummary",
    "run",
    "tv_distance",
    "kernel_throughput",
]
