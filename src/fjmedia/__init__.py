"""Friedkin-Johnsen opinion dynamics with stubborn and non-stubborn media.

Simulation library plus CLI harness: closed-form equilibria on weighted
graphs, analytic bounds on the post-influence opinion sum, the multi-period
radicalization protocol, and reproducible seeded experiments.
"""

from .graph import (Graph, GraphStats, gen_barabasi_albert, gen_random_regular,
                    load_edge_list, neighbor_sum, write_edge_list)
from .numerics import (ConvergenceError, DiagPlusLaplacianOperator,
                       SolveReport, solve_spd)
from .media import (MediaAssignment, MediaConfig, MediaSystem, SourceOpinions,
                    SumBounds, assign_media, build_zeta, equilibrium_with_media,
                    opinion_vector, source_opinions, sum_bounds,
                    truncated_lower_bound, truncated_regular_sum)
from .fj import fj_equilibrium, fj_step
from .periods import (PeriodRecord, PeriodTrajectory, STOP_CAUSES,
                      StopCriteria, alpha_half_limit, analytic_summary,
                      ell_star, run_periods)
from .nonstubborn import nonstubborn_equilibrium
from .harness import (CSV_COLUMNS, ExperimentConfig, GraphSpec, MODES,
                      RunManifest, config_from_manifest, rows_to_csv,
                      run_experiment, sample_innate)

__version__ = "0.1.14"

__all__ = [
    "Graph", "GraphStats", "gen_barabasi_albert", "gen_random_regular",
    "load_edge_list", "neighbor_sum", "write_edge_list",
    "ConvergenceError", "DiagPlusLaplacianOperator", "SolveReport",
    "solve_spd",
    "fj_equilibrium", "fj_step", "opinion_vector",
    "MediaAssignment", "MediaConfig", "MediaSystem", "SourceOpinions",
    "SumBounds", "assign_media", "build_zeta", "equilibrium_with_media",
    "source_opinions", "sum_bounds", "truncated_lower_bound",
    "truncated_regular_sum",
    "PeriodRecord", "PeriodTrajectory", "STOP_CAUSES", "StopCriteria",
    "alpha_half_limit", "analytic_summary", "ell_star", "run_periods",
    "nonstubborn_equilibrium",
    "CSV_COLUMNS", "ExperimentConfig", "GraphSpec", "MODES", "RunManifest",
    "config_from_manifest", "rows_to_csv", "run_experiment", "sample_innate",
    "__version__",
]
