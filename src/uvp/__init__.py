"""Budget-allocation search for expensive configuration evaluation.

The package splits into value plumbing (:mod:`uvp.core`), cover-based
selection (:mod:`uvp.clustering`), the four solvers and three
baselines (:mod:`uvp.solvers`), instance sources (:mod:`uvp.instances`)
and measurement tools (:mod:`uvp.analysis`).
"""

from .analysis import (
    RankTable,
    epsilon_pairwise,
    epsilon_percentiles,
    mean_rank,
)
from .clustering import (
    Cover,
    e_k_center,
    greedy_radius,
    k_center,
)
from .core import (
    BudgetLedger,
    Configuration,
    History,
    InvalidParams,
    InvalidValue,
    ParseError,
    Run,
    SchemaError,
    SearchOutcome,
    UvpError,
    ValueOracle,
)
from .instances import (
    LandscapeOracle,
    LandscapeSpec,
    TabularBenchmark,
    TabularOracle,
    gen_hard,
    gen_smooth,
    landscape,
    landscape_eval,
    load_tabular,
    mesh_grid,
    sample_uniform,
    save_tabular,
)
from .solvers import (
    SolverParams,
    ada_cent,
    e_ada_cent,
    e_full_cent,
    full_cent,
    hyperband,
    pred,
    random_search,
    successive_halving,
    tail_fit_pred,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetLedger",
    "Configuration",
    "Cover",
    "History",
    "InvalidParams",
    "InvalidValue",
    "LandscapeOracle",
    "LandscapeSpec",
    "ParseError",
    "RankTable",
    "Run",
    "SchemaError",
    "SearchOutcome",
    "SolverParams",
    "TabularBenchmark",
    "TabularOracle",
    "UvpError",
    "ValueOracle",
    "ada_cent",
    "e_ada_cent",
    "e_full_cent",
    "e_k_center",
    "epsilon_pairwise",
    "epsilon_percentiles",
    "full_cent",
    "gen_hard",
    "gen_smooth",
    "greedy_radius",
    "hyperband",
    "k_center",
    "landscape",
    "landscape_eval",
    "load_tabular",
    "mean_rank",
    "mesh_grid",
    "pred",
    "random_search",
    "sample_uniform",
    "save_tabular",
    "successive_halving",
    "tail_fit_pred",
]
