"""Budget-allocation search for expensive configuration evaluation.

The package splits into value plumbing (:mod:`uvp.core`), cover-based
selection (:mod:`uvp.clustering`), the solvers and baselines
(:mod:`uvp.solvers`, :mod:`uvp.baselines`), instance sources
(:mod:`uvp.instances`) and measurement tools (:mod:`uvp.analysis`).
"""

from .analysis import (
    EpsilonReport,
    RankTable,
    epsilon_pairwise,
    epsilon_percentiles,
    incumbent_at,
    mean_rank,
)
from .baselines import hyperband, random_search, successive_halving
from .clustering import (
    Cover,
    e_k_center,
    greedy_radius,
    k_center,
)
from .core import (
    BudgetExhausted,
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
    HardInstanceSpec,
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
    pred,
    tail_fit_pred,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "BudgetLedger",
    "Configuration",
    "Cover",
    "EpsilonReport",
    "HardInstanceSpec",
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
    "incumbent_at",
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
