"""olivetable: simulation and exact-analytics lab for the random
plates-and-olives process."""

__version__ = "0.1.0"

from .process import (
    TableState,
    TrajectoryRecord,
    run_trajectory,
)
from .chain import (
    WalkRunStats,
    catalan,
    first_return_cdf,
    first_return_pmf_closed,
    first_return_pmf_convolution,
    first_return_pmf_dp,
    mean_return_time_series,
    mean_return_time_stationary,
    published_first_return_pmf,
    simulate_walk,
)
from .oracle import (
    BudgetExceededError,
    enumerate_chain_paths,
    exact_expected_olives,
    exact_olive_distribution,
)
from .rng import derive_seed, make_rng

# The ensemble layer loads the worker pool's modules and dataclasses (and
# numpy when its record array is first built), which no other layer needs;
# its names resolve on first access, so the other layers import without
# them.
_ENSEMBLE_NAMES = frozenset({"EnsembleConfig", "run_ensemble"})


def __getattr__(name: str):
    if name in _ENSEMBLE_NAMES:
        from . import ensemble

        return getattr(ensemble, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "TableState",
    "TrajectoryRecord",
    "run_trajectory",
    "WalkRunStats",
    "catalan",
    "first_return_cdf",
    "first_return_pmf_closed",
    "first_return_pmf_convolution",
    "first_return_pmf_dp",
    "mean_return_time_series",
    "mean_return_time_stationary",
    "published_first_return_pmf",
    "simulate_walk",
    "EnsembleConfig",
    "run_ensemble",
    "BudgetExceededError",
    "enumerate_chain_paths",
    "exact_expected_olives",
    "exact_olive_distribution",
    "derive_seed",
    "make_rng",
]
