"""Traveling fronts of the dissipative FPUT chain.

Tools to compute unit-speed front profiles of the damped lattice

    d^2/dt^2 r_n = dphi(r_{n+1}) - 2 dphi(r_n) + dphi(r_{n-1})
                   + gamma * (rdot_{n+1} - 2 rdot_n + rdot_{n-1})

in the strongly damped regime, via a fixed-point formulation with an
explicit convolution kernel, together with pole-based tail rates and
direct lattice simulation for cross-validation.
"""

from .analysis import (
    DecayReport,
    consolidated_report,
    fit_decay_rates,
    monotonicity_check,
    normalization_check,
)
from .continuum import (
    ContinuumSolution,
    solve_R0,
    solver_grid,
    suggest_half_length,
)
from .errors import (
    ConfigError,
    DomainTooSmallError,
    InsufficientDataError,
    KrylovStagnationError,
    NewtonDivergenceError,
    NumericsError,
    PoleSearchError,
)
from .front_solver import (
    FrontSolution,
    background_term,
    continuation_sweep,
    derivative_consistency,
    solve_front,
)
from .grids import UniformGrid, grid_for
from .lattice_sim import (
    LatticeState,
    Trajectory,
    compare_profile,
    init_chain,
    measure_front_speed,
    run,
    run_free_chain,
    step_imex,
)
from .potentials import (
    FrontConstants,
    Potential,
    PotentialError,
    hertz_potential,
    linear_force_potential,
    polynomial_potential,
    quadratic_force_potential,
)
from .spectral import PoleData, find_pole, symbol_a, verify_symbol_bounds

__version__ = "0.1.0"

__all__ = [
    "ContinuumSolution",
    "ConfigError",
    "DecayReport",
    "DomainTooSmallError",
    "FrontConstants",
    "FrontSolution",
    "InsufficientDataError",
    "KrylovStagnationError",
    "LatticeState",
    "NewtonDivergenceError",
    "NumericsError",
    "Potential",
    "PotentialError",
    "PoleData",
    "PoleSearchError",
    "Trajectory",
    "UniformGrid",
    "background_term",
    "compare_profile",
    "consolidated_report",
    "continuation_sweep",
    "derivative_consistency",
    "find_pole",
    "fit_decay_rates",
    "grid_for",
    "hertz_potential",
    "init_chain",
    "linear_force_potential",
    "measure_front_speed",
    "monotonicity_check",
    "normalization_check",
    "polynomial_potential",
    "quadratic_force_potential",
    "run",
    "run_free_chain",
    "solve_R0",
    "solve_front",
    "solver_grid",
    "step_imex",
    "suggest_half_length",
    "symbol_a",
    "verify_symbol_bounds",
    "__version__",
]
