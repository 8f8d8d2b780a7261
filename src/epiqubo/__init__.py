"""Mobility-ban control of network epidemics.

Discrete-time SIS/SIR metapopulation models, compilation of the two-step
optimal isolation problem into quadratic binary objectives, seeded
metaheuristic solvers, and a rolling-horizon controller with reproducible
metrics reports.
"""

from .controller import (
    ControlLog,
    ScenarioConfig,
    compute_metrics,
    run_rolling_horizon,
    run_uncontrolled_baseline,
)
from .epinet import (
    EpidemicParams,
    EpidemicState,
    LocationNetwork,
    ModelKind,
    PowerIterationError,
    Trajectory,
    ValidationReport,
    cost,
    infection_rate_from_r0,
    invariance_bound,
    simulate,
    spectral_growth_factor,
    step_sir,
    step_sis,
    validate_network,
)
from .qubo import (
    QuboParseError,
    QuboProblem,
    build_qubo,
    build_qubo_numeric,
    build_qubo_sir_analytic,
    build_qubo_sis_analytic,
    evaluate,
    export_qubo,
    fix_persistent,
    from_control,
    import_qubo,
    restrict,
    to_control,
)
from .solvers import (
    SolveResult,
    SolverConfig,
    solve,
    solve_exhaustive,
    solve_genetic,
    solve_simulated_annealing,
    solve_tabu,
)

__version__ = "0.1.0"

__all__ = [
    "ControlLog",
    "EpidemicParams",
    "EpidemicState",
    "LocationNetwork",
    "ModelKind",
    "PowerIterationError",
    "QuboParseError",
    "QuboProblem",
    "ScenarioConfig",
    "SolveResult",
    "SolverConfig",
    "Trajectory",
    "ValidationReport",
    "build_qubo",
    "build_qubo_numeric",
    "build_qubo_sir_analytic",
    "build_qubo_sis_analytic",
    "compute_metrics",
    "cost",
    "evaluate",
    "export_qubo",
    "fix_persistent",
    "from_control",
    "import_qubo",
    "infection_rate_from_r0",
    "invariance_bound",
    "restrict",
    "run_rolling_horizon",
    "run_uncontrolled_baseline",
    "simulate",
    "solve",
    "solve_exhaustive",
    "solve_genetic",
    "solve_simulated_annealing",
    "solve_tabu",
    "spectral_growth_factor",
    "step_sir",
    "step_sis",
    "to_control",
    "validate_network",
]
