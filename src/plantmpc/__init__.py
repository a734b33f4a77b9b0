"""Central HVAC plant MPC with thermal storage: deterministic, two-stage
stochastic, and perfect-information controllers plus a closed-loop
benchmarking harness."""

from .bench import (
    BenchmarkReport,
    CostComponents,
    annual_cost,
    campus_only_cost,
    cost_of_central_plant,
    make_validation_set,
    run_benchmark,
    value_of_stochastic,
    violation_rate,
)
# The multi-step forecast operation itself stays namespaced as
# plantmpc.forecast.forecast so the submodule name remains importable.
from .forecast import (
    ArModel,
    ChannelProfile,
    DEFAULT_PROFILE,
    ForecastDistribution,
    ScenarioSet,
    SeasonalProfile,
    estimate_zoh_variances,
    fit_ar,
    generate_synthetic_campus,
    mean_forecast,
    sample_scenarios,
    zoh_noise,
)
from .lp import HighsSession, LinearProgram, LpSolution, solve
from .mpc import (
    FirstStage,
    HorizonTiming,
    TankBounds,
    VariableMap,
    build_reduced,
    extract_action,
)
from .plant import (
    CHANNELS,
    UNITS,
    ControlAction,
    Disturbance,
    DisturbanceTrajectory,
    PlantConfig,
    PlantState,
    balance_residuals,
    demand_discount,
    residual_demands,
    stage_cost,
    step_state,
)
from .restoration import RestoreOutcome, restore
from .simulate import (
    ClosedLoopTrace,
    ControllerSpec,
    RunSpec,
    default_calendar,
    month_timing,
    run_closed_loop,
    update_storage_bounds,
)

__version__ = "0.1.0"
