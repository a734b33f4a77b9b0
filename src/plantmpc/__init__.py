"""Central HVAC plant MPC with thermal storage: deterministic, two-stage
stochastic, and perfect-information controllers plus a closed-loop
benchmarking harness."""

from .bench import (
    BenchmarkReport,
    CostComponents,
    annual_cost,
    campus_only_cost,
    make_validation_set,
    run_benchmark,
    violation_rate,
)
# The multi-step forecast operation itself stays namespaced as
# plantmpc.forecast.forecast so the submodule name remains importable.
from .forecast import (
    ArModel,
    ChannelProfile,
    DEFAULT_PROFILE,
    ScenarioSet,
    SeasonalProfile,
    estimate_zoh_variances,
    fit_ar,
    generate_synthetic_campus,
    mean_forecast,
    zoh_noise,
)
from .lp import HighsSession, LinearProgram, LpSolution
from .mpc import (
    HorizonTiming,
    build_reduced,
    extract_action,
    storage_bounds,
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
)
from .restoration import RestoreOutcome, restore
from .simulate import (
    ClosedLoopTrace,
    ControllerSpec,
    RunSpec,
    default_calendar,
    month_timing,
    run_closed_loop,
)

__version__ = "0.1.0"
