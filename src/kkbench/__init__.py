"""Kernel Kalman filtering on particle ensembles, with benchmark baselines."""

from .akkf import AkkfConfig, FilterDivergedError, gain_update, init, step
from .baselines import (
    DegenerateWeightsError,
    gaussian_init,
    gpf_step,
    pf_init,
    pf_step,
    systematic_resample,
    ukf_step,
)
from .bench import (
    FILTERS,
    SCENARIOS,
    MetricsSummary,
    RunRecord,
    ScenarioConfig,
    lmse,
    mse,
    read_run_csv,
    run_mc,
    run_one,
    scenario_metric,
    summarize,
    sweep,
    write_run_csv,
    write_summary_csv,
)
from .kernels import (
    Ensemble,
    GaussianBelief,
    KernelSpec,
    SingularMatrixError,
    gram,
    project_moments,
    psd_repair,
    resolve_bandwidth,
    ridge_solve,
    weighted_moments,
)
from .models import (
    SimulationDivergedError,
    StateSpaceModel,
    Trajectory,
    bearing,
    bot_ct,
    bot_cv,
    build_model,
    ct_noise_cov,
    ct_transition,
    simulate,
    ungm,
    wrap_angle,
)

__version__ = "0.1.0"
