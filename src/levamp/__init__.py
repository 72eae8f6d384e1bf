"""Impulse sensing with a levitated nanoparticle via reversible squeezing.

The package simulates a feedback-cooled optically levitated oscillator
whose trap stiffness can be stepped down and back up. Holding the trap
soft for a quarter of the soft period and restoring it amplifies one
phase-space quadrature by the frequency ratio r while the conjugate
quadrature shrinks by 1/r, so a weak momentum kick delivered at the
moment of maximum squeezing is stretched above the readout noise
before it is measured.

Layers, bottom up:

    params      oscillator parameters, zero-point units, conversions
    state       Gaussian states, impulses, symplectic quarter maps
    dynamics    continuous models and their exact discretizations
    protocol    segment schedules for conventional and amplified runs
    estimation  backward retrodiction and the conditioned steady state
    harness     Monte Carlo ensembles, fits, noise budget, CSV output
    config      JSON run configuration
    cli         command-line presets and selftest
    selftest    acceptance criteria bundled as runnable checks
"""

from .config import ConfigError, RunConfig, config_from_dict, load_config
from .dynamics import (
    CovarianceError,
    DynamicsModel,
    base_model,
    propagate,
    soft_model,
    transition,
)
from .estimation import (
    FilterState,
    estimate_trial_outcome,
    readout_model,
    retrodict,
    riccati_steady_state,
)
from .harness import (
    Ensemble,
    EnsembleStats,
    NoiseBudget,
    SensitivityPoint,
    ensemble_stats,
    fit_displacement_vs_tau,
    fit_k1,
    noise_budget,
    run_ensemble,
    run_grid,
    run_schedule_noiseless,
    sensitivity_curve,
    simulate_trial,
    write_ensemble_csv,
    write_scaling_csv,
    write_sensitivity_csv,
)
from .params import (
    OscillatorParams,
    db_ratio,
    impulse_from_pulse,
    kev_c_to_momentum,
    momentum_to_kev_c,
    zero_point_momentum,
)
from .protocol import (
    ProtocolSchedule,
    Segment,
    build_amplified,
    build_conventional,
    schedule_to_json,
    validate,
)
from .records import (
    MeasurementRecord,
    read_record_binary,
    read_record_csv,
    write_record_binary,
    write_record_csv,
)
from .state import (
    GaussianState,
    apply_impulse,
    occupation,
    quarter_period_map,
    thermal_state,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceError",
    "ConfigError",
    "DynamicsModel",
    "Ensemble",
    "EnsembleStats",
    "FilterState",
    "GaussianState",
    "MeasurementRecord",
    "NoiseBudget",
    "OscillatorParams",
    "ProtocolSchedule",
    "RunConfig",
    "Segment",
    "SensitivityPoint",
    "apply_impulse",
    "base_model",
    "build_amplified",
    "build_conventional",
    "config_from_dict",
    "db_ratio",
    "ensemble_stats",
    "estimate_trial_outcome",
    "fit_displacement_vs_tau",
    "fit_k1",
    "impulse_from_pulse",
    "kev_c_to_momentum",
    "load_config",
    "momentum_to_kev_c",
    "noise_budget",
    "occupation",
    "propagate",
    "quarter_period_map",
    "read_record_binary",
    "read_record_csv",
    "readout_model",
    "retrodict",
    "riccati_steady_state",
    "run_ensemble",
    "run_grid",
    "run_schedule_noiseless",
    "schedule_to_json",
    "sensitivity_curve",
    "simulate_trial",
    "soft_model",
    "thermal_state",
    "transition",
    "validate",
    "write_ensemble_csv",
    "write_record_binary",
    "write_record_csv",
    "write_scaling_csv",
    "write_sensitivity_csv",
    "zero_point_momentum",
]
