"""JSON run configuration: parsing, validation, defaults.

A config file is a single flat JSON object. Physical keys are the
OscillatorParams fields; run keys control ensemble size and grids.
Unknown keys are a hard error so typos cannot silently fall back to
defaults. Every validation error names the offending key and the
constraint it violated.

This module alone knows the keys: command-line flags reach it as
overrides (``load_config``), and ``manifest_inputs`` writes a config
back out as the key blocks that ``config_from_dict`` reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .dynamics import DEFAULT_DT_PER_PERIOD, MIN_STEPS_PER_PERIOD, CovarianceError
from .estimation import prior_dependence
from .harness import MIN_STATS_TRIALS, TrialBudgetError, _plan_segments
from .params import OscillatorParams
from .protocol import DEFAULT_READOUT_PERIODS, FEEDBACK_HOLD_TIME_CONSTANTS, build_for_ratio

# Squeezing beyond this is outside the validated regime: the soft trap
# becomes so weak that static force gradients and anharmonicity, none of
# which are modeled here, dominate the real transfer. Reject rather than
# extrapolate.
R_MAX = 6.0

# How far the retrodiction prior may set the reported covariance: widening
# it tenfold may move the covariance's diagonal by this much, relative.
# The presets move it 4.5e-7; gamma_qb_hz = 1 moves it 0.53 %, and at
# 0.1 Hz (5.3 %) the covariance already overstates the real error.
MAX_PRIOR_DEPENDENCE = 0.01

class ConfigError(ValueError):
    """Raised for malformed or out-of-range run configuration."""


@dataclass(frozen=True)
class RunConfig:
    params: OscillatorParams = field(default_factory=OscillatorParams)
    n_trials: int = 200
    r_grid: tuple[float, ...] = (1.0, 2.0, math.sqrt(12.0))
    tau_grid_ns: tuple[float, ...] = (100.0, 177.827941, 316.227766, 562.341325, 1000.0)
    readout_periods: float = DEFAULT_READOUT_PERIODS
    dt_per_period: int = DEFAULT_DT_PER_PERIOD


_PARAM_KEYS = tuple(f.name for f in fields(OscillatorParams))
_RUN_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "params")


def _require(cond: bool, key: str, constraint: str, value: Any) -> None:
    if not cond:
        raise ConfigError(f"config key '{key}' must be {constraint}, got {value!r}")


def _number(value: Any, key: str, constraint: str = "a number") -> float:
    """``value`` as a float; bools, non-numbers and ints beyond float range fail."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             key, constraint, value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"config key '{key}' must be {constraint} within float range") from None


def _require_finite_derived(params: OscillatorParams, readout_periods: float) -> None:
    """Reject values that are finite but overflow once converted: a tiny
    gamma_fb_hz gives an infinite feedback hold, a tiny freq_hz an
    infinite period, soft span and readout."""
    derived = [
        ("freq_hz", params.freq_hz,
         (params.omega, params.period_s, math.pi * R_MAX / (2.0 * params.omega))),
        ("gamma_qb_hz", params.gamma_qb_hz, (4.0 * params.gamma_qb,)),
        ("gamma_fb_hz", params.gamma_fb_hz,
         (params.gamma_fb, FEEDBACK_HOLD_TIME_CONSTANTS / params.gamma_fb)),
        ("readout_periods", readout_periods, (readout_periods * params.period_s,)),
        ("mass_kg", params.mass_kg, (params.p_zp_report_kev_c(),)),
    ]
    for key, value, results in derived:
        _require(all(0.0 < x < math.inf for x in results), key,
                 "a value whose derived durations, rates and momenta stay finite and > 0", value)


def config_from_dict(raw: dict[str, Any]) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, validating everything.

    Every fault raises ConfigError naming the key, and an accepted
    config builds finite schedules for every ratio up to R_MAX.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    for key in raw:
        if key not in _PARAM_KEYS + _RUN_KEYS:
            raise ConfigError(f"unknown config key '{key}'")

    param_kwargs = {}
    for key in [key for key in _PARAM_KEYS if key in raw]:
        value = raw[key]
        if key == "p_zp_kev_c" and value is None:  # null: report the nominal p_zp
            param_kwargs[key] = None
            continue
        value = _number(value, key)
        _require(math.isfinite(value), key, "finite", value)
        param_kwargs[key] = value
    try:
        params = OscillatorParams(**param_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    run = {key: raw.get(key, getattr(RunConfig, key)) for key in _RUN_KEYS}

    n_trials = run["n_trials"]
    _require(isinstance(n_trials, int) and not isinstance(n_trials, bool),
             "n_trials", "an integer", n_trials)
    _require(n_trials >= MIN_STATS_TRIALS, "n_trials", f">= {MIN_STATS_TRIALS}", n_trials)

    r_grid = run["r_grid"]
    _require(isinstance(r_grid, (list, tuple)) and len(r_grid) >= 1,
             "r_grid", "a non-empty array", r_grid)
    r_grid = tuple(_number(r, "r_grid", "an array of numbers") for r in r_grid)
    for r in r_grid:
        _require(1.0 <= r, "r_grid", "entries >= 1", r)
        _require(r <= R_MAX, "r_grid", f"entries <= {R_MAX:g} (validated regime)", r)
    _require(len(set(r_grid)) == len(r_grid), "r_grid", "free of duplicates", list(r_grid))

    tau_grid = run["tau_grid_ns"]
    _require(isinstance(tau_grid, (list, tuple)) and len(tau_grid) >= 1,
             "tau_grid_ns", "a non-empty array", tau_grid)
    tau_grid = tuple(_number(t, "tau_grid_ns", "an array of numbers") for t in tau_grid)
    for tau in tau_grid:
        _require(0.0 <= tau < math.inf, "tau_grid_ns", "finite entries >= 0", tau)
        _require(math.isfinite(params.kappa_imp * params.pulse_voltage_v * (tau / 1e9)),
                 "tau_grid_ns", "a pulse length in ns whose kick kappa_imp * pulse_voltage_v"
                 " * tau is finite", tau)

    readout_periods = _number(run["readout_periods"], "readout_periods")
    _require(1.0 <= readout_periods < math.inf, "readout_periods", "finite and >= 1",
             readout_periods)
    _require_finite_derived(params, readout_periods)

    dt_per_period = run["dt_per_period"]
    _require(isinstance(dt_per_period, int) and not isinstance(dt_per_period, bool),
             "dt_per_period", "an integer", dt_per_period)
    _require(dt_per_period >= MIN_STEPS_PER_PERIOD, "dt_per_period",
             f">= {MIN_STEPS_PER_PERIOD}", dt_per_period)
    # Soft spans plan the same steps at every ratio, so the stiff and the
    # R_MAX schedules bound every schedule this config can run.
    readout = readout_periods * params.period_s
    try:
        planned = [
            _plan_segments(build_for_ratio(params, r, 0.0, readout), params, dt_per_period)
            for r in (1.0, R_MAX)
        ]
    except TrialBudgetError as exc:
        raise ConfigError(
            f"config keys 'readout_periods' and 'dt_per_period' must plan at most BATCH_BYTES "
            f"of draws and readout record per trial, got readout_periods = "
            f"{readout_periods!r}, dt_per_period = {dt_per_period!r}: {exc}"
        ) from exc
    except ValueError as exc:  # chol2x2: a step's process noise underflows to singular
        raise ConfigError(
            f"config key 'gamma_qb_hz' must give every planned step a positive definite "
            f"process noise, got {params.gamma_qb_hz!r} at dt_per_period = "
            f"{dt_per_period!r} ({exc})"
        ) from exc
    # Every ratio reads out through the same model, steps and samples.
    ro = planned[0][0][-1]
    try:
        dependence = prior_dependence(ro.model, ro.dt, ro.n_steps)
    except (ValueError, CovarianceError):
        dependence = math.inf
    if not dependence <= MAX_PRIOR_DEPENDENCE:
        raise ConfigError(
            f"config keys 'eta', 'gamma_qb_hz' and 'readout_periods' must give a readout "
            f"that decides the estimate, not its prior: widening the prior tenfold moves "
            f"the estimate's covariance by {dependence:.3g}, past {MAX_PRIOR_DEPENDENCE:g}, "
            f"with eta = {params.eta!r}, gamma_qb_hz = {params.gamma_qb_hz!r}, "
            f"readout_periods = {readout_periods!r}"
        )

    return RunConfig(
        params=params,
        n_trials=n_trials,
        r_grid=r_grid,
        tau_grid_ns=tau_grid,
        readout_periods=readout_periods,
        dt_per_period=dt_per_period,
    )


def manifest_inputs(cfg: RunConfig) -> dict[str, dict[str, Any]]:
    """The ``params`` and ``run`` key blocks of ``cfg``, JSON-ready.

    The inverse of ``config_from_dict``: their union read back gives
    ``cfg`` again.
    """
    return {"params": {key: getattr(cfg.params, key) for key in _PARAM_KEYS},
            "run": {key: getattr(cfg, key) for key in _RUN_KEYS}}


def load_config(path: str | Path | None, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Load a RunConfig from a JSON file (None: no file) with ``overrides``
    replacing its keys, and validate the result as one config."""
    raw: Any = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw = {**raw, **(overrides or {})}
    return config_from_dict(raw)
