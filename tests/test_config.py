"""Configuration loading and validation."""

import json
import math
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levamp import config
from levamp.config import (
    R_MAX,
    ConfigError,
    RunConfig,
    config_from_dict,
    load_config,
    manifest_inputs,
)
from levamp.dynamics import CovarianceError
from levamp.harness import BATCH_BYTES, _plan_segments, _walk
from levamp.selftest import BUDGET_READOUT_PERIODS
from levamp.protocol import build_for_ratio, validate

R12 = math.sqrt(12.0)


def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert isinstance(cfg, RunConfig)
    assert cfg.n_trials == 200
    assert cfg.readout_periods == 5.0
    assert cfg.dt_per_period == 200
    assert list(cfg.r_grid) == [1.0, 2.0, pytest.approx(R12, rel=1e-12)]
    assert len(cfg.tau_grid_ns) == 5
    assert cfg.tau_grid_ns[0] == 100.0
    assert cfg.tau_grid_ns[-1] == 1000.0
    assert cfg.params.eta == 0.14
    assert cfg.params.freq_hz == 52e3


def test_load_config_without_a_path_gives_defaults(tmp_path):
    assert load_config(None) == config_from_dict({})
    path = tmp_path / "run.json"
    path.write_text('{"n_trials": 64, "eta": 0.5}')
    cfg = load_config(path)
    assert cfg.n_trials == 64
    assert cfg.params.eta == 0.5


def test_every_key_is_settable():
    cfg = config_from_dict(
        {
            "mass_kg": 2.4e-18,
            "freq_hz": 60e3,
            "eta": 0.3,
            "gamma_qb_hz": 1.7e3,
            "n_init": 0.4,
            "kappa_imp": 5.0e6,
            "gamma_fb_hz": 1.0e3,
            "pulse_voltage_v": 1.5,
            "p_zp_kev_c": 9.1,
            "n_trials": 50,
            "r_grid": [1.0, 3.0],
            "tau_grid_ns": [50, 500],
            "readout_periods": 8,
            "dt_per_period": 100,
        }
    )
    assert cfg.params.mass_kg == 2.4e-18
    assert cfg.params.freq_hz == 60e3
    assert cfg.params.p_zp_report_kev_c() == 9.1
    assert cfg.n_trials == 50
    assert list(cfg.r_grid) == [1.0, 3.0]
    assert list(cfg.tau_grid_ns) == [50.0, 500.0]
    assert cfg.readout_periods == 8.0
    assert cfg.dt_per_period == 100


def test_frequency_sets_the_angular_rate():
    cfg = config_from_dict({"freq_hz": 52000})
    assert cfg.params.omega == pytest.approx(3.267256359733385e5, rel=1e-12)


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'foo'"):
        config_from_dict({"foo": 1})


def test_parameter_errors_carry_the_constraint():
    with pytest.raises(ConfigError, match=r"eta must be in \(0, 1\]"):
        config_from_dict({"eta": 1.5})


def test_root_must_be_an_object():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "raw",
    [
        {"n_trials": 1},
        {"n_trials": True},
        {"n_trials": 2.5},
        {"r_grid": [1.0, 7.0]},
        {"r_grid": [0.5]},
        {"r_grid": []},
        {"tau_grid_ns": [-10.0]},
        {"readout_periods": 0.5},
        {"dt_per_period": 49},
        {"dt_per_period": 200.5},
        {"n_trials": 9},
        {"r_grid": [2.0, 2.0]},
        {"tau_grid_ns": [math.inf]},
        {"readout_periods": math.inf},
        {"p_zp_kev_c": math.inf},
        {"kappa_imp": 1e300, "pulse_voltage_v": 1e8, "tau_grid_ns": [1.0, 1e10]},
    ],
)
def test_run_key_validation(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_r_grid_upper_bound_names_the_validated_regime():
    with pytest.raises(ConfigError, match="validated regime"):
        config_from_dict({"r_grid": [6.5]})


def test_zero_point_report_can_be_unpinned():
    cfg = config_from_dict({"p_zp_kev_c": None})
    assert cfg.params.p_zp_kev_c is None
    assert cfg.params.p_zp_report_kev_c() == pytest.approx(8.50776764072079, rel=1e-9)


def test_invalid_json_names_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError, match="cannot be read"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot be read"):
        load_config(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"gamma_fb_hz": 1e-320}, "gamma_fb_hz"),
        ({"freq_hz": 1e-310, "gamma_qb_hz": 1e-311}, "freq_hz"),
        ({"freq_hz": 1e308}, "freq_hz"),
        ({"freq_hz": 1e307, "gamma_qb_hz": 9e306}, "gamma_qb_hz"),
        ({"freq_hz": 2e307}, "freq_hz"),
        ({"freq_hz": 1e-300, "gamma_qb_hz": 1e-301, "readout_periods": 1e300}, "readout_periods"),
        ({"mass_kg": 1e-320, "p_zp_kev_c": None}, "mass_kg"),
        ({"r_grid": [1.0, 10**400]}, "r_grid"),
        ({"kappa_imp": 10**400}, "kappa_imp"),
    ],
)
def test_values_that_overflow_once_converted_name_their_key(raw, key):
    """Finite inputs whose hold, period, rates or float form leave float
    range are config faults, not runtime failures."""
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"gamma_qb_hz": 5e-324},
        {"gamma_qb_hz": 1e-320},
        {"gamma_qb_hz": 1e-314},
        {"gamma_qb_hz": 1e-308, "dt_per_period": 100000, "readout_periods": 1.0},
    ],
)
def test_process_noise_that_underflows_names_gamma_qb_hz(raw):
    """At or below 1e-314 Hz (1e-308 Hz at 1e5 steps per period) a planned
    step's process noise rounds to a singular matrix: a config fault, not
    a plain ValueError from the Cholesky factor."""
    with pytest.raises(ConfigError, match="^config key 'gamma_qb_hz' must give every planned step"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"readout_periods": 1e9, "dt_per_period": 1000000},
        {"dt_per_period": 10**400},
        {"readout_periods": 1e307, "dt_per_period": 1000000},
    ],
)
def test_draws_per_trial_are_capped(raw):
    """A readout this long would plan up to 3e15 normals per trial."""
    with pytest.raises(ConfigError, match="'readout_periods' and 'dt_per_period' must plan at most"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "raw, refused",
    [
        ({}, False),
        ({"gamma_qb_hz": 1.0}, False),
        ({"gamma_qb_hz": 1.0, "eta": 1e-3, "readout_periods": 1.0}, True),
        ({"gamma_qb_hz": 0.1}, True),
        ({"eta": 1e-300}, True),
    ],
)
def test_a_readout_that_the_prior_decides_is_refused(raw, refused):
    """Widening the prior tenfold moves the covariance 4.5e-7 at the
    defaults, 0.53 % at 1 Hz and 5.3 % at 0.1 Hz; past 1 % the config fails."""
    if not refused:
        config_from_dict(raw)
        return
    with pytest.raises(ConfigError, match="'eta', 'gamma_qb_hz' and 'readout_periods'"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "fault", [CovarianceError("lost positive definiteness", 0.0), ValueError("dt too coarse")]
)
def test_a_prior_check_that_cannot_fold_is_refused_like_a_prior_decided_one(monkeypatch, fault):
    """A fold that fails inside the prior check reads as an infinite
    dependence on the prior, so the config fails with the same message."""

    def failing(*args):
        raise fault

    monkeypatch.setattr(config, "prior_dependence", failing)
    with pytest.raises(ConfigError, match=r"'eta', 'gamma_qb_hz' and 'readout_periods'.* by inf,"):
        config_from_dict({})


@pytest.mark.parametrize("readout_periods", [5.0, BUDGET_READOUT_PERIODS])
def test_presets_and_selftest_plan_far_below_the_draw_cap(readout_periods):
    """A trial's draws and readout record take 33.6 KB at the presets'
    5 periods and 78.4 KB at the selftest's, against 8 MiB."""
    params = config_from_dict({}).params
    for r in (1.0, 2.0, R12, R_MAX):
        schedule = build_for_ratio(params, r, 1e-6, readout_periods * params.period_s)
        plans, draws = _plan_segments(schedule, params, 200)
        assert 8 * (draws + plans[-1].n_steps) < BATCH_BYTES / 100


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
)
ANY_VALUE = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)
POSITIVE = st.one_of(st.floats(min_value=0.0, exclude_min=True), st.integers(1, 10**400))
GRID = st.lists(st.one_of(st.floats(1.0, R_MAX), POSITIVE, SCALARS), max_size=3)
CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{key: st.one_of(POSITIVE, ANY_VALUE) for key in (
            "mass_kg", "freq_hz", "eta", "gamma_qb_hz", "n_init", "kappa_imp",
            "gamma_fb_hz", "pulse_voltage_v", "p_zp_kev_c", "readout_periods",
        )},
        "n_trials": st.one_of(st.integers(), ANY_VALUE),
        "r_grid": st.one_of(GRID, ANY_VALUE),
        "tau_grid_ns": st.one_of(GRID, ANY_VALUE),
        "dt_per_period": st.one_of(st.integers(), ANY_VALUE),
        "no_such_key": ANY_VALUE,
    },
) | st.fixed_dictionaries(  # finite numbers only, so more configs pass and get built
    {},
    optional={
        **{key: st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) for key in (
            "mass_kg", "freq_hz", "gamma_qb_hz", "n_init", "kappa_imp", "gamma_fb_hz",
            "pulse_voltage_v", "readout_periods",
        )},
        "p_zp_kev_c": st.none(),
    },
)


# In-range values only: few fuzzed configs pass, and none with their own p_zp_kev_c.
VALID_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "mass_kg": st.floats(1e-20, 1e-15),
        "freq_hz": st.floats(1e4, 1e5),
        "eta": st.floats(0.0, 1.0, exclude_min=True),
        "gamma_qb_hz": st.floats(1.0, 1e4),
        "n_init": st.floats(0.0, 100.0),
        "kappa_imp": st.floats(0.0, 1e8),
        "gamma_fb_hz": st.floats(1.0, 1e4),
        "pulse_voltage_v": st.floats(-10.0, 10.0),
        "p_zp_kev_c": st.none() | st.floats(1e-3, 1e3),
        "n_trials": st.integers(10, 10**6),
        "r_grid": st.lists(st.floats(1.0, R_MAX), min_size=1, max_size=3, unique=True),
        "tau_grid_ns": st.lists(st.floats(0.0, 1e4), min_size=1, max_size=3),
        "readout_periods": st.floats(1.0, 50.0),
        "dt_per_period": st.integers(50, 1000),
    },
)


@settings(max_examples=300, deadline=None)
@given(CONFIGS | VALID_CONFIGS)
def test_config_fuzz_raises_only_config_errors_and_accepts_only_buildable_runs(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    params = cfg.params
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pulses past 1 us warn but stay valid
        for r in cfg.r_grid + (R_MAX,):
            for tau_ns in cfg.tau_grid_ns:
                schedule = build_for_ratio(
                    params, r, tau_ns / 1e9, cfg.readout_periods * params.period_s
                )
                assert validate(schedule) == []
                list(_walk(schedule, params))


@settings(max_examples=300, deadline=None)
@given(CONFIGS | VALID_CONFIGS)
def test_the_manifest_inputs_read_back_as_the_config(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    blocks = json.loads(json.dumps(manifest_inputs(cfg)))
    back = config_from_dict({**blocks["params"], **blocks["run"]})
    assert back == cfg


def test_overrides_replace_the_file_keys_and_are_checked(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"n_trials": 64, "r_grid": [1.0, 2.0]}')
    cfg = load_config(path, {"r_grid": [3.0]})
    assert (cfg.n_trials, cfg.r_grid) == (64, (3.0,))
    assert load_config(None, {"n_trials": 12}).n_trials == 12
    with pytest.raises(ConfigError, match="config key 'r_grid'"):
        load_config(path, {"r_grid": [7.0]})


def test_readme_python_example_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert re.fullmatch(
        r"displacement -?\d+\.\d{3} \+- \d+\.\d{3} zp, spread \d+\.\d{3} zp\n",
        capsys.readouterr().out,
    )


def test_readme_config_paragraph_names_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("`--config path.json`"))
    named = set(re.findall(r"`([a-z][a-z0-9_]*)`", paragraph))
    blocks = manifest_inputs(config_from_dict({}))
    assert named == set(blocks["params"]) | set(blocks["run"])
