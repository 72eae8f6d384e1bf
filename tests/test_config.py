"""Configuration loading and validation."""

import math

import pytest

from levamp.config import ConfigError, RunConfig, config_from_dict, load_config

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
    assert cfg.params.p_zp_report_kev_c() == pytest.approx(9.1, rel=1e-12)
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
    assert cfg.params.p_zp_override is None
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
