"""Unit conversions, parameter validation, and pulse-to-impulse mapping."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from levamp.params import (
    EV_C_MOMENTUM,
    HBAR,
    IMPULSE_WARN_S,
    OscillatorParams,
    db_ratio,
    impulse_from_pulse,
    kev_c_to_momentum,
    momentum_to_kev_c,
    zero_point_momentum,
)

PARAMS = OscillatorParams()

# Independently computed with 50-digit arithmetic: sqrt(hbar m Omega / 2)
# for m = 1.2e-18 kg and Omega = 2 pi 52 kHz, and its keV/c equivalent.
P_ZP_SI = 4.5467943493557138e-24
P_ZP_KEV_C = 8.50776764072079


def test_units_constants():
    assert HBAR == 1.054571817e-34
    assert EV_C_MOMENTUM == 5.344286e-28


def test_zero_point_momentum_value():
    p_zp = zero_point_momentum(PARAMS)
    assert p_zp == pytest.approx(P_ZP_SI, rel=1e-12)
    assert momentum_to_kev_c(p_zp) == pytest.approx(P_ZP_KEV_C, rel=1e-12)


def test_zero_point_momentum_scales_with_sqrt_mass():
    heavy = PARAMS.with_(mass_kg=4.0 * PARAMS.mass_kg)
    assert zero_point_momentum(heavy) == pytest.approx(
        2.0 * zero_point_momentum(PARAMS), rel=1e-12
    )


def test_zero_point_momentum_ignores_report_override():
    """The derived scale stays nominal even when the reported one is pinned."""
    pinned = PARAMS.with_(p_zp_kev_c=0.0187)
    assert zero_point_momentum(pinned) == zero_point_momentum(PARAMS)
    assert pinned.p_zp_report_kev_c() == 0.0187


def test_report_override_default_is_7_92_kev_c():
    assert PARAMS.p_zp_report_kev_c() == 7.92


@pytest.mark.parametrize("p_si", [1e-27, 4.55e-24, 3.3e-20, 7.0])
def test_momentum_round_trip(p_si):
    assert kev_c_to_momentum(momentum_to_kev_c(p_si)) == pytest.approx(p_si, rel=1e-12)
    kev = momentum_to_kev_c(p_si)
    assert momentum_to_kev_c(kev_c_to_momentum(kev)) == pytest.approx(kev, rel=1e-12)


def test_db_ratio_values():
    # 10 log10(6.9 / 7.92) and 10 log10(6.9 / (sqrt(2) 7.92)), frozen
    # from an independent high-precision evaluation.
    assert db_ratio(6.9, 7.92) == pytest.approx(-0.598760908522382, abs=1e-12)
    assert db_ratio(6.9, math.sqrt(2.0) * 7.92) == pytest.approx(
        -2.10391088684229, abs=1e-11
    )


@pytest.mark.parametrize("a,b,c", [(2.5, 0.7, 1.9), (11.0, 3.0, 0.25), (1.0, 1.0, 1.0)])
def test_db_ratio_additive_over_chained_references(a, b, c):
    assert db_ratio(a, c) == pytest.approx(db_ratio(a, b) + db_ratio(b, c), abs=1e-12)


def test_db_ratio_rejects_non_positive():
    with pytest.raises(ValueError):
        db_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        db_ratio(1.0, -2.0)


@pytest.mark.parametrize(
    "voltage,duration,expected",
    [
        (2.0, 100e-9, 1.2),
        (2.0, 1000e-9, 12.0),
        (1.0, 100e-9, 0.6),
        (0.5, 40e-9, 0.12),
    ],
)
def test_impulse_from_pulse_values(voltage, duration, expected):
    params = PARAMS.with_(pulse_voltage_v=voltage)
    assert impulse_from_pulse(params, duration) == pytest.approx(expected, rel=1e-12)


def test_impulse_is_bilinear_in_voltage_and_duration():
    base = impulse_from_pulse(PARAMS, 100e-9)
    tripled = PARAMS.with_(pulse_voltage_v=3.0 * PARAMS.pulse_voltage_v)
    reversed_ = PARAMS.with_(pulse_voltage_v=-PARAMS.pulse_voltage_v)
    assert impulse_from_pulse(tripled, 100e-9) == pytest.approx(3.0 * base, rel=1e-12)
    assert impulse_from_pulse(PARAMS, 500e-9) == pytest.approx(5.0 * base, rel=1e-12)
    assert impulse_from_pulse(reversed_, 100e-9) == pytest.approx(-base, rel=1e-12)


def test_impulse_warns_above_one_microsecond():
    with pytest.warns(UserWarning, match="instantaneous"):
        impulse_from_pulse(PARAMS, 1.5e-6)


def test_impulse_silent_at_exactly_one_microsecond():
    """1000 ns is inside the validated range, so no warning fires there."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dp = impulse_from_pulse(PARAMS, IMPULSE_WARN_S)
        dp2 = impulse_from_pulse(PARAMS, 1000.0 / 1e9)
    assert dp == pytest.approx(12.0, rel=1e-12)
    assert dp2 == pytest.approx(12.0, rel=1e-12)


def test_impulse_rejects_bad_pulses():
    with pytest.raises(ValueError):
        impulse_from_pulse(PARAMS, -1e-9)
    with pytest.raises(ValueError):
        impulse_from_pulse(PARAMS.with_(pulse_voltage_v=float("nan")), 100e-9)
    with pytest.raises(ValueError, match="kick .* must be finite"):
        impulse_from_pulse(PARAMS.with_(kappa_imp=1e308, pulse_voltage_v=1e10), 1e-6)


def test_angular_frequency_properties():
    assert PARAMS.omega == pytest.approx(2.0 * math.pi * 52e3, rel=1e-15)
    assert PARAMS.gamma_qb == pytest.approx(2.0 * math.pi * 3.4e3, rel=1e-15)
    assert PARAMS.gamma_fb == pytest.approx(2.0 * math.pi * 2.0e3, rel=1e-15)
    assert PARAMS.period_s == pytest.approx(1.0 / 52e3, rel=1e-15)


@pytest.mark.parametrize(
    "key,value,fragment",
    [
        ("eta", 0.0, "eta must be in"),
        ("eta", 1.5, "eta must be in"),
        ("mass_kg", -1.0, "mass_kg must be > 0"),
        ("freq_hz", 0.0, "freq_hz must be > 0"),
        ("n_init", -0.1, "n_init must be >= 0"),
        ("gamma_qb_hz", 60e3, "gamma_qb_hz must be <"),
        ("gamma_qb_hz", 0.0, "gamma_qb_hz must be > 0"),
        ("gamma_fb_hz", 0.0, "gamma_fb_hz must be > 0"),
    ],
)
def test_parameter_validation(key, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        PARAMS.with_(**{key: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(OscillatorParams)])
def test_every_field_must_be_finite(key, value):
    """A non-finite field is refused by name before any other check, so
    it cannot run an ensemble into NaN kicks or infinite durations."""
    with pytest.raises(ValueError, match=f"^parameter {key} must be finite, got "):
        PARAMS.with_(**{key: value})


def test_with_returns_updated_copy():
    hot = PARAMS.with_(n_init=3.0)
    assert hot.n_init == 3.0
    assert PARAMS.n_init == 1.2
    assert hot.mass_kg == PARAMS.mass_kg


def test_params_are_frozen():
    with pytest.raises(AttributeError):
        PARAMS.eta = 0.5
