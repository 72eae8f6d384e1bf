"""Oscillator parameters and unit conversions.

All phase-space quantities in this package are expressed in zero-point
units of the base trap: position is divided by x_zp = sqrt(hbar / (2 m Omega))
and momentum by p_zp = sqrt(hbar m Omega / 2), with Omega the base (angular)
trap frequency. In these units the motional ground state has unit variance
per quadrature, a thermal state of occupation n has variance 2 n + 1, and
the normalization stays frozen at the base frequency even while the trap is
softened, so squeezing shows up directly in the covariance entries.

Momentum is reported externally in keV/c; 1 eV/c = 5.344286e-28 kg m/s.
Ratios are quoted in decibels as 10 log10(amplitude ratio).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace


HBAR = 1.054571817e-34  # J s
EV_C_MOMENTUM = 5.344286e-28  # kg m/s per eV/c

# A pulse longer than this no longer looks impulsive on the oscillator
# timescale; the simulation still treats it as a delta kick, so warn.
IMPULSE_WARN_S = 1.0e-6


def momentum_to_kev_c(p_si: float) -> float:
    """Convert a momentum in kg m/s to keV/c."""
    return p_si / (1000.0 * EV_C_MOMENTUM)


def kev_c_to_momentum(p_kev_c: float) -> float:
    """Convert a momentum in keV/c to kg m/s. Inverse of momentum_to_kev_c."""
    return p_kev_c * 1000.0 * EV_C_MOMENTUM


def db_ratio(value: float, reference: float) -> float:
    """10 log10(value / reference) for positive amplitudes."""
    if not (value > 0.0):
        raise ValueError(f"db_ratio requires value > 0, got {value}")
    if not (reference > 0.0):
        raise ValueError(f"db_ratio requires reference > 0, got {reference}")
    return 10.0 * math.log10(value / reference)


@dataclass(frozen=True, slots=True)
class OscillatorParams:
    """Physical parameters of the levitated oscillator and its readout.

    mass_kg         particle mass
    freq_hz         base trap frequency Omega / 2 pi
    eta             total detection efficiency, 0 < eta <= 1
    gamma_qb_hz     backaction heating rate Gamma_qb / 2 pi; sets the
                    momentum diffusion 4 Gamma_qb and the measurement
                    information rate 4 eta Gamma_qb
    n_init          thermal occupation reached by feedback cooling
    kappa_imp       impulse transduction, zp momentum per volt-second
    gamma_fb_hz     cold-damping feedback rate gamma_fb / 2 pi
    pulse_voltage_v electrode pulse amplitude
    p_zp_override   calibrated zero-point momentum in kg m/s used by
                    reporting layers; None falls back to the nominal
                    sqrt(hbar m Omega / 2). The default corresponds to
                    7.92 keV/c, the absolute scale consistent with the
                    quoted dB figures, while the nominal parameters give
                    about 8.51 keV/c.

    Rates are stored as the quoted cyclic frequencies; the omega,
    gamma_qb and gamma_fb properties expose the angular values used by
    every internal equation of motion.
    """

    mass_kg: float = 1.2e-18
    freq_hz: float = 52e3
    eta: float = 0.14
    gamma_qb_hz: float = 3.4e3
    n_init: float = 1.2
    kappa_imp: float = 6.0e6
    gamma_fb_hz: float = 2.0e3
    pulse_voltage_v: float = 2.0
    p_zp_override: float | None = 7.92 * 1000.0 * EV_C_MOMENTUM

    def __post_init__(self) -> None:
        checks = [
            ("mass_kg", self.mass_kg > 0.0, "> 0"),
            ("freq_hz", self.freq_hz > 0.0, "> 0"),
            ("eta", 0.0 < self.eta <= 1.0, "in (0, 1]"),
            ("gamma_qb_hz", self.gamma_qb_hz > 0.0, "> 0"),
            ("n_init", self.n_init >= 0.0, ">= 0"),
            ("kappa_imp", self.kappa_imp >= 0.0, ">= 0"),
            ("gamma_fb_hz", self.gamma_fb_hz > 0.0, "> 0"),
            ("pulse_voltage_v", math.isfinite(self.pulse_voltage_v), "finite"),
            (
                "gamma_qb_hz",
                self.gamma_qb_hz < self.freq_hz,
                "< freq_hz (weak-coupling regime assumed by the noise model)",
            ),
        ]
        if self.p_zp_override is not None:
            checks.append(("p_zp_override", self.p_zp_override > 0.0, "> 0 or None"))
        for key, ok, constraint in checks:
            if not ok:
                raise ValueError(
                    f"parameter {key} must be {constraint}, got {getattr(self, key)}"
                )

    @property
    def omega(self) -> float:
        """Base angular trap frequency, rad/s."""
        return 2.0 * math.pi * self.freq_hz

    @property
    def gamma_qb(self) -> float:
        """Angular backaction heating rate, 1/s."""
        return 2.0 * math.pi * self.gamma_qb_hz

    @property
    def gamma_fb(self) -> float:
        """Angular feedback damping rate, 1/s."""
        return 2.0 * math.pi * self.gamma_fb_hz

    @property
    def period_s(self) -> float:
        return 1.0 / self.freq_hz

    def p_zp_report_si(self) -> float:
        """Zero-point momentum used for absolute-unit reporting, kg m/s."""
        if self.p_zp_override is not None:
            return self.p_zp_override
        return zero_point_momentum(self)

    def p_zp_report_kev_c(self) -> float:
        return momentum_to_kev_c(self.p_zp_report_si())

    def with_(self, **kwargs) -> "OscillatorParams":
        """Return a copy with the given fields replaced (revalidated)."""
        return replace(self, **kwargs)


def zero_point_momentum(params: OscillatorParams) -> float:
    """Nominal zero-point momentum sqrt(hbar m Omega / 2) in kg m/s.

    Always the nominal value; reporting layers apply p_zp_override
    themselves when it is set.
    """
    return math.sqrt(HBAR * params.mass_kg * params.omega / 2.0)


def impulse_from_pulse(params: OscillatorParams, pulse_duration: float) -> float:
    """Momentum kick, in zero-point units, of a rectangular voltage pulse.

    delta_P = kappa_imp * pulse_voltage_v * pulse_duration, both
    coefficients from ``params``. A zero-duration pulse is a valid null
    kick. Durations above IMPULSE_WARN_S only warn: the kick is applied
    as instantaneous either way, which is the caller's modeling choice
    to make.
    """
    if pulse_duration < 0.0:
        raise ValueError(f"pulse_duration must be >= 0, got {pulse_duration}")
    dp = params.kappa_imp * params.pulse_voltage_v * pulse_duration
    if not math.isfinite(dp):
        raise ValueError(
            f"kick kappa_imp * pulse_voltage_v * pulse_duration must be finite, got {dp}"
        )
    if pulse_duration > IMPULSE_WARN_S * (1.0 + 1e-12):
        warnings.warn(
            f"pulse duration {pulse_duration:.3g} s exceeds {IMPULSE_WARN_S:.0e} s; "
            "the kick is still applied as instantaneous",
            stacklevel=2,
        )
    return dp
