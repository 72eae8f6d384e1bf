"""Segment timelines for the conventional and amplified kick protocols.

A protocol is an ordered, contiguous list of constant-parameter
segments, and that list is the whole timeline: every anchor is derived
from it.  t = 0 is the protocol reference ``t_zero``, the start of the
readout segment: the moment the trap returns to its base stiffness for
the amplified sequence, or the kick itself for the conventional one.
Segments before the readout are laid out backwards from it.

Amplified timing, relative to t_zero, with Omega the base angular
frequency and r the squeeze ratio:

    soft span   [-pi r / Omega, 0)
    kick        at -pi r / (2 Omega), bisecting the soft span
    readout     [0, readout_duration)

The kick sits exactly at maximum momentum squeezing, so the transferred
momentum re-emerges at t_zero as a position displacement r times larger.

A segment's kind decides what runs during it: the feedback hold
measures with feedback on, the free base and readout segments measure
without it, and soft and kick segments do neither.

Schedules are pure data.  Builders produce valid timelines; `validate`
audits the order and timing of arbitrary ones and reports violations
instead of raising, so hand-constructed schedules can be inspected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar

from .params import OscillatorParams, impulse_from_pulse

SEGMENT_KINDS = ("feedback_hold", "free_base", "soft", "kick", "readout")
MEASURED_KINDS = ("feedback_hold", "free_base", "readout")

DEFAULT_RELEASE_LEAD_S = 3.6e-6
DEFAULT_READOUT_PERIODS = 5.0
FEEDBACK_HOLD_TIME_CONSTANTS = 20.0

_REL_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """One constant-parameter stretch of the protocol.

    kick segments are zero-duration momentum displacements; every
    other kind has ``kick_dp`` = 0.  The kind alone decides detection
    (the kinds in ``MEASURED_KINDS``) and feedback (the feedback hold
    only).
    """

    kind: str
    duration_s: float
    freq_ratio: float = 1.0
    kick_dp: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind '{self.kind}'")
        if not (self.duration_s >= 0.0 and math.isfinite(self.duration_s)):
            raise ValueError("duration_s must be nonnegative and finite")
        if not (0.0 < self.freq_ratio <= 1.0):
            raise ValueError("freq_ratio must be in (0, 1]")
        if not math.isfinite(self.kick_dp):
            raise ValueError("kick_dp must be finite")
        if self.kind != "kick" and self.kick_dp != 0.0:
            raise ValueError("kick_dp must be zero outside kick segments")


@dataclass(frozen=True)
class ProtocolSchedule:
    """Ordered contiguous segments; the timing anchors derive from them.

    Attributes
    ----------
    segments : tuple of Segment
    tau_s : float
        Electrical pulse length that produced the kick (metadata for
        scaling fits; does not affect the timeline).
    t_zero : float
        Protocol reference time, fixed at 0.0: the readout starts here.
    """

    segments: tuple[Segment, ...]
    tau_s: float = 0.0

    t_zero: ClassVar[float] = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return sum(s.duration_s for s in self.segments)

    @property
    def readout_duration(self) -> float:
        """Length of the readout segment, seconds; 0.0 without one."""
        return next((s.duration_s for s in self.segments if s.kind == "readout"), 0.0)

    @property
    def t_kick(self) -> float:
        """Absolute time of the first kick segment; NaN without one."""
        return next((t0 for t0, _, s in self.boundaries() if s.kind == "kick"), math.nan)

    def boundaries(self) -> list[tuple[float, float, Segment]]:
        """Absolute (t_begin, t_end) for each segment in order.

        Anchored at t_zero: the first readout segment starts exactly
        there, earlier segments are laid out backwards from it and later
        ones forwards, so the readout start carries no rounding from the
        durations before it.  Without a readout the timeline ends at t_zero.
        """
        segments = self.segments
        anchor = next(
            (j for j, s in enumerate(segments) if s.kind == "readout"), len(segments)
        )
        begins = [0.0] * len(segments)
        t = self.t_zero
        for j in range(anchor - 1, -1, -1):
            t -= segments[j].duration_s
            begins[j] = t
        t = self.t_zero
        for j in range(anchor, len(segments)):
            begins[j] = t
            t += segments[j].duration_s
        return [(t0, t0 + s.duration_s, s) for t0, s in zip(begins, segments)]

    @property
    def squeeze_ratio(self) -> float:
        """r of the soft phase, or 1.0 for a conventional schedule."""
        ratios = [s.freq_ratio for s in self.segments if s.kind == "soft"]
        return 1.0 / min(ratios) if ratios else 1.0

    @property
    def mode(self) -> str:
        return "amplified" if self.squeeze_ratio > 1.0 else "conventional"

    @property
    def kick_dp(self) -> float:
        for seg in self.segments:
            if seg.kind == "kick":
                return seg.kick_dp
        return 0.0


def _default_readout(params: OscillatorParams, readout_duration: float | None) -> float:
    if readout_duration is None:
        readout_duration = DEFAULT_READOUT_PERIODS * params.period_s
    if readout_duration < params.period_s * (1.0 - _REL_TOL):
        raise ValueError(
            "readout_duration must cover at least one base period "
            f"({params.period_s:.6e} s); retrodiction needs a full "
            "quadrature rotation"
        )
    return float(readout_duration)


def _hold_segment(params: OscillatorParams) -> Segment:
    return Segment("feedback_hold", FEEDBACK_HOLD_TIME_CONSTANTS / params.gamma_fb)


def build_conventional(
    params: OscillatorParams,
    tau: float,
    release_lead: float = DEFAULT_RELEASE_LEAD_S,
    readout_duration: float | None = None,
) -> ProtocolSchedule:
    """Direct kick-and-measure sequence in the stiff trap.

    Feedback cooling is released ``release_lead`` seconds before the
    kick (default 3.6 us) and the trap is never softened, so the
    momentum transfer is read back without amplification.
    """
    if not (release_lead > 0.0 and math.isfinite(release_lead)):
        raise ValueError("release_lead must be positive")
    readout_duration = _default_readout(params, readout_duration)
    dp = impulse_from_pulse(params, params.pulse_voltage_v, tau)
    segments = (
        _hold_segment(params),
        Segment("free_base", float(release_lead)),
        Segment("kick", 0.0, kick_dp=dp),
        Segment("readout", readout_duration),
    )
    return ProtocolSchedule(segments, tau_s=float(tau))


def build_amplified(
    params: OscillatorParams,
    r: float,
    tau: float,
    readout_duration: float | None = None,
) -> ProtocolSchedule:
    """Squeeze, kick at maximum squeezing, reverse, then read out.

    The trap frequency is stepped from Omega to Omega/r for half a
    soft period, with the kick bisecting the span.
    """
    if not (r > 1.0 and math.isfinite(r)):
        raise ValueError(
            "squeeze ratio r must be greater than 1 for the amplified "
            "protocol; use build_conventional for the r = 1 sequence"
        )
    readout_duration = _default_readout(params, readout_duration)
    dp = impulse_from_pulse(params, params.pulse_voltage_v, tau)
    soft = Segment("soft", math.pi * r / (2.0 * params.omega), freq_ratio=1.0 / r)
    segments = (
        _hold_segment(params),
        soft,
        Segment("kick", 0.0, kick_dp=dp),
        soft,
        Segment("readout", readout_duration),
    )
    return ProtocolSchedule(segments, tau_s=float(tau))


def build_for_ratio(
    params: OscillatorParams,
    r: float,
    tau: float,
    readout_duration: float | None = None,
) -> ProtocolSchedule:
    """Schedule for squeeze ratio r: conventional within 1e-9 of 1, else amplified."""
    if abs(r - 1.0) < 1e-9:
        return build_conventional(params, tau=tau, readout_duration=readout_duration)
    return build_amplified(params, r=r, tau=tau, readout_duration=readout_duration)


def validate(schedule: ProtocolSchedule) -> list[str]:
    """Audit a schedule; returns a list of violations, empty when ok.

    Checks the segment list alone: exactly one zero-duration kick and
    one readout, the readout last and of positive duration, every
    segment but the soft ones at the base frequency, and, for an
    amplified sequence, that the kick segment begins at the midpoint of
    the soft span (maximum squeezing).  Never raises.
    """
    violations: list[str] = []
    segments = schedule.segments

    kicks = [s for s in segments if s.kind == "kick"]
    if len(kicks) != 1:
        violations.append("schedule must contain exactly one kick segment")
    for seg in kicks:
        if seg.duration_s != 0.0:
            violations.append("kick segment must have zero duration")

    for seg in segments:
        if seg.kind != "soft" and seg.freq_ratio != 1.0:
            violations.append(f"{seg.kind} segment must run at the base frequency")

    readouts = [s for s in segments if s.kind == "readout"]
    if len(readouts) != 1:
        violations.append("schedule must contain exactly one readout segment")
        return violations
    if segments[-1].kind != "readout":
        violations.append("readout must be the last segment")
    if not readouts[0].duration_s > 0.0:
        violations.append("readout must have a positive duration")

    soft_bounds = [(t0, t1) for t0, t1, s in schedule.boundaries() if s.kind == "soft"]
    if soft_bounds and kicks:
        midpoint = 0.5 * (soft_bounds[0][0] + soft_bounds[-1][1])
        if abs(schedule.t_kick - midpoint) > _REL_TOL * max(schedule.total_duration, 1e-30):
            violations.append("kick not at maximum squeezing")

    return violations


def require_valid(schedule: ProtocolSchedule) -> None:
    """Raise ValueError listing every violation :func:`validate` finds."""
    violations = validate(schedule)
    if violations:
        raise ValueError("invalid schedule: " + "; ".join(violations))


def schedule_to_json(schedule: ProtocolSchedule, indent: int | None = 2) -> str:
    """Serialize the segment list as a JSON array for inspection."""
    payload = [
        {
            "kind": seg.kind,
            "duration_s": seg.duration_s,
            "freq_ratio": seg.freq_ratio,
            "meas": seg.kind in MEASURED_KINDS,
            "fb": seg.kind == "feedback_hold",
            "kick_dp": seg.kick_dp,
        }
        for seg in schedule.segments
    ]
    return json.dumps(payload, indent=indent)
