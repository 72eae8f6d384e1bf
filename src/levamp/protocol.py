"""Segment timelines for the conventional and amplified kick protocols.

A protocol is an ordered, contiguous list of constant-parameter
segments.  Times are anchored so that t = 0 is the protocol reference
``t_zero``: the moment the trap returns to its base stiffness for the
amplified sequence, or the kick itself for the conventional one.  The
readout segment starts at ``t_zero`` in both cases.

Amplified timing, relative to t_zero, with Omega the base angular
frequency and r the squeeze ratio:

    soft span   [-pi r / Omega, 0)
    kick        at -pi r / (2 Omega), bisecting the soft span
    readout     [0, readout_duration)

The kick sits exactly at maximum momentum squeezing, so the transferred
momentum re-emerges at t_zero as a position displacement r times larger.

Schedules are pure data.  Builders produce valid timelines; `validate`
audits arbitrary ones and reports violations instead of raising, so
hand-constructed schedules can be inspected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .params import OscillatorParams, impulse_from_pulse

SEGMENT_KINDS = ("feedback_hold", "free_base", "soft", "kick", "readout")

DEFAULT_RELEASE_LEAD_S = 3.6e-6
DEFAULT_READOUT_PERIODS = 5.0
FEEDBACK_HOLD_TIME_CONSTANTS = 20.0

_REL_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """One constant-parameter stretch of the protocol.

    kick segments are zero-duration momentum displacements; every
    other kind has ``kick_dp`` = 0.  Builders additionally keep soft
    segments fully gated off (no measurement, no feedback); that
    protocol-level invariant is audited by :func:`validate` rather
    than enforced here, so malformed schedules remain representable
    for inspection.
    """

    kind: str
    duration_s: float
    freq_ratio: float = 1.0
    measurement_on: bool = False
    feedback_on: bool = False
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
    """Ordered contiguous segments plus the timing anchors.

    Attributes
    ----------
    segments : tuple of Segment
    t_kick : float
        Absolute time of the impulse, seconds.
    t_zero : float
        Protocol reference time; the readout starts here.
    readout_duration : float
        Length of the readout segment, seconds.
    tau_s : float
        Electrical pulse length that produced the kick (metadata for
        scaling fits; does not affect the timeline).
    """

    segments: tuple[Segment, ...]
    t_kick: float
    t_zero: float
    readout_duration: float
    tau_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return sum(s.duration_s for s in self.segments)

    @property
    def t_start(self) -> float:
        """Start time of the first segment."""
        return self.t_zero + self.readout_duration - self.total_duration

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
    duration = FEEDBACK_HOLD_TIME_CONSTANTS / params.gamma_fb
    return Segment(
        kind="feedback_hold",
        duration_s=duration,
        freq_ratio=1.0,
        measurement_on=True,
        feedback_on=True,
    )


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
        Segment(
            kind="free_base",
            duration_s=float(release_lead),
            measurement_on=True,
            feedback_on=False,
        ),
        Segment(kind="kick", duration_s=0.0, kick_dp=dp),
        Segment(
            kind="readout",
            duration_s=readout_duration,
            measurement_on=True,
            feedback_on=False,
        ),
    )
    return ProtocolSchedule(
        segments=segments,
        t_kick=0.0,
        t_zero=0.0,
        readout_duration=readout_duration,
        tau_s=float(tau),
    )


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
    quarter = math.pi * r / (2.0 * params.omega)
    soft = Segment(
        kind="soft",
        duration_s=quarter,
        freq_ratio=1.0 / r,
        measurement_on=False,
        feedback_on=False,
    )
    segments = (
        _hold_segment(params),
        soft,
        Segment(kind="kick", duration_s=0.0, kick_dp=dp),
        soft,
        Segment(
            kind="readout",
            duration_s=readout_duration,
            measurement_on=True,
            feedback_on=False,
        ),
    )
    return ProtocolSchedule(
        segments=segments,
        t_kick=-quarter,
        t_zero=0.0,
        readout_duration=readout_duration,
        tau_s=float(tau),
    )


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

    Checks timeline consistency against the anchors, the gating rules
    for soft segments, and that the kick bisects the soft span of an
    amplified sequence. Never raises.
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
        if seg.kind == "soft" and (seg.measurement_on or seg.feedback_on):
            violations.append("soft segment has measurement or feedback enabled")
        if seg.kind != "soft" and seg.freq_ratio != 1.0:
            violations.append(f"{seg.kind} segment must run at the base frequency")

    readouts = [s for s in segments if s.kind == "readout"]
    if len(readouts) != 1:
        violations.append("schedule must contain exactly one readout segment")
        return violations

    scale = max(abs(schedule.total_duration), abs(schedule.readout_duration), 1e-30)
    bounds = schedule.boundaries()

    if abs(readouts[0].duration_s - schedule.readout_duration) > _REL_TOL * scale:
        violations.append("non-contiguous timeline")
    if segments[-1].kind != "readout":
        violations.append("non-contiguous timeline")

    soft_bounds = [(t0, t1) for t0, t1, s in bounds if s.kind == "soft"]
    if soft_bounds:
        span_start = soft_bounds[0][0]
        span_end = soft_bounds[-1][1]
        span = span_end - span_start
        midpoint = 0.5 * (span_start + span_end)
        if abs(schedule.t_kick - midpoint) > _REL_TOL * max(span, scale):
            violations.append("kick not at maximum squeezing")
    elif kicks:
        kick_time = next(t0 for t0, _, s in bounds if s.kind == "kick")
        if abs(schedule.t_kick - kick_time) > _REL_TOL * scale:
            violations.append("non-contiguous timeline")

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
            "meas": seg.measurement_on,
            "fb": seg.feedback_on,
            "kick_dp": seg.kick_dp,
        }
        for seg in schedule.segments
    ]
    return json.dumps(payload, indent=indent)
