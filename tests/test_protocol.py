"""Protocol builders, timing anchors, and schedule validation."""

import dataclasses
import json
import math

import pytest

from levamp.params import OscillatorParams
from levamp.protocol import (
    DEFAULT_READOUT_PERIODS,
    DEFAULT_RELEASE_LEAD_S,
    FEEDBACK_HOLD_TIME_CONSTANTS,
    ProtocolSchedule,
    Segment,
    build_amplified,
    build_conventional,
    build_for_ratio,
    schedule_to_json,
    validate,
)

PARAMS = OscillatorParams()
PERIOD = PARAMS.period_s
R12 = math.sqrt(12.0)

AMP = build_amplified(PARAMS, R12, 100e-9)
CONV = build_conventional(PARAMS, 1000e-9)


def kinds(schedule):
    return [s.kind for s in schedule.segments]


def test_amplified_segment_order():
    assert kinds(AMP) == ["feedback_hold", "soft", "kick", "soft", "readout"]


def test_conventional_segment_order():
    assert kinds(CONV) == ["feedback_hold", "free_base", "kick", "readout"]


@pytest.mark.parametrize(
    "r,quarter_s",
    [
        (R12, 1.6654334688162282e-5),
        (2.0, 9.6153846153846154e-6),
    ],
)
def test_soft_segments_span_a_quarter_of_the_local_period(r, quarter_s):
    sched = build_amplified(PARAMS, r, 100e-9)
    softs = [s for s in sched.segments if s.kind == "soft"]
    assert len(softs) == 2
    for seg in softs:
        assert seg.duration_s == pytest.approx(quarter_s, rel=1e-12)
        assert seg.freq_ratio == pytest.approx(1.0 / r, rel=1e-12)
        assert not seg.measurement_on and not seg.feedback_on


def test_soft_span_approaches_half_a_base_period_near_unity():
    sched = build_amplified(PARAMS, 1.0 + 1e-9, 100e-9)
    total = sum(s.duration_s for s in sched.segments if s.kind == "soft")
    assert total == pytest.approx(math.pi / PARAMS.omega, rel=1e-6)


def test_feedback_hold_spans_twenty_damping_times():
    for sched in (AMP, CONV):
        hold = sched.segments[0]
        assert hold.kind == "feedback_hold"
        assert hold.duration_s == pytest.approx(
            FEEDBACK_HOLD_TIME_CONSTANTS / PARAMS.gamma_fb, rel=1e-12
        )
        assert hold.duration_s == pytest.approx(0.0015915494309189536, rel=1e-12)
        assert hold.measurement_on and hold.feedback_on


def test_conventional_release_lead():
    lead = CONV.segments[1]
    assert lead.kind == "free_base"
    assert lead.duration_s == DEFAULT_RELEASE_LEAD_S
    assert lead.duration_s * PARAMS.freq_hz == pytest.approx(0.1872, rel=1e-12)
    assert lead.measurement_on and not lead.feedback_on


def test_kick_sizes_track_the_pulse():
    assert AMP.kick_dp == pytest.approx(1.2, rel=1e-12)
    assert CONV.kick_dp == pytest.approx(12.0, rel=1e-12)
    assert AMP.tau_s == 100e-9
    assert CONV.tau_s == 1000e-9


def test_both_builders_transfer_the_same_momentum_for_one_pulse():
    a = build_amplified(PARAMS, 2.0, 300e-9)
    c = build_conventional(PARAMS, 300e-9)
    assert a.kick_dp == pytest.approx(c.kick_dp, rel=1e-15)


def test_amplified_timing_anchors():
    quarter = 1.6654334688162282e-5
    assert AMP.t_zero == 0.0
    assert AMP.t_kick == pytest.approx(-quarter, rel=1e-12)
    hold = AMP.segments[0].duration_s
    assert AMP.t_start == pytest.approx(-(hold + 2.0 * quarter), rel=1e-12)
    assert AMP.readout_duration == pytest.approx(
        DEFAULT_READOUT_PERIODS * PERIOD, rel=1e-12
    )
    assert AMP.total_duration == pytest.approx(
        hold + 2.0 * quarter + AMP.readout_duration, rel=1e-12
    )


def test_conventional_timing_anchors():
    assert CONV.t_zero == 0.0
    assert CONV.t_kick == 0.0
    hold = CONV.segments[0].duration_s
    assert CONV.t_start == pytest.approx(-(hold + DEFAULT_RELEASE_LEAD_S), rel=1e-12)


def test_boundaries_are_contiguous():
    """The readout and kick sit exactly on their anchors, free of the
    rounding in the durations laid out before them."""
    slow_hold = PARAMS.with_(gamma_fb_hz=500.0)
    for sched in (AMP, CONV, build_amplified(PARAMS, 5.0, 100e-9),
                  build_conventional(slow_hold, 1000e-9)):
        bounds = sched.boundaries()
        assert next(t0 for t0, _, s in bounds if s.kind == "readout") == sched.t_zero
        assert next(t0 for t0, _, s in bounds if s.kind == "kick") == sched.t_kick
        assert bounds[0][0] == pytest.approx(sched.t_start, abs=1e-15)
        for (_, end, _), (start, _, _) in zip(bounds, bounds[1:]):
            assert start == pytest.approx(end, abs=1e-12)
        assert bounds[-1][1] == pytest.approx(
            sched.t_zero + sched.readout_duration, abs=1e-12
        )


def test_ratio_switch_picks_conventional_only_at_unity():
    assert build_for_ratio(PARAMS, 1.0 + 1e-10, 100e-9) == build_conventional(PARAMS, 100e-9)
    assert build_for_ratio(PARAMS, 1.0 + 1e-6, 100e-9).mode == "amplified"
    assert build_for_ratio(PARAMS, R12, 100e-9) == AMP


def test_mode_and_squeeze_ratio():
    assert AMP.mode == "amplified"
    assert AMP.squeeze_ratio == pytest.approx(R12, rel=1e-12)
    assert CONV.mode == "conventional"
    assert CONV.squeeze_ratio == 1.0


def test_builders_are_deterministic():
    assert build_amplified(PARAMS, R12, 100e-9) == AMP
    assert build_conventional(PARAMS, 1000e-9) == CONV


def test_built_schedules_validate_clean():
    assert validate(AMP) == []
    assert validate(CONV) == []
    assert validate(build_amplified(PARAMS, 1.0001, 50e-9)) == []


def test_amplified_rejects_unit_ratio():
    with pytest.raises(ValueError, match="use build_conventional"):
        build_amplified(PARAMS, 1.0, 100e-9)
    with pytest.raises(ValueError):
        build_amplified(PARAMS, 0.9, 100e-9)


def test_readout_must_cover_a_period():
    with pytest.raises(ValueError, match="at least one base period"):
        build_conventional(PARAMS, 100e-9, readout_duration=0.5 * PERIOD)


def replace_segment(schedule, index, **changes):
    segments = list(schedule.segments)
    segments[index] = dataclasses.replace(segments[index], **changes)
    return dataclasses.replace(schedule, segments=tuple(segments))


def test_validate_flags_a_displaced_kick():
    shifted = dataclasses.replace(AMP, t_kick=AMP.t_kick + 0.3 * PERIOD)
    assert any("kick not at maximum squeezing" in v for v in validate(shifted))


def test_validate_flags_gated_soft_segments():
    bad = replace_segment(AMP, 1, measurement_on=True)
    assert any("soft segment has measurement" in v for v in validate(bad))
    bad = replace_segment(AMP, 3, feedback_on=True)
    assert any("soft segment has measurement" in v for v in validate(bad))


def test_validate_flags_off_frequency_segments():
    bad = replace_segment(CONV, 1, freq_ratio=0.5)
    assert any("base frequency" in v for v in validate(bad))


def test_validate_counts_kicks():
    segments = tuple(s for s in CONV.segments if s.kind != "kick")
    bad = dataclasses.replace(CONV, segments=segments)
    assert any("exactly one kick" in v for v in validate(bad))
    doubled = CONV.segments[:3] + (CONV.segments[2],) + CONV.segments[3:]
    bad = dataclasses.replace(CONV, segments=doubled)
    assert any("exactly one kick" in v for v in validate(bad))


def test_validate_requires_one_readout():
    segments = tuple(s for s in CONV.segments if s.kind != "readout")
    bad = dataclasses.replace(CONV, segments=segments)
    assert any("exactly one readout" in v for v in validate(bad))


def test_validate_flags_a_broken_timeline():
    bad = dataclasses.replace(AMP, readout_duration=AMP.readout_duration * 2.0)
    assert any("non-contiguous timeline" in v for v in validate(bad))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(kind="warp", duration_s=1.0)
    with pytest.raises(ValueError):
        Segment(kind="soft", duration_s=-1e-6, freq_ratio=0.5)
    with pytest.raises(ValueError):
        Segment(kind="soft", duration_s=1e-6, freq_ratio=1.5)
    with pytest.raises(ValueError, match="kick_dp must be zero"):
        Segment(kind="readout", duration_s=1e-4, measurement_on=True, kick_dp=1.0)


def test_schedule_json_lists_every_segment():
    payload = json.loads(schedule_to_json(AMP))
    assert len(payload) == len(AMP.segments)
    for entry, seg in zip(payload, AMP.segments):
        assert entry["kind"] == seg.kind
        assert entry["duration_s"] == pytest.approx(seg.duration_s, rel=1e-15)
        assert entry["freq_ratio"] == pytest.approx(seg.freq_ratio, rel=1e-15)
        assert entry["meas"] == seg.measurement_on
        assert entry["fb"] == seg.feedback_on
        assert entry["kick_dp"] == pytest.approx(seg.kick_dp, rel=1e-15)
