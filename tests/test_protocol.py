"""Protocol builders, timing anchors, and schedule validation."""

import dataclasses
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from levamp.params import OscillatorParams
from levamp.protocol import (
    DEFAULT_READOUT_PERIODS,
    DEFAULT_RELEASE_LEAD_S,
    FEEDBACK_HOLD_TIME_CONSTANTS,
    SEGMENT_KINDS,
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
    assert AMP.boundaries()[0][0] == pytest.approx(-(hold + 2.0 * quarter), rel=1e-12)
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
    assert CONV.boundaries()[0][0] == pytest.approx(
        -(hold + DEFAULT_RELEASE_LEAD_S), rel=1e-12
    )


def test_boundaries_are_contiguous():
    """The readout and kick sit exactly on their anchors, free of the
    rounding in the durations laid out before them."""
    slow_hold = PARAMS.with_(gamma_fb_hz=500.0)
    for sched in (AMP, CONV, build_amplified(PARAMS, 5.0, 100e-9),
                  build_conventional(slow_hold, 1000e-9)):
        bounds = sched.boundaries()
        assert next(t0 for t0, _, s in bounds if s.kind == "readout") == sched.t_zero
        assert next(t0 for t0, _, s in bounds if s.kind == "kick") == sched.t_kick
        assert bounds[0][0] == pytest.approx(
            seconds_before_readout(sched.segments, 0), abs=1e-15
        )
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


def off_centre_kick(schedule, early=0.5, late=1.5):
    """The amplified schedule with its soft span split unequally around the kick."""
    hold, soft, kick, _, readout = schedule.segments
    quarter = soft.duration_s
    segments = (
        hold,
        dataclasses.replace(soft, duration_s=early * quarter),
        kick,
        dataclasses.replace(soft, duration_s=late * quarter),
        readout,
    )
    return dataclasses.replace(schedule, segments=segments)


def test_validate_flags_a_displaced_kick():
    """Soft halves of 0.5 and 1.5 quarter periods keep the total soft span
    but move the kick off maximum squeezing."""
    shifted = off_centre_kick(AMP)
    assert shifted.t_kick == pytest.approx(-1.5 * AMP.segments[1].duration_s, rel=1e-12)
    assert any("kick not at maximum squeezing" in v for v in validate(shifted))
    assert validate(off_centre_kick(AMP, 1.0, 1.0)) == []


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
    """Nothing may follow the readout, and the readout must be the record
    that retrodiction models: detection on, feedback off, not empty."""
    late = Segment(kind="free_base", duration_s=1e-6, measurement_on=True)
    bad = dataclasses.replace(CONV, segments=CONV.segments + (late,))
    assert validate(bad) == ["readout must be the last segment"]
    for change in ({"duration_s": 0.0}, {"measurement_on": False}, {"feedback_on": True}):
        bad = replace_segment(CONV, 3, **change)
        assert validate(bad) == ["readout must measure, without feedback, for a positive duration"]


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


DURATIONS = st.floats(0.0, 1e-2)
READOUTS = st.floats(0.0, 1e-2, exclude_min=True)


@st.composite
def any_segment(draw, durations=st.floats(0.0, 1e300)):
    kind = draw(st.sampled_from(SEGMENT_KINDS))
    return Segment(
        kind=kind,
        duration_s=draw(durations),
        freq_ratio=draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0))),
        measurement_on=draw(st.booleans()),
        feedback_on=draw(st.booleans()),
        kick_dp=draw(st.floats(-1e3, 1e3)) if kind == "kick" else 0.0,
    )


@st.composite
def segment_lists(draw):
    """Arbitrary segment lists, and lists shaped like the built protocols:
    an optional hold, a kick inside an optional soft span whose halves
    may differ, a readout, and possibly one stray segment anywhere."""
    if draw(st.booleans()):
        return draw(st.lists(any_segment(), max_size=7))
    segments = []
    if draw(st.booleans()):
        segments.append(Segment("feedback_hold", draw(DURATIONS), 1.0, True, True))
    kick = Segment("kick", 0.0, kick_dp=draw(st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        ratio = draw(st.floats(1e-3, 1.0))
        before = draw(DURATIONS)
        after = draw(st.one_of(st.just(before), DURATIONS))
        segments += [Segment("soft", before, ratio), kick, Segment("soft", after, ratio)]
    else:
        segments.append(kick)
    segments.append(Segment("readout", draw(READOUTS), measurement_on=True))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(segments)))
        segments.insert(at, draw(any_segment(durations=DURATIONS)))
    return segments


def seconds_before_readout(segments, index):
    """Start of segments[index] summed directly from the durations."""
    end = next(j for j, s in enumerate(segments) if s.kind == "readout")
    return -math.fsum(s.duration_s for s in segments[index:end])


@given(segment_lists())
def test_validate_passes_only_readouts_at_zero_and_centred_kicks(segments):
    schedule = ProtocolSchedule(segments)
    violations = validate(schedule)
    assert all(isinstance(v, str) for v in violations)
    if violations:
        return
    bounds = schedule.boundaries()
    assert bounds[-1][2].kind == "readout" and bounds[-1][0] == 0.0
    softs = [j for j, s in enumerate(segments) if s.kind == "soft"]
    if softs:
        kick = next(j for j, s in enumerate(segments) if s.kind == "kick")
        midpoint = 0.5 * (
            seconds_before_readout(segments, softs[0])
            + seconds_before_readout(segments, softs[-1] + 1)
        )
        gap = abs(seconds_before_readout(segments, kick) - midpoint)
        assert gap <= 1e-11 * max(schedule.total_duration, 1e-30)


@given(DURATIONS, DURATIONS, st.floats(1e-3, 1.0), READOUTS)
def test_equal_soft_halves_around_the_kick_validate_clean(hold, quarter, ratio, readout):
    soft = Segment("soft", quarter, ratio)
    schedule = ProtocolSchedule(
        (
            Segment("feedback_hold", hold, 1.0, True, True),
            soft,
            Segment("kick", 0.0, kick_dp=1.0),
            soft,
            Segment("readout", readout, measurement_on=True),
        )
    )
    assert validate(schedule) == []
    assert schedule.t_kick == -quarter
    assert schedule.readout_duration == readout
