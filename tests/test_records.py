"""Measurement record container and its CSV / binary round trips."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levamp.records import (
    MeasurementRecord,
    read_record_binary,
    read_record_csv,
    write_record_binary,
    write_record_csv,
)

RNG = np.random.default_rng(905)


def make_record(n=64, t0=1.25e-4, dt=9.615384615384615e-8, gaps=False):
    gate = np.ones(n, dtype=bool)
    samples = RNG.standard_normal(n)
    if gaps:
        gate[n // 3 : n // 2] = False
        samples[~gate] = np.nan
    return MeasurementRecord(t0, dt, samples, gate)


def test_basic_accessors():
    rec = make_record(n=10)
    assert len(rec) == 10
    assert rec.duration == pytest.approx(10 * rec.dt, rel=1e-15)
    assert np.allclose(rec.times, rec.t0 + rec.dt * np.arange(10))
    assert rec.all_gated_on()


def test_gaps_clear_all_gated_on():
    assert not make_record(gaps=True).all_gated_on()


def test_csv_round_trip(tmp_path):
    rec = make_record()
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)
    back = read_record_csv(path)
    assert back.t0 == pytest.approx(rec.t0, rel=1e-15)
    assert back.dt == pytest.approx(rec.dt, rel=1e-15)
    assert np.allclose(back.samples, rec.samples, atol=1e-15)
    assert np.array_equal(back.gate, rec.gate)


def test_csv_round_trip_keeps_gated_off_samples_nan(tmp_path):
    rec = make_record(gaps=True)
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)
    back = read_record_csv(path)
    assert np.array_equal(back.gate, rec.gate)
    assert np.all(np.isnan(back.samples[~back.gate]))
    on = rec.gate
    assert np.allclose(back.samples[on], rec.samples[on], atol=1e-15)


@pytest.mark.parametrize("t0, dt, n", [(1.0, 1e-7, 5000), (-3.6e-6, 9.6e-8, 2400)])
def test_csv_round_trip_accepts_timestamps_rounded_far_from_zero(tmp_path, t0, dt, n):
    """At t0 = 1 s the %.17g timestamps drift 2.9e-6 dt off t0 + k dt over
    5000 samples by float rounding alone; the reader accepts its own files."""
    rec = MeasurementRecord(t0, dt, RNG.standard_normal(n), np.ones(n, dtype=bool))
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)
    back = read_record_csv(path)
    assert back.dt == pytest.approx(dt, rel=1e-9)
    assert np.array_equal(back.samples, rec.samples)


def test_binary_round_trip_is_exact(tmp_path):
    rec = make_record(n=257, gaps=True)
    path = tmp_path / "rec.lkr"
    write_record_binary(rec, path)
    back = read_record_binary(path)
    assert back.t0 == rec.t0
    assert back.dt == rec.dt
    on = rec.gate
    assert np.array_equal(back.samples[on], rec.samples[on])
    assert np.array_equal(back.gate, rec.gate)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_record_csv(path)


def test_csv_rejects_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t_s,y,gate\n")
    with pytest.raises(ValueError):
        read_record_csv(path)


@pytest.mark.parametrize(
    "body, match",
    [
        ("0.0,1.0,1\n1e-7,2.0\n", r"line 3: .* got \['1e-7', '2.0'\]"),
        ("0.0,1.0,1\n1e-7,2.0,1,9\n", "line 3: expected t_s,y,gate"),
        ("0.0,1.0,7\n", r"line 2: .*gate 0 or 1.* got \['0.0', '1.0', '7'\]"),
        ("0.0,1.0,1\n\n1e-7,2.0,true\n", "line 4: "),
        ("0.0,abc,1\n", "line 2: expected t_s,y,gate numbers"),
        ("0.0,1.0,1\n1e-7,nan,0\n2e-7,inf,1\n", "line 4: .*finite gated-on y"),
        ("0,1.0,1\n1e-7,2.0,1\n9e-7,3.0,1\n", r"line 4: t_s is off .* k = 2, got \['9e-7'"),
        ("0,1.0,1\n1e-7,2.0,1\n\n2.00001e-7,3.0,1\n", "line 5: t_s is off"),
        ("0,1.0,1\n1e-7,2.0,1\nnan,3.0,1\n", "line 4: t_s is off"),
    ],
    ids=["two-fields", "four-fields", "gate-7", "gate-word", "bad-number", "gated-on-inf",
         "jump", "drift-1e-5-dt", "nan-time"],
)
def test_csv_faults_name_the_line(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,y,gate\n" + body)
    with pytest.raises(ValueError, match=match):
        read_record_csv(path)


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.lkr"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(ValueError):
        read_record_binary(path)


def test_binary_rejects_truncation(tmp_path):
    rec = make_record(n=32)
    path = tmp_path / "rec.lkr"
    write_record_binary(rec, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    with pytest.raises(ValueError, match="truncated"):
        read_record_binary(path)


def _lkr1_bytes(tmp_path, rec):
    path = tmp_path / "rec.lkr"
    write_record_binary(rec, path)
    return path, path.read_bytes()


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda data: data[:20], "offset 28"),
        (lambda data: data[:4] + struct.pack("<Q", 2**63) + data[12:], "offset 4"),
        (lambda data: data + b"\x00", "trailing bytes.*offset 4"),
        (lambda data: data[:-1] + b"\x07", "gate byte 7 at offset 126"),
        (lambda data: data[:12] + struct.pack("<d", np.inf) + data[20:], "t0 inf at offset 12"),
        (lambda data: data[:20] + struct.pack("<d", 0.0) + data[28:], "dt 0.0 at offset 20"),
        (lambda data: data[:20] + struct.pack("<d", np.nan) + data[28:], "dt nan at offset 20"),
        (
            lambda data: data[:28 + 8 * 3] + struct.pack("<d", -np.inf) + data[28 + 8 * 4:],
            "gated-on sample 3 is -inf at offset 52",
        ),
    ],
    ids=[
        "short-header", "huge-count", "trailing-byte", "gate-byte-7", "t0-inf", "dt-zero",
        "dt-nan", "sample-3-inf",
    ],
)
def test_binary_faults_name_the_byte_offset(tmp_path, mutate, match):
    path, data = _lkr1_bytes(tmp_path, make_record(n=11))
    assert len(data) == 28 + 9 * 11
    path.write_bytes(mutate(data))
    with pytest.raises(ValueError, match=match):
        read_record_binary(path)


_PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def records(draw):
    gate = draw(st.lists(st.booleans(), max_size=12))
    samples = [
        draw(st.floats(allow_nan=not on, allow_infinity=not on)) for on in gate
    ]
    return MeasurementRecord(
        t0=draw(st.floats(allow_nan=False, allow_infinity=False)),
        dt=draw(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)),
        samples=np.array(samples, dtype=float),
        gate=np.array(gate, dtype=bool),
    )


@_PROPERTY
@given(rec=records())
def test_any_record_round_trips_through_lkr1_bit_for_bit(tmp_path, rec):
    path, _ = _lkr1_bytes(tmp_path, rec)
    back = read_record_binary(path)
    assert struct.pack("<dd", back.t0, back.dt) == struct.pack("<dd", rec.t0, rec.dt)
    assert back.samples.tobytes() == rec.samples.tobytes()
    assert np.array_equal(back.gate, rec.gate)


@_PROPERTY
@given(rec=records())
def test_every_truncation_of_an_lkr1_file_is_rejected(tmp_path, rec):
    path, data = _lkr1_bytes(tmp_path, rec)
    for length in range(len(data)):
        path.write_bytes(data[:length])
        with pytest.raises(ValueError, match="offset"):
            read_record_binary(path)


@_PROPERTY
@given(rec=records(), extra=st.binary(min_size=1, max_size=20))
def test_appended_bytes_are_rejected(tmp_path, rec, extra):
    path, data = _lkr1_bytes(tmp_path, rec)
    path.write_bytes(data + extra)
    with pytest.raises(ValueError, match="trailing bytes"):
        read_record_binary(path)


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(0.0, -1e-8, np.zeros(4), np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        MeasurementRecord(0.0, 1e-8, np.zeros(4), np.ones(3, dtype=bool))
    with pytest.raises(ValueError):
        MeasurementRecord(np.nan, 1e-8, np.zeros(4), np.ones(4, dtype=bool))
    samples = np.array([0.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        MeasurementRecord(0.0, 1e-8, samples, np.ones(4, dtype=bool))
