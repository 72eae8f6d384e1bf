"""Measurement record container and its CSV / binary round trips."""

import contextlib
import csv
import math
import re
import struct

import numpy as np
import pytest
import reference_records
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from levamp.harness import simulate_trial
from levamp.params import OscillatorParams
from levamp.protocol import build_for_ratio
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
    assert np.allclose(rec.times, rec.t0 + rec.dt * np.arange(10), rtol=0.0)


def test_csv_round_trip(tmp_path):
    rec = make_record()
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)
    back = read_record_csv(path)
    assert back.t0 == pytest.approx(rec.t0, rel=1e-15)
    assert back.dt == pytest.approx(rec.dt, rel=1e-15)
    assert np.allclose(back.samples, rec.samples, rtol=0.0, atol=1e-15)
    assert np.array_equal(back.gate, rec.gate)


def test_csv_round_trip_keeps_gated_off_samples_nan(tmp_path):
    rec = make_record(gaps=True)
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)
    back = read_record_csv(path)
    assert np.array_equal(back.gate, rec.gate)
    assert np.all(np.isnan(back.samples[~back.gate]))
    on = rec.gate
    assert np.allclose(back.samples[on], rec.samples[on], rtol=0.0, atol=1e-15)


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
        ("0,1.0,1\n0,2.0,1\n", r"line 3: dt 0\.0 from the first two t_s must be positive"),
        ("1e-7,1.0,1\n0,2.0,1\n", r"line 3: dt -1e-07 .* got \['0', '2.0', '1'\]"),
        ("nan,1.0,1\n\n1e-7,2.0,1\n", r"line 2: t0 nan must be finite, got \['nan'"),
        ("0,1.0,1\ninf,2.0,1\n", "line 3: dt inf from the first two t_s must be positive and"),
    ],
    ids=["two-fields", "four-fields", "gate-7", "gate-word", "bad-number", "gated-on-inf",
         "jump", "drift-1e-5-dt", "nan-time", "repeated-t0", "decreasing-t1", "nan-t0",
         "inf-t1"],
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


def _grid_is_finite(t0, dt, n):
    """Whether MeasurementRecord accepts the grid: t0 + (n - 1) dt is finite."""
    return math.isfinite(t0 + dt * max(n - 1, 0))


@st.composite
def records(draw):
    gate = draw(st.lists(st.booleans(), max_size=12))
    samples = [
        draw(st.floats(allow_nan=not on, allow_infinity=not on)) for on in gate
    ]
    t0 = draw(st.floats(allow_nan=False, allow_infinity=False))
    dt = draw(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False))
    assume(_grid_is_finite(t0, dt, len(gate)))
    return MeasurementRecord(
        t0=t0, dt=dt, samples=np.array(samples, dtype=float), gate=np.array(gate, dtype=bool)
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


@pytest.mark.parametrize("t0, dt", [(0.0, 1e308), (1e308, 1e308), (-1e308, 1e308)])
def test_a_grid_past_the_float_range_is_rejected(tmp_path, t0, dt):
    """t0 + 2 dt overflows: the record is refused, naming its last time,
    and an LKR1 file holding that grid is refused at the dt offset."""
    with pytest.raises(ValueError, match=r"last sample time t0 \+ \(n - 1\) dt = inf s"):
        MeasurementRecord(t0, dt, np.zeros(3), np.ones(3, dtype=bool))
    path = tmp_path / "rec.lkr"
    path.write_bytes(b"LKR1" + struct.pack("<Qdd", 3, t0, dt) + bytes(8 * 3) + b"\x01" * 3)
    with pytest.raises(ValueError, match="at offset 20"):
        read_record_binary(path)


def test_csv_grid_past_the_float_range_is_named_before_the_off_grid_check(tmp_path):
    """Every t_s is finite but t0 + 2 dt overflows: the reader names the
    last line and the float range, not a row that lies on the grid."""
    path = tmp_path / "overflow.csv"
    path.write_bytes(b"t_s,y,gate\r\n1e308,0,1\r\n1.5e308,0,1\r\n1.7e308,0,1\r\n")
    with pytest.raises(ValueError, match=r"^line 4: the grid t0 \+ k dt .* leaves the float "
                                         r"range at k = 2$"):
        read_record_csv(path)


def test_csv_undecodable_byte_is_a_value_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t_s,y,gate\r\n0,1.0,1\r\n1e-7,\xff,1\r\n")
    with pytest.raises(ValueError, match="byte 0xff at offset 26 is not UTF-8"):
        read_record_csv(path)


# Values the row-at-a-time writer must agree on: signed zeros, subnormals,
# the ends of the float range, and t0 far from zero.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


@st.composite
def csv_records(draw, min_size=0, max_size=12):
    gate = draw(st.lists(st.booleans(), min_size=min_size, max_size=max_size))
    samples = [
        draw(
            st.floats(allow_nan=not on, allow_infinity=not on)
            | st.sampled_from(_EDGES + ([] if on else [math.nan, math.inf, -math.inf]))
        )
        for on in gate
    ]
    t0 = draw(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([123.456, -3.6e-6, 1e9, -0.0])
    )
    dt = draw(
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
        | st.sampled_from([3e-9, 9.615384615384615e-8])
    )
    assume(_grid_is_finite(t0, dt, len(gate)))
    return MeasurementRecord(
        t0=t0, dt=dt, samples=np.array(samples, dtype=float), gate=np.array(gate, dtype=bool)
    )


def _oracle_bytes(tmp_path, rec):
    path = tmp_path / "oracle.csv"
    reference_records.write_record_csv(rec, path)
    return path.read_bytes()


def _written_bytes(tmp_path, rec):
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)
    return path.read_bytes()


# The oracle leaves these two faults to MeasurementRecord; the column
# reader names their line instead.
_BARE_TIMESTAMP_FAULTS = ("t0 must be finite", "dt must be positive and finite")
_LINE_TIMESTAMP_FAULT = re.compile(
    r"line \d+: (t0 \S+ must be finite|dt \S+ from the first two t_s must be positive "
    r"and finite), got \["
)


def _outcome(read, path):
    try:
        rec = read(path)
    except Exception as exc:  # the oracle's exception type is part of the outcome
        return type(exc), str(exc)
    bits = struct.pack("<dd", rec.t0, rec.dt) + rec.samples.tobytes() + rec.gate.tobytes()
    return None, bits


def _assert_reads_like_the_oracle(path):
    want = _outcome(reference_records.read_record_csv, path)
    got = _outcome(read_record_csv, path)
    if want[1] in _BARE_TIMESTAMP_FAULTS:
        assert got[0] is ValueError and _LINE_TIMESTAMP_FAULT.match(got[1]), (want, got)
    else:
        assert got == want


_ORACLE = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_ORACLE
@given(rec=csv_records())
def test_csv_writer_bytes_equal_the_row_at_a_time_oracle(tmp_path, rec):
    assert _written_bytes(tmp_path, rec) == _oracle_bytes(tmp_path, rec)
    _assert_reads_like_the_oracle(tmp_path / "rec.csv")


@pytest.mark.parametrize("r", [1.0, 2.0, math.sqrt(12.0)])
def test_simulated_records_write_the_oracle_bytes_and_read_back_bit_for_bit(tmp_path, r):
    params = OscillatorParams()
    _, recs = simulate_trial(build_for_ratio(params, r, 1000e-9), params, 4, 3)
    for rec in recs:
        assert _written_bytes(tmp_path, rec) == _oracle_bytes(tmp_path, rec)
        back = read_record_csv(tmp_path / "rec.csv")
        assert np.array_equal(back.samples, rec.samples)
        assert np.array_equal(back.gate, rec.gate)
        _assert_reads_like_the_oracle(tmp_path / "rec.csv")


def test_gated_off_record_far_from_zero_writes_the_oracle_bytes(tmp_path):
    samples = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.5])
    gate = np.array([True, False, False, False, True, True])
    rec = MeasurementRecord(123.456, 3e-9, samples, gate)
    data = _written_bytes(tmp_path, rec)
    assert data == _oracle_bytes(tmp_path, rec)
    assert data.startswith(b"t_s,y,gate\r\n123.456,-0,1\r\n123.456000003,nan,0\r\n")
    _assert_reads_like_the_oracle(tmp_path / "rec.csv")


_TOKENS = ["0", "1", "7", "1.0", "true", "", "nan", "inf", "-inf", "abc", "2.5e-7", "-0"]


@st.composite
def corrupted_csv_lines(draw):
    """The lines of a written record CSV after one to three random faults."""
    rec = draw(csv_records(min_size=1, max_size=8))
    lines = [
        "t_s,y,gate",
        *(
            "%r,%r,%d" % row
            for row in zip(rec.times.tolist(), rec.samples.tolist(), rec.gate.tolist())
        ),
    ]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        kind = draw(st.sampled_from(["fields", "field", "shift", "blank", "drop"]))
        if kind == "fields":
            lines[i] = ",".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=5)))
        elif kind == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = ",".join(fields)
        elif kind == "shift" and i > 0:
            delta = draw(st.floats(-3.0, 3.0) | st.sampled_from([1e-5, -1e-5, 0.5]))
            fields[0] = repr(rec.t0 + (i - 1 + delta) * rec.dt)
            lines[i] = ",".join(fields)
        elif kind == "blank":
            lines.insert(i, "")
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
    return lines


@_ORACLE
@given(lines=corrupted_csv_lines(), newline=st.sampled_from(["\r\n", "\n"]))
def test_csv_reader_faults_match_the_row_at_a_time_oracle(tmp_path, lines, newline):
    path = tmp_path / "bad.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    _assert_reads_like_the_oracle(path)


def _is_utf8(data):
    try:
        data.decode()
    except UnicodeDecodeError:
        return False
    return True


_EDIT_BYTES = [*(bytes([c]) for c in b',\r\n"\0 1.e-a\x0b\x1c'), "\x85\u2028".encode()]


@_ORACLE
@given(
    rec=csv_records(1, 5),
    edits=st.lists(
        st.tuples(
            st.integers(0, 1 << 16),
            st.sampled_from(["replace", "insert", "delete"]),
            st.sampled_from(_EDIT_BYTES),
        ),
        min_size=1,
        max_size=6,
    ),
    cut=st.none() | st.integers(0, 1 << 16),
)
def test_byte_edits_of_a_written_file_read_like_the_oracle(tmp_path, rec, edits, cut):
    """Separator, quote, NUL and line-break bytes put into, or taken out
    of, a written file anywhere, and the file maybe cut off after."""
    data = bytearray(_written_bytes(tmp_path, rec))
    for at, kind, byte in edits:
        at %= len(data) + 1
        data[at:at + (kind != "insert")] = b"" if kind == "delete" else byte
    if cut is not None:
        del data[cut % (len(data) + 1):]
    # the oracle leaves undecodable bytes to the codec's own error
    assume(_is_utf8(data))
    path = tmp_path / "edited.csv"
    path.write_bytes(data)
    _assert_reads_like_the_oracle(path)


_SPLIT_BY_CSV_READER = {
    "quoted-cell": b't_s,y,gate\r\n0,"1.5",1\r\n1e-7,2.0,1\r\n',
    "bare-lf": b"t_s,y,gate\n0,1.5,1\n1e-7,2.0,1\n",
    "bare-cr-in-row": b"t_s,y,gate\r\n0,1.5\r,1\r\n1e-7,2.0,1\r\n",
    "blank-line-mid-file": b"t_s,y,gate\r\n0,1.5,1\r\n\r\n1e-7,2.0,1\r\n",
    "trailing-blank-line": b"t_s,y,gate\r\n0,1.5,1\r\n1e-7,2.0,1\r\n\r\n",
    "no-final-line-break": b"t_s,y,gate\r\n0,1.5,1\r\n1e-7,2.0,1",
    "bom": "\ufefft_s,y,gate\r\n0,1.5,1\r\n1e-7,2.0,1\r\n".encode(),
    "nul-in-cell": b"t_s,y,gate\r\n0,1.5\x00,1\r\n1e-7,2.0,1\r\n",
    # 2n commas over n rows, so a whole-file count would call it plain
    "four-then-two-fields": b"t_s,y,gate\r\n0,1.5,1,9\r\n1e-7,2.0\r\n",
    "cell-past-field-size-limit": b"t_s,y,gate\r\n0,1.5,1\r\n1e-7," + b"2" * 131073 + b",0\r\n",
    # text after the last row end, with no separator the byte check sees
    "truncated-first-cell": b"t_s,y,gate\r\n0,1.5,1\r\n1e-",
    "header-then-fragment": b"t_s,y,gate\r\nabc",
    "fragment-past-field-size-limit": b"t_s,y,gate\r\n0,1.5,1\r\n" + b"2" * 131073,
    # a "\r" and "\n" in the right order, but not next to each other
    "cr-apart-from-lf": b"t_s,y,gate\r\n0,1.5,1\r5\n1e-7,2.0,1\r\n",
}
_SPLIT_BY_STR_SPLIT = {
    "one-row": b"t_s,y,gate\r\n0,1.5,1\r\n",
    "header-only": b"t_s,y,gate\r\n",
    "two-rows": b"t_s,y,gate\r\n0,1.5,1\r\n1e-7,2.0,0\r\n",
    "faults-in-plain-rows": b"t_s,y,gate\r\n0,1.5,1\r\n1e-7,abc,7\r\n2e-7,,\r\n",
    "non-ascii-cell": "t_s,y,gate\r\n0,1.5\u00b5,1\r\n1e-7,2.0,1\r\n".encode(),
}


@pytest.mark.parametrize(
    "data, plain",
    [(data, False) for data in _SPLIT_BY_CSV_READER.values()]
    + [(data, True) for data in _SPLIT_BY_STR_SPLIT.values()],
    ids=[*_SPLIT_BY_CSV_READER, *_SPLIT_BY_STR_SPLIT],
)
def test_only_plain_files_skip_the_csv_reader_and_every_file_reads_like_the_oracle(
    tmp_path, monkeypatch, data, plain
):
    """A plain file (the exact header, rows of exactly two commas each
    ended by CRLF, the last row too, no other CR or LF, no quote, no NUL, no cell past the
    csv field size limit) is split with str.split; any other file goes
    to csv.reader. Both read like the oracle."""
    path = tmp_path / "rec.csv"
    path.write_bytes(data)
    _assert_reads_like_the_oracle(path)
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a: calls.append(a) or reader(*a))
    with contextlib.suppress(Exception):
        read_record_csv(path)
    assert len(calls) == (0 if plain else 1)


@pytest.mark.parametrize("data", [b"t_s,y,gate\r\n", b"t_s,y,gate\r\n0,1.5,1\r\n"])
def test_a_field_size_limit_below_the_header_cells_reads_like_the_oracle(tmp_path, data):
    """The field size limit binds the header cells too: below their
    length the file goes to csv.reader, which refuses it as the oracle
    does."""
    path = tmp_path / "rec.csv"
    path.write_bytes(data)
    old = csv.field_size_limit(3)
    try:
        _assert_reads_like_the_oracle(path)
    finally:
        csv.field_size_limit(old)


@_PROPERTY
@given(rec=csv_records())
def test_every_written_file_is_split_without_the_csv_reader(tmp_path, monkeypatch, rec):
    path = tmp_path / "rec.csv"
    write_record_csv(rec, path)

    def refuse(*args):
        raise AssertionError("csv.reader was called on a written file")

    monkeypatch.setattr(csv, "reader", refuse)
    with contextlib.suppress(ValueError):
        read_record_csv(path)
