"""Continuous measurement records and their on-disk formats.

A homodyne position record is a regularly sampled time series

    y_k = sqrt(meas_rate) * Q(t_k) + xi_k / sqrt(dt)

where ``xi_k`` are independent standard normals (the Ito increment
``dW_k / dt`` of a Wiener process).  Samples taken while detection is
gated off carry no information; they are flagged through a boolean
``gate`` mask and stored as NaN rather than silently zero-filled.

Two serializations are provided: a CSV form with columns
``t_s, y, gate`` for inspection, and a compact little-endian binary
form (magic ``LKR1``) for large ensembles.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"LKR1"
_HEADER = struct.Struct("<Qdd")
_HEADER_END = len(MAGIC) + _HEADER.size

_CSV_HEADER = ["t_s", "y", "gate"]
_CSV_HEAD = ",".join(_CSV_HEADER) + "\r\n"
# The separator bytes of one plain CSV row, in order.
_PLAIN_ROW = np.frombuffer(b",,\r\n", np.uint8)
# Turns a plain file's "\r\n" row ends into commas.
_ROW_ENDS_TO_COMMAS = str.maketrans("\r", ",", "\n")


@dataclass(frozen=True)
class MeasurementRecord:
    """A uniformly sampled detector record.

    Parameters
    ----------
    t0 : float
        Time of the first sample in seconds.
    dt : float
        Sample spacing in seconds, strictly positive.
    samples : ndarray
        Record values ``y_k``. Gated-off entries hold NaN.
    gate : ndarray of bool
        True where detection was on for the sample.

    The last sample time t0 + (n - 1) dt must be finite, so that every
    timestamp is.
    """

    t0: float
    dt: float
    samples: np.ndarray = field(repr=False)
    gate: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        gate = np.asarray(self.gate, dtype=bool)
        if samples.ndim != 1 or gate.shape != samples.shape:
            raise ValueError("samples and gate must be 1-d arrays of equal length")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        t_last = float(self.t0) + float(self.dt) * max(samples.size - 1, 0)
        if not np.isfinite(t_last):
            raise ValueError(f"last sample time t0 + (n - 1) dt = {t_last} s must be finite")
        if samples.size and not np.all(np.isfinite(samples[gate])):
            raise ValueError("gated-on samples must be finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "gate", gate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Span covered by the record, ``n * dt`` seconds."""
        return self.samples.size * self.dt

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps ``t0 + k * dt``."""
        return self.t0 + self.dt * np.arange(self.samples.size)


def write_record_csv(record: MeasurementRecord, path) -> None:
    """Write a record as CSV with mandatory header ``t_s, y, gate``.

    Times and samples are written with ``%.17g``, the gate as 0 or 1,
    each row ended by ``\\r\\n`` as :mod:`csv` writes it.  An empty
    record writes the header alone, which :func:`read_record_csv`
    refuses.
    """
    n = len(record)
    values = [0] * (3 * n)
    values[0::3] = record.times.tolist()
    values[1::3] = record.samples.tolist()
    values[2::3] = record.gate.tolist()
    text = _CSV_HEAD + ("%.17g,%.17g,%d\r\n" * n) % tuple(values)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _row_ok(row: list[str]) -> bool:
    """One row's check, used only to find the line of a fault."""
    try:
        t, y, g = row
        t, y = float(t), float(y)
    except ValueError:
        return False
    return g == "0" or (g == "1" and np.isfinite(y))


def _plain_cells(data: bytes, text: str) -> list[str] | None:
    """Every cell of a plain record CSV in file order, or None for any
    other file.

    A plain file is the exact header line and then rows of exactly two
    commas, each ended by ``\\r\\n`` (the last row too), with no other
    ``\\r`` or ``\\n``, no ``"``, no NUL (which :mod:`csv` refuses before
    Python 3.11) and no cell, header cells included, longer than
    :func:`csv.field_size_limit`.  :func:`csv.reader` splits such a file
    at its commas and line ends and skips no line, so ``str.split``
    gives the same cells.
    """
    if not text.startswith(_CSV_HEAD):
        return None
    # These bytes are ASCII, which no byte of a multi-byte UTF-8
    # character matches, so the file's bytes hold the text's in order.
    body = np.frombuffer(data, np.uint8)[len(_CSV_HEAD):]
    is_sep = body == ord(",")
    for byte in b'\r\n"\0':
        is_sep |= body == byte
    seps = body[is_sep]
    if seps.size % 4 or not (seps.reshape(-1, 4) == _PLAIN_ROW).all():
        return None
    # each "\r" above must also sit right before its "\n"
    if data.count(b"\r\n", len(_CSV_HEAD)) != seps.size // 4:
        return None
    cells = text[len(_CSV_HEAD):].translate(_ROW_ENDS_TO_COMMAS).split(",")
    # text after the last row end holds no separator the check above sees
    if cells.pop():
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, _CSV_HEADER + cells)) > limit:
        return None
    return cells


def _csv_rows(text: str) -> tuple[tuple[int, ...], tuple[list[str], ...]]:
    """The line number and fields of each non-blank row after the header,
    as :func:`csv.reader` splits them."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER}, got {header}")
    rows = [(reader.line_num, row) for row in reader if row]
    return tuple(zip(*rows)) if rows else ((), ())


def read_record_csv(path) -> MeasurementRecord:
    """Read a record written by :func:`write_record_csv`.

    The file must be UTF-8; an undecodable byte raises ``ValueError``
    naming its byte offset.  The sample spacing is recovered from the
    first two timestamps; a single-sample record gets a placeholder
    spacing of 1 s.  A row that is not three numbers with a gate of 0
    or 1, or whose gated-on sample is not finite, raises ``ValueError``
    naming its line.  So does a non-finite first t_s (t0), a second t_s
    that leaves dt not positive and finite, a grid whose last time
    t0 + (n - 1) dt is not finite, and the first row k whose
    t_s is off t0 + k dt by more than 1e-6 dt plus (k + 2) ulp of the
    grid's largest time: rounding the timestamps alone moves them that
    far.  A file with no rows after the header, as an empty record
    writes, raises "record CSV has no samples".

    Every file :func:`write_record_csv` writes is plain, as
    :func:`_plain_cells` defines it, and is split with ``str.split``;
    any other file goes to :func:`csv.reader`.  Both give the same
    record or the same error.

    CSV is for inspection; :func:`write_record_binary` (LKR1) is the
    exact replay form.  Far from t = 0 the rounded timestamps move the
    recovered dt: at t0 = 123.456 s and dt = 3 ns it is 1.1e-6 relative
    off.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8"
        ) from None
    cells = _plain_cells(data, text)
    if cells is None:
        lines, rows = _csv_rows(text)
        if set(map(len, rows)) == {3}:
            cells = [cell for row in rows for cell in row]
    else:
        lines, rows = range(2, len(cells) // 3 + 2), None
    n = len(lines)
    if not n:
        raise ValueError("record CSV has no samples")
    try:
        if cells is None:
            raise ValueError
        t, y, g = cells[0::3], cells[1::3], cells[2::3]
        times = np.fromiter(map(float, t), float, n)
        samples = np.fromiter(map(float, y), float, n)
        if not set(g) <= {"0", "1"}:
            raise ValueError
        # every gate is now the one character 0 or 1
        gate = np.frombuffer("".join(g).encode(), np.uint8) == ord("1")
        if not np.isfinite(samples[gate]).all():
            raise ValueError
    except ValueError:
        if rows is None:
            rows = [cells[i:i + 3] for i in range(0, 3 * n, 3)]
        k = next(k for k, row in enumerate(rows) if not _row_ok(row))
        raise ValueError(
            f"line {lines[k]}: expected t_s,y,gate numbers with gate 0 or 1 and a finite "
            f"gated-on y, got {rows[k]}"
        ) from None
    t0 = float(times[0])
    if not np.isfinite(t0):
        raise ValueError(f"line {lines[0]}: t0 {t0!r} must be finite, got {cells[:3]}")
    dt = float(times[1] - times[0]) if n > 1 else 1.0
    if not (0.0 < dt < np.inf):
        raise ValueError(
            f"line {lines[1]}: dt {dt!r} from the first two t_s must be positive and finite, "
            f"got {cells[3:6]}"
        )
    if not np.isfinite(t0 + (n - 1) * dt):
        raise ValueError(
            f"line {lines[-1]}: the grid t0 + k dt with t0 = {t0!r}, dt = {dt!r} leaves "
            f"the float range at k = {n - 1}"
        )
    k = np.arange(n)
    grid = t0 + k * dt
    slack = 1e-6 * dt + (k + 2) * np.spacing(max(abs(grid[0]), abs(grid[-1])))
    off = np.flatnonzero(~(np.abs(times - grid) <= slack))
    if off.size:
        j = int(off[0])
        raise ValueError(
            f"line {lines[j]}: t_s is off the uniform grid t0 + k dt with t0 = "
            f"{t0!r}, dt = {dt!r}, k = {j}, got {cells[3 * j:3 * j + 3]}"
        )
    return MeasurementRecord(t0=t0, dt=dt, samples=samples, gate=gate)


def write_record_binary(record: MeasurementRecord, path) -> None:
    """Write the little-endian binary form.

    Layout: magic ``LKR1``, u64 sample count, f64 t0, f64 dt,
    f64 samples, u8 gate flags.
    """
    n = len(record)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(n, record.t0, record.dt))
        fh.write(record.samples.astype("<f8").tobytes())
        fh.write(record.gate.astype(np.uint8).tobytes())


def read_record_binary(path) -> MeasurementRecord:
    """Read a record written by :func:`write_record_binary`.

    A file of n samples must hold exactly 28 + 9 n bytes, t0 (offset
    12) must be finite, dt (offset 20) positive and finite with
    t0 + (n - 1) dt finite, every gate
    byte 0 or 1, and every gated-on sample k (offset 28 + 8 k) finite.
    Any other file raises ``ValueError`` naming the byte offset of the
    fault.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        if size < _HEADER_END:
            raise ValueError(
                f"truncated record file: header ends at offset {_HEADER_END}, "
                f"file has {size} bytes"
            )
        n, t0, dt = _HEADER.unpack(fh.read(_HEADER.size))
        expected = _HEADER_END + 9 * n
        if size != expected:
            kind = "truncated" if size < expected else "trailing bytes in"
            raise ValueError(
                f"{kind} record file: sample count {n} at offset {len(MAGIC)} needs "
                f"{expected} bytes, file has {size}"
            )
        samples = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(float)
        flags = np.frombuffer(fh.read(n), dtype=np.uint8)
    if not np.isfinite(t0):
        raise ValueError(f"t0 {t0!r} at offset 12 must be finite")
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt {dt!r} at offset 20 must be positive and finite")
    if not np.isfinite(t0 + dt * max(n - 1, 0)):
        raise ValueError(
            f"dt {dt!r} at offset 20 puts the last sample time t0 + (n - 1) dt past the float range"
        )
    bad = np.flatnonzero(flags > 1)
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"gate byte {flags[k]} at offset {_HEADER_END + 8 * n + k}, expected 0 or 1"
        )
    gate = flags.astype(bool)
    bad = np.flatnonzero(gate & ~np.isfinite(samples))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"gated-on sample {k} is {samples[k]} at offset {_HEADER_END + 8 * k}")
    return MeasurementRecord(t0=t0, dt=dt, samples=samples, gate=gate)
