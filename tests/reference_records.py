"""Row-at-a-time record CSV writer and reader, an oracle for the column form.

The writer hands each row to ``csv.writer`` with ``format(np.float64,
".17g")``; the reader converts and checks one row at a time, in file
order, so the first faulty row is the one it names.  The column form in
:mod:`levamp.records` must write the same bytes and give the same
record or the same error, except for the two faults it names by line
that this reader leaves to ``MeasurementRecord``: a non-finite t0 and a
dt that is not positive and finite.
"""

import csv

import numpy as np

from levamp.records import MeasurementRecord

_CSV_HEADER = ["t_s", "y", "gate"]


def write_record_csv(record, path):
    times = record.times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for k in range(len(record)):
            writer.writerow(
                [
                    format(times[k], ".17g"),
                    format(record.samples[k], ".17g"),
                    int(record.gate[k]),
                ]
            )


def read_record_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"expected header {_CSV_HEADER}, got {header}")
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError("record CSV has no samples")
    times, samples = np.empty((2, len(rows)))
    gate = np.empty(len(rows), dtype=bool)
    for k, (line, row) in enumerate(rows):
        try:
            t, y, g = row
            times[k], samples[k], gate[k] = float(t), float(y), g == "1"
            if g not in ("0", "1") or (gate[k] and not np.isfinite(samples[k])):
                raise ValueError
        except ValueError:
            raise ValueError(
                f"line {line}: expected t_s,y,gate numbers with gate 0 or 1 and a finite "
                f"gated-on y, got {row}"
            ) from None
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    if 0.0 < dt < np.inf:
        k = np.arange(len(times))
        grid = times[0] + k * dt
        slack = 1e-6 * dt + (k + 2) * np.spacing(max(abs(grid[0]), abs(grid[-1])))
        off = np.flatnonzero(~(np.abs(times - grid) <= slack))
        if off.size:
            line, row = rows[off[0]]
            raise ValueError(
                f"line {line}: t_s is off the uniform grid t0 + k dt with t0 = "
                f"{float(times[0])!r}, dt = {dt!r}, k = {off[0]}, got {row}"
            )
    return MeasurementRecord(t0=float(times[0]), dt=dt, samples=samples, gate=gate)
