"""Station position series: ingestion, validation, gaps, amplitudes and output.

The internal time axis is the Modified Julian Date (MJD) in days. Files
indexed by decimal year are converted on ingest with a fixed 365.25-day
year anchored at MJD 51544.5 = 2000.0, so kernel distances are always in
days regardless of the source format.

A station is one epoch axis and one ``(3, n)`` array of X, Y and Z
values, checked once when it is built; :class:`ComponentSeries` is a
labeled view of one row. A parsed file's epochs and values live in one
``(4, n)`` array. All containers are immutable after construction (their
arrays are read-only, copied first when a caller could still write them)
and safe to share across workers.

A station file is read in one bulk :func:`np.loadtxt` pass when its
header is line 1 and every later line is a row of four finite numbers.
A comment or blank line, a quote, a field loadtxt cannot convert, a
wrong column count, a non-finite value or an epoch that is not a
positive MJD sends the file to a line-by-line loop, which reads it or
raises the :class:`ParseError` of the line at fault. Both paths accept
the same text and give the same bits.

Every file the package writes is one string handed to :func:`write_text`
(end of this module); :func:`csv_text` beside it holds the one CSV dialect.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import DataError, ParseError

#: Days per year used for the decimal-year <-> MJD conversion.
DAYS_PER_YEAR = 365.25
#: MJD of 2000.0 in the decimal-year convention used by ingest.
MJD_AT_2000 = 51544.5

#: Expected CSV headers; the first column name selects the time format.
_HEADER_MJD = ("epoch_mjd", "x_m", "y_m", "z_m")
_HEADER_YEAR = ("epoch_year", "x_m", "y_m", "z_m")


class Component(str, Enum):
    """Coordinate component label."""

    X = "X"
    Y = "Y"
    Z = "Z"


class SeriesState(str, Enum):
    """Whether a series has holes in its epoch axis."""

    CONTINUOUS = "continuous"
    DISCONTINUOUS = "discontinuous"


def decimal_year_to_mjd(year: float) -> float:
    """Convert decimal years to MJD days (365.25-day years), elementwise on arrays."""
    return MJD_AT_2000 + (year - 2000.0) * DAYS_PER_YEAR


def mjd_to_decimal_year(mjd: float) -> float:
    """Convert MJD days to a decimal year (365.25-day years)."""
    return 2000.0 + (mjd - MJD_AT_2000) / DAYS_PER_YEAR


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _owned(checked: np.ndarray, given: object) -> np.ndarray:
    """``checked``, the array made from ``given``, as a read-only array no
    caller can write: a copy when it is the caller's own writeable memory,
    which is left writeable."""
    if (checked.flags.writeable and isinstance(given, np.ndarray)
            and np.shares_memory(checked, given)):
        checked = checked.copy()
    return _readonly(checked)


def _check_epochs(epochs: np.ndarray) -> None:
    if epochs.ndim != 1:
        raise DataError("epochs must be one-dimensional")
    if not np.all(np.isfinite(epochs)):
        raise DataError("epochs must be finite")
    if epochs.size and epochs[0] <= 0:
        raise DataError("MJD epochs must be positive")
    if epochs.size > 1 and not np.all(np.diff(epochs) > 0):
        raise DataError("epochs must be strictly increasing")


@dataclass(frozen=True)
class ComponentSeries:
    """One row of a station's values, labeled: a view that shares memory
    with :attr:`StationSeries.values_m` and is checked there.

    Attributes:
        component: which coordinate this is (X, Y or Z).
        values_m: coordinate value at each of the station's epochs, meters.
    """

    component: Component
    values_m: np.ndarray


@dataclass(frozen=True)
class StationSeries:
    """Position series of one permanent station on one epoch axis.

    Attributes:
        station_id: the station's name.
        epochs_mjd: epoch of each sample, MJD days, strictly increasing;
            missing days are absent epochs, never sentinel values.
        values_m: a read-only, C-contiguous ``(3, n)`` array whose rows
            are X, Y and Z in meters, as read: every method forecasts and
            scores the raw positions.
    """

    station_id: str
    epochs_mjd: np.ndarray
    values_m: np.ndarray

    def __post_init__(self) -> None:
        epochs = np.asarray(self.epochs_mjd, dtype=np.float64)
        _check_epochs(epochs)
        values = np.ascontiguousarray(self.values_m, dtype=np.float64)
        if values.shape != (3, epochs.size):
            raise DataError(f"values must have shape (3, {epochs.size}) to match the "
                            f"epochs, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("values must be finite")
        object.__setattr__(self, "epochs_mjd", _owned(epochs, self.epochs_mjd))
        object.__setattr__(self, "values_m", _owned(values, self.values_m))

    @property
    def components(self) -> tuple[ComponentSeries, ComponentSeries, ComponentSeries]:
        """The rows of ``values_m`` labeled X, Y and Z."""
        return tuple(ComponentSeries(c, row)  # type: ignore[return-value]
                     for c, row in zip(Component, self.values_m))

    @property
    def count(self) -> int:
        """Number of epochs (the total input count)."""
        return int(self.epochs_mjd.size)

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class GapSpan:
    """One hole in the epoch axis, bounded by the surrounding samples."""

    start_mjd: float
    end_mjd: float
    missing_count: int

    @property
    def span_days(self) -> float:
        return self.end_mjd - self.start_mjd


@dataclass(frozen=True)
class GapReport:
    """Gap structure of a station series; its state and largest gap
    (0.0 days when continuous) derive from ``gaps``."""

    gaps: tuple[GapSpan, ...]

    @property
    def state(self) -> SeriesState:
        return SeriesState.DISCONTINUOUS if self.gaps else SeriesState.CONTINUOUS

    @property
    def largest_gap_days(self) -> float:
        return max((g.span_days for g in self.gaps), default=0.0)


def detect_gaps(series: StationSeries, gap_factor: float = 1.5) -> GapReport:
    """Find holes in the epoch axis of ``series``.

    Series are daily, as 24-hour solutions are. A consecutive epoch pair
    is a gap when its spacing exceeds ``gap_factor`` days; the missing
    sample count is the rounded number of whole days skipped. The default
    factor of 1.5 flags one missing day while tolerating sub-day jitter.
    Only epochs matter; values are never consulted.
    """
    # NaN compares false with everything and +inf exceeds every spacing:
    # either would report any series as continuous
    if not (math.isfinite(gap_factor) and gap_factor >= 1):
        raise DataError(f"gap_factor must be a finite number >= 1, got {gap_factor!r}")
    epochs = series.epochs_mjd
    deltas = np.diff(epochs)
    holes = np.flatnonzero(deltas > gap_factor)
    gaps = tuple(
        GapSpan(
            start_mjd=float(epochs[i]),
            end_mjd=float(epochs[i + 1]),
            missing_count=int(round(deltas[i])) - 1,
        )
        for i in holes
    )
    return GapReport(gaps)


def amplitude(series: ComponentSeries) -> float:
    """Peak-to-peak amplitude of the component, meters (max - min)."""
    values = series.values_m
    if values.size < 1:
        raise DataError("amplitude needs at least one sample")
    return float(values.max() - values.min())


def _decode_lines(source: str | Path | IO[bytes] | IO[str]) -> tuple[str, list[str]]:
    """Return the source name and the UTF-8 text lines of a path or stream."""
    if isinstance(source, (str, Path)):
        name, read = Path(source).name, Path(source).read_bytes
    else:
        name, read = str(getattr(source, "name", "<stream>")), source.read
    try:
        raw = read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode, so their lines can be counted
        line = len((exc.object[:exc.start].decode("utf-8") + "_").splitlines())
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte offset {exc.start}",
                         source=name, line=line) from None
    return name, text.splitlines()


def _header_is_year_based(fields: list[str], name: str, lineno: int) -> bool:
    """Check the header row; True when epochs are decimal years."""
    fields = [f.strip() for f in fields]
    header = tuple(f.lower() for f in fields)
    if header == _HEADER_MJD:
        return False
    if header == _HEADER_YEAR:
        return True
    raise ParseError(
        f"unrecognized header {fields!r}; expected "
        f"{','.join(_HEADER_MJD)} or {','.join(_HEADER_YEAR)}",
        source=name, line=lineno,
    )


def _read_bulk(lines: list[str], name: str) -> np.ndarray | None:
    """The ``(n, 4)`` rows, epochs in MJD, that one loadtxt pass reads
    from a file whose header is line 1, or None to send it to the loop.

    loadtxt skips empty lines, which would shift the line numbers, and
    by default ends a line at its first ``#``; both are ruled out here.
    It converts fields with the routine ``float()`` is built on and
    refuses ``1_0`` and non-ASCII digits, which the loop reads.
    """
    header = lines[0].strip() if len(lines) > 1 else ""
    if not header or header[0] == "#" or '"' in header or "" in lines:
        return None
    year_based = _header_is_year_based(header.split(","), name, 1)
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if data.shape != (len(lines) - 1, 4) or not np.isfinite(data).all():
        return None
    if year_based:
        # the loop's conversion, which overflows silently there too
        with np.errstate(over="ignore"):
            data[:, 0] = decimal_year_to_mjd(data[:, 0])
    # a huge year maps to an infinite MJD, which the loop refuses by line
    if not ((data[:, 0] > 0) & (data[:, 0] < np.inf)).all():
        return None
    return data


def _read_lines(lines: list[str], name: str) -> tuple[np.ndarray, list[int]]:
    """The ``(n, 4)`` rows of a file read line by line, epochs in MJD, and
    the line number of each; a line it cannot read raises its
    :class:`ParseError`."""
    isfinite = math.isfinite
    year_based: bool | None = None  # None until the header is read
    rows: list[tuple[float, float, float, float]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text[0] == "#":
            continue
        fields = next(csv.reader((text,))) if '"' in text else text.split(",")
        if year_based is None:
            year_based = _header_is_year_based(fields, name, lineno)
            continue
        if len(fields) != 4:
            raise ParseError(
                f"expected 4 columns, found {len(fields)}", source=name, line=lineno
            )
        try:
            epoch, x, y, z = map(float, fields)
        except ValueError:
            # float() skips surrounding whitespace except "\x1f", which
            # str.strip() removes; retry stripped for the value or the message
            try:
                epoch, x, y, z = [float(f.strip()) for f in fields]
            except ValueError as exc:
                raise ParseError(str(exc), source=name, line=lineno) from None
        if not (isfinite(epoch) and isfinite(x) and isfinite(y) and isfinite(z)):
            raise ParseError("non-finite value", source=name, line=lineno)
        if year_based:
            epoch = decimal_year_to_mjd(epoch)
        if epoch <= 0:
            raise ParseError("epoch must map to a positive MJD", source=name, line=lineno)
        if not isfinite(epoch):
            raise ParseError("epoch must map to a finite MJD", source=name, line=lineno)
        rows.append((epoch, x, y, z))
        linenos.append(lineno)

    if year_based is None:
        raise ParseError("empty file", source=name)
    return np.array(rows, dtype=np.float64), linenos


def parse_series(
    source: str | Path | IO[bytes] | IO[str],
    *,
    station_id: str | None = None,
) -> StationSeries:
    """Parse one station file into a validated :class:`StationSeries`.

    The CSV schema is ``epoch_mjd,x_m,y_m,z_m`` (or ``epoch_year,...``,
    detected by the header's first column name). The source must be
    UTF-8. Blank lines and lines starting with ``#`` are skipped, and
    whitespace around a line or a field is ignored. A line that contains
    a double quote is read by the :mod:`csv` module (Excel dialect); any
    other line is split on commas, which reads it identically. Rows are
    sorted by epoch; exact duplicate epochs are rejected rather
    than averaged, since silently merging rows would corrupt any
    backtest run on the result.

    A file whose header is line 1 and every later line a row is read in
    one bulk :func:`np.loadtxt` pass. A file that pass refuses (a comment
    or blank line, a quote, a field it cannot convert, a wrong column
    count, a non-finite value or an epoch that is not a positive MJD)
    is read again line by line, which either reads it or raises the
    error below with its line. Both paths accept the same text and give
    the same bits.

    Raises:
        ParseError: input that is not UTF-8, a malformed header or row,
            a duplicate epoch (these report the 1-based line number, as
            counted by :meth:`str.splitlines`; a duplicate names the
            later line and the earlier one), or fewer than 3 data rows.
    """
    name, lines = _decode_lines(source)
    if station_id is None:
        station_id = Path(name).stem or "station"

    data = _read_bulk(lines, name)
    if data is None:
        data, linenos = _read_lines(lines, name)
    else:
        # no line is skipped on the bulk path: row j is on line 2 + j
        linenos = range(2, len(data) + 2)
    if len(data) < 3:
        raise ParseError(f"series too short: {len(data)} rows, need at least 3", source=name)

    # stable, so rows sharing an epoch keep their file order
    order = np.argsort(data[:, 0], kind="stable")
    # one (4, n) array: row 0 holds the epochs, rows 1-3 the station's values;
    # read-only before it is handed over, so the station makes no copy
    data = _readonly(np.ascontiguousarray(data[order].T))
    epochs = data[0]
    repeats = np.flatnonzero(np.diff(epochs) <= 0)
    if repeats.size:
        i = int(repeats[0])
        raise ParseError(
            f"duplicate epoch {float(epochs[i])!r} (also on line {linenos[order[i]]})",
            source=name, line=linenos[order[i + 1]],
        )

    return StationSeries(station_id, epochs, data[1:])


def write_text(dest: str | Path | IO[str], text: str) -> None:
    """Write the finished ``text`` to ``dest``. A path is opened only now, as
    UTF-8 with ``newline=""``, so a writer that fails while it builds its
    text leaves the path as it was; a stream is written to and left open."""
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8", newline="")
    else:
        dest.write(text)


def csv_text(header: Iterable[object], rows: Iterable[Iterable[object]]) -> str:
    """``header`` and ``rows`` as CSV with ``\\n`` line endings, the package's
    one dialect. A Python float, as ``tolist()`` gives it, is written in
    shortest round-trip form; a numpy scalar would be written as its repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_series_csv(series: StationSeries, dest: str | Path | IO[str]) -> None:
    """Write ``series`` in the canonical MJD CSV schema.

    Floats are written in shortest round-trip form, so parsing the output
    reproduces every epoch and every value bit for bit.
    """
    write_text(dest, csv_text(_HEADER_MJD,
                              zip(series.epochs_mjd.tolist(), *series.values_m.tolist())))
