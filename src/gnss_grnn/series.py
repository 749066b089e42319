"""Station position series: ingestion, validation, gaps, and amplitudes.

The internal time axis is the Modified Julian Date (MJD) in days. Files
indexed by decimal year are converted on ingest with a fixed 365.25-day
year anchored at MJD 51544.5 = 2000.0, so kernel distances are always in
days regardless of the source format.

All containers are immutable after construction (their arrays are marked
read-only) and safe to share across workers.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO, Iterator

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
    """Convert a decimal year to MJD days (365.25-day years)."""
    return MJD_AT_2000 + (year - 2000.0) * DAYS_PER_YEAR


def mjd_to_decimal_year(mjd: float) -> float:
    """Convert MJD days to a decimal year (365.25-day years)."""
    return 2000.0 + (mjd - MJD_AT_2000) / DAYS_PER_YEAR


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    """One coordinate component sampled on a strictly increasing epoch axis.

    Attributes:
        component: which coordinate this is (X, Y or Z).
        epochs_mjd: epoch of each sample, MJD days.
        values_m: coordinate value of each sample less ``offset_m``, meters.
        offset_m: amount subtracted from the raw values, meters: the mean
            that :func:`mean_center` removed, else 0. Backtests add it
            back to predictions and truths before scoring or printing,
            so criteria are always those of the raw positions.
    """

    component: Component
    epochs_mjd: np.ndarray
    values_m: np.ndarray
    offset_m: float = 0.0

    def __post_init__(self) -> None:
        epochs = np.asarray(self.epochs_mjd, dtype=np.float64)
        values = np.asarray(self.values_m, dtype=np.float64)
        if epochs.shape != values.shape:
            raise DataError("epochs and values must have the same length")
        _check_epochs(epochs)
        if not np.all(np.isfinite(values)):
            raise DataError("values must be finite")
        offset = float(self.offset_m)
        if not math.isfinite(offset):
            raise DataError("offset must be finite")
        object.__setattr__(self, "component", Component(self.component))
        object.__setattr__(self, "epochs_mjd", _readonly(epochs))
        object.__setattr__(self, "values_m", _readonly(values))
        object.__setattr__(self, "offset_m", offset)

    @property
    def count(self) -> int:
        """Number of samples (the total input count)."""
        return int(self.epochs_mjd.size)

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class StationSeries:
    """Three-component position series of one permanent station.

    The X, Y and Z components share a single epoch axis; missing days are
    absent rows, never sentinel values.
    """

    station_id: str
    components: tuple[ComponentSeries, ComponentSeries, ComponentSeries]
    country: str | None = None
    nominal_interval_days: float = 1.0

    def __post_init__(self) -> None:
        if len(self.components) != 3:
            raise DataError("a station series needs exactly three components")
        labels = tuple(c.component for c in self.components)
        if labels != (Component.X, Component.Y, Component.Z):
            raise DataError("components must be ordered X, Y, Z")
        axis = self.components[0].epochs_mjd
        for c in self.components[1:]:
            if not np.array_equal(c.epochs_mjd, axis):
                raise DataError("components must share one epoch axis")
        if not self.nominal_interval_days > 0:
            raise DataError("nominal_interval_days must be positive")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def epochs_mjd(self) -> np.ndarray:
        """The shared epoch axis, MJD days."""
        return self.components[0].epochs_mjd

    @property
    def count(self) -> int:
        return self.components[0].count

    def component(self, which: Component | str) -> ComponentSeries:
        """Return one component by label."""
        which = Component(which)
        for c in self.components:
            if c.component is which:
                return c
        raise KeyError(which)

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

    A consecutive epoch pair is a gap when its spacing exceeds
    ``gap_factor * nominal_interval_days``; the missing sample count is the
    rounded number of whole nominal intervals skipped. The default factor
    of 1.5 flags one missing day in a daily series while tolerating
    sub-day jitter. Only epochs matter; values are never consulted.
    """
    # NaN compares false with everything and +inf exceeds every spacing:
    # either would report any series as continuous
    if not (math.isfinite(gap_factor) and gap_factor >= 1):
        raise DataError(f"gap_factor must be a finite number >= 1, got {gap_factor!r}")
    epochs = series.epochs_mjd
    interval = series.nominal_interval_days
    deltas = np.diff(epochs)
    holes = np.flatnonzero(deltas > gap_factor * interval)
    gaps = tuple(
        GapSpan(
            start_mjd=float(epochs[i]),
            end_mjd=float(epochs[i + 1]),
            missing_count=int(round(deltas[i] / interval)) - 1,
        )
        for i in holes
    )
    return GapReport(gaps)


def amplitude(series: ComponentSeries) -> float:
    """Peak-to-peak amplitude of the component, meters (max - min)."""
    if series.count < 1:
        raise DataError("amplitude needs at least one sample")
    values = series.values_m
    return float(values.max() - values.min())


def mean_center(series: StationSeries) -> StationSeries:
    """Mean-center every component.

    Each centered component carries the mean it lost in ``offset_m``, so
    predictions made from it are shifted back to raw units before they
    are scored or printed.
    """
    means = [float(c.values_m.mean()) for c in series.components]
    return replace(series, components=tuple(
        ComponentSeries(c.component, c.epochs_mjd, c.values_m - m, c.offset_m + m)
        for c, m in zip(series.components, means)
    ))


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


def parse_series(
    source: str | Path | IO[bytes] | IO[str],
    *,
    station_id: str | None = None,
    country: str | None = None,
    nominal_interval_days: float = 1.0,
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

    Raises:
        ParseError: input that is not UTF-8, a malformed header or row,
            a duplicate epoch (these report the 1-based line number, as
            counted by :meth:`str.splitlines`; a duplicate names the
            later line and the earlier one), or fewer than 3 data rows.
    """
    name, lines = _decode_lines(source)
    if station_id is None:
        station_id = Path(name).stem or "station"

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
        rows.append((epoch, x, y, z))
        linenos.append(lineno)

    if year_based is None:
        raise ParseError("empty file", source=name)
    if len(rows) < 3:
        raise ParseError(f"series too short: {len(rows)} rows, need at least 3", source=name)

    data = np.array(rows, dtype=np.float64)
    # stable, so rows sharing an epoch keep their file order
    order = np.argsort(data[:, 0], kind="stable")
    data = data[order]
    epochs = data[:, 0]
    repeats = np.flatnonzero(np.diff(epochs) <= 0)
    if repeats.size:
        i = int(repeats[0])
        raise ParseError(
            f"duplicate epoch {float(epochs[i])!r} (also on line {linenos[order[i]]})",
            source=name, line=linenos[order[i + 1]],
        )

    components = tuple(
        ComponentSeries(comp, epochs, data[:, i + 1])
        for i, comp in enumerate((Component.X, Component.Y, Component.Z))
    )
    return StationSeries(
        station_id=station_id,
        components=components,  # type: ignore[arg-type]
        country=country,
        nominal_interval_days=nominal_interval_days,
    )


@contextmanager
def open_text(dest: str | Path | IO[str]) -> Iterator[IO[str]]:
    """Yield a text stream to write ``dest``.

    A path is opened as UTF-8 with ``newline=""`` (writers choose their
    own line endings) and closed on exit; a stream is used as is and
    left open for its owner.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield dest


def write_series_csv(series: StationSeries, dest: str | Path | IO[str]) -> None:
    """Write ``series`` in the canonical MJD CSV schema, as raw positions.

    A component's ``offset_m`` is added back, so a mean-centered series
    reads back as the raw station, up to the rounding of that addition.
    Floats are written in shortest round-trip form, so parsing the output
    reproduces every epoch, and every value of an offset-0 component, bit
    for bit.
    """
    with open_text(dest) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_HEADER_MJD)
        # no addition at offset 0, which would turn -0.0 into 0.0
        x, y, z = (c.values_m + c.offset_m if c.offset_m else c.values_m
                   for c in series.components)
        for i, epoch in enumerate(series.epochs_mjd):
            writer.writerow([repr(float(epoch)), repr(float(x[i])),
                             repr(float(y[i])), repr(float(z[i]))])
