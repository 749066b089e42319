"""Ingestion, gap detection, anomalies and amplitudes."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    Component,
    ComponentSeries,
    DataError,
    ParseError,
    SeriesState,
    StationSeries,
    amplitude,
    compute_anomaly,
    decimal_year_to_mjd,
    detect_gaps,
    mean_center,
    parse_series,
    write_series_csv,
)


def make_station(epochs, x=None, y=None, z=None, **kwargs):
    epochs = np.asarray(epochs, dtype=float)
    default = np.zeros_like(epochs)
    comps = tuple(
        ComponentSeries(c, epochs, default if v is None else np.asarray(v, dtype=float))
        for c, v in ((Component.X, x), (Component.Y, y), (Component.Z, z))
    )
    return StationSeries(station_id="test", components=comps, **kwargs)


CSV_MIN = """epoch_mjd,x_m,y_m,z_m
55000,4075000.1,931000.2,4801000.3
55001,4075000.2,931000.3,4801000.4
55002,4075000.3,931000.4,4801000.5
"""


class TestParse:
    def test_minimal_file(self):
        s = parse_series(io.StringIO(CSV_MIN), station_id="abc")
        assert s.count == 3
        assert s.station_id == "abc"
        assert detect_gaps(s).state is SeriesState.CONTINUOUS
        np.testing.assert_array_equal(s.epochs_mjd, [55000.0, 55001.0, 55002.0])
        assert s.component("X").values_m[0] == 4075000.1

    def test_byte_stream(self):
        s = parse_series(io.BytesIO(CSV_MIN.encode()), station_id="abc")
        assert s.count == 3

    def test_text_in_numeric_column_names_line(self):
        bad = CSV_MIN.replace("4075000.2", "oops")
        with pytest.raises(ParseError, match="line 3"):
            parse_series(io.StringIO(bad))

    def test_wrong_column_count_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_series(io.StringIO("epoch_mjd,x_m,y_m,z_m\n55000,1,2\n"))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_series(io.StringIO("time,x,y,z\n1,2,3,4\n"))

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nepoch_mjd,x_m,y_m,z_m\n# another\n55000,1,2,3\n\n55001,1,2,3\n55002,1,2,3\n"
        assert parse_series(io.StringIO(text)).count == 3

    def test_too_short(self):
        with pytest.raises(ParseError, match="series too short"):
            parse_series(io.StringIO("epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n55001,1,2,3\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_series(io.StringIO(""))

    def test_duplicate_epoch_rejected(self):
        text = CSV_MIN + "55001,9,9,9\n"
        with pytest.raises(ParseError) as exc:
            parse_series(io.StringIO(text))
        assert exc.value.line == 5
        assert str(exc.value) == "<stream>: line 5: duplicate epoch 55001.0 (also on line 3)"

    def test_rows_sorted_by_epoch(self):
        text = "epoch_mjd,x_m,y_m,z_m\n55002,3,3,3\n55000,1,1,1\n55001,2,2,2\n"
        s = parse_series(io.StringIO(text))
        np.testing.assert_array_equal(s.component("X").values_m, [1.0, 2.0, 3.0])

    def test_nan_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_series(io.StringIO("epoch_mjd,x_m,y_m,z_m\n55000,nan,2,3\n55001,1,2,3\n55002,1,2,3\n"))

    def test_year_header_converts_to_mjd(self):
        text = "epoch_year,x_m,y_m,z_m\n2000.0,1,2,3\n2001.0,1,2,3\n2002.0,1,2,3\n"
        s = parse_series(io.StringIO(text))
        assert s.epochs_mjd[0] == 51544.5
        assert s.epochs_mjd[1] == 51544.5 + 365.25
        assert decimal_year_to_mjd(2000.0) == 51544.5

    def test_gapped_rows_parse_and_flag_later(self):
        text = "epoch_mjd,x_m,y_m,z_m\n55000,1.5,2.5,3.5\n55001,1.6,2.6,3.6\n55005,1.7,2.7,3.7\n"
        s = parse_series(io.StringIO(text))
        np.testing.assert_array_equal(s.epochs_mjd, [55000.0, 55001.0, 55005.0])
        np.testing.assert_array_equal(s.component("Z").values_m, [3.5, 3.6, 3.7])
        report = detect_gaps(s, 1.5)
        assert report.state is SeriesState.DISCONTINUOUS
        assert len(report.gaps) == 1
        assert report.gaps[0].missing_count == 3

    def test_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(5)
        epochs = 55000.0 + np.sort(rng.choice(10000, size=50, replace=False)) + rng.random(50)
        station = make_station(epochs, x=rng.normal(4e6, 1, 50),
                               y=rng.normal(9e5, 1, 50), z=rng.normal(4.8e6, 1, 50))
        buf = io.StringIO()
        write_series_csv(station, buf)
        again = parse_series(io.StringIO(buf.getvalue()), station_id=station.station_id)
        np.testing.assert_array_equal(again.epochs_mjd, station.epochs_mjd)
        for comp in ("X", "Y", "Z"):
            np.testing.assert_array_equal(
                again.component(comp).values_m, station.component(comp).values_m
            )


def reference_parse(source_text, name="<stream>"):
    """The per-line parser ``parse_series`` replaced, kept as its reference.

    Every line goes through its own ``csv.reader`` and every field is
    stripped before conversion. Returns the sorted ``(n, 4)`` array of
    MJD epochs and X/Y/Z values, or raises the ``ParseError`` that
    ``parse_series`` must raise for the same text.
    """
    header = None
    year_based = False
    rows = []
    for lineno, line in enumerate(source_text.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = next(csv.reader(io.StringIO(text)))
        fields = [f.strip() for f in fields]
        if header is None:
            header = tuple(f.lower() for f in fields)
            if header == ("epoch_mjd", "x_m", "y_m", "z_m"):
                year_based = False
            elif header == ("epoch_year", "x_m", "y_m", "z_m"):
                year_based = True
            else:
                raise ParseError(
                    f"unrecognized header {fields!r}; expected "
                    "epoch_mjd,x_m,y_m,z_m or epoch_year,x_m,y_m,z_m",
                    source=name, line=lineno,
                )
            continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 columns, found {len(fields)}",
                             source=name, line=lineno)
        try:
            numbers = tuple(float(f) for f in fields)
        except ValueError as exc:
            raise ParseError(str(exc), source=name, line=lineno) from None
        if not all(np.isfinite(numbers)):
            raise ParseError("non-finite value", source=name, line=lineno)
        epoch = decimal_year_to_mjd(numbers[0]) if year_based else numbers[0]
        if epoch <= 0:
            raise ParseError("epoch must map to a positive MJD", source=name, line=lineno)
        rows.append((epoch, numbers[1], numbers[2], numbers[3], lineno))
    if header is None:
        raise ParseError("empty file", source=name)
    if len(rows) < 3:
        raise ParseError(f"series too short: {len(rows)} rows, need at least 3", source=name)
    rows.sort(key=lambda r: r[0])
    for earlier, later in zip(rows, rows[1:]):
        if later[0] <= earlier[0]:
            raise ParseError(f"duplicate epoch {later[0]!r} (also on line {earlier[4]})",
                             source=name, line=later[4])
    return np.asarray([r[:4] for r in rows], dtype=np.float64)


def parse_outcome(parse, text):
    """``("ok", array)`` or ``("error", message, line)`` for one parse."""
    try:
        result = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    if isinstance(result, StationSeries):
        result = np.column_stack([result.epochs_mjd,
                                  *(c.values_m for c in result.components)])
    return ("ok", result)


def assert_same_as_reference(text):
    got = parse_outcome(lambda t: parse_series(io.StringIO(t)), text)
    want = parse_outcome(reference_parse, text)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1:] == want[1:]
    return got


_MJD_ROWS = "55002,3.25,-1.5,0.125\n55000,1.0,2.0,3.0\n55001,1.5,2.5,3.5\n"
_PARSE_CASES = {
    "mjd": "epoch_mjd,x_m,y_m,z_m\n" + _MJD_ROWS,
    "year": "epoch_year,x_m,y_m,z_m\n2009.4606,1,2,3\n2009.4634,1,2,3\n2009.4661,1,2,3\n",
    "comments_and_blanks": "# station ABCD\n\n  \nepoch_mjd,x_m,y_m,z_m\n# mid\n"
                           + _MJD_ROWS + "\n\n",
    "crlf": ("EPOCH_MJD,x_m,y_m,z_m\n" + _MJD_ROWS).replace("\n", "\r\n"),
    "bare_cr": ("epoch_mjd,x_m,y_m,z_m\n" + _MJD_ROWS).replace("\n", "\r"),
    "spaces_around_fields": " epoch_mjd , X_m ,y_m,\tz_m \n 55000 , 1 ,\t2,3 \n"
                            "55001,1 , 2,3\n55002,1,2, 3\n",
    "unit_separator_in_field": "epoch_mjd,x_m,y_m,z_m\n55000,1\x1f,2,3\n55001,1,2,3\n"
                               "55002,1,2,3\n",
    "quoted_fields": '"epoch_mjd","x_m",y_m,z_m\n"55000",1,"2",3\n55001,"1.5",2,3\n'
                     '55002,1,2,"3"\n',
    "quoted_comma_in_header": '"epoch_mjd,x_m",y_m,z_m\n55000,1,2,3\n',
    "unbalanced_quote": 'epoch_mjd,x_m,y_m,z_m\n55000,1,2,"3\n55001,1,2,3\n55002,1,2,3\n',
    "unbalanced_quote_hides_comma": 'epoch_mjd,x_m,y_m,z_m\n55000,1,"2,3\n',
    "unsorted_rows": "epoch_mjd,x_m,y_m,z_m\n55005,5,5,5\n55001,1,1,1\n55003,3,3,3\n"
                     "55002,2,2,2\n",
    "wrong_column_count": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n55001,1,2\n",
    "extra_trailing_comma": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,3,\n",
    "bad_float": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n\n55001, oops ,2,3\n",
    "empty_field": "epoch_mjd,x_m,y_m,z_m\n55000,1,,3\n",
    "nan": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n55001,nan,2,3\n55002,1,2,3\n",
    "inf": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,-inf\n55001,1,2,3\n55002,1,2,3\n",
    "overflow_to_inf": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n55001,1e999,2,3\n",
    "zero_epoch": "epoch_mjd,x_m,y_m,z_m\n0,1,2,3\n55001,1,2,3\n55002,1,2,3\n",
    "negative_year_epoch": "epoch_year,x_m,y_m,z_m\n1800,1,2,3\n",
    "duplicate_epoch": "epoch_mjd,x_m,y_m,z_m\n55001,1,2,3\n55000,1,2,3\n55001,4,5,6\n",
    "too_few_rows": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n# 55001,1,2,3\n55002,1,2,3\n",
    "empty_file": "",
    "comments_only": "# nothing\n\n",
    "bad_header": "time,x,y,z\n1,2,3,4\n",
    "header_only": "epoch_mjd,x_m,y_m,z_m\n",
}


class TestParseMatchesReference:
    @pytest.mark.parametrize("case", sorted(_PARSE_CASES))
    def test_case(self, case):
        assert_same_as_reference(_PARSE_CASES[case])

    def test_cases_cover_each_error(self):
        errors = {
            case: parse_outcome(reference_parse, text)
            for case, text in _PARSE_CASES.items()
        }
        messages = " ".join(e[1] for e in errors.values() if e[0] == "error")
        for fragment in ("expected 4 columns", "could not convert", "non-finite",
                         "positive MJD", "duplicate epoch", "too short", "empty file",
                         "unrecognized header"):
            assert fragment in messages
        assert errors["unsorted_rows"][0] == "ok"
        assert errors["unbalanced_quote"][0] == "ok"

    @given(st.lists(
        st.lists(st.sampled_from(["55000", "55001.5", " 55002 ", "2001.25", "-3", "0",
                                  "1e999", "nan", "x", "", '"7"', '"8', "\t9", "1\x1f",
                                  "#"]),
                 min_size=1, max_size=5),
        max_size=8,
    ), st.sampled_from(["epoch_mjd,x_m,y_m,z_m", "epoch_year,x_m,y_m,z_m", "t,x,y,z"]),
       st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_random_files(self, rows, header, newline):
        text = newline.join([header] + [",".join(fields) for fields in rows])
        assert_same_as_reference(text)


class TestDecoding:
    BAD = b"epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n5500\xff,1,2,3\n"

    def test_path_names_file_and_line(self, tmp_path):
        path = tmp_path / "ABCD.csv"
        path.write_bytes(self.BAD)
        with pytest.raises(ParseError) as exc:
            parse_series(path)
        assert exc.value.line == 3
        assert str(exc.value) == ("ABCD.csv: line 3: not UTF-8 text: "
                                  "invalid start byte at byte offset 38")

    def test_byte_stream(self):
        stream = io.BytesIO(self.BAD)
        stream.name = "stream.csv"
        with pytest.raises(ParseError, match="^stream.csv: line 3: not UTF-8"):
            parse_series(stream)

    def test_text_stream_over_bad_bytes(self):
        stream = io.TextIOWrapper(io.BytesIO(self.BAD), encoding="utf-8")
        with pytest.raises(ParseError, match="^<stream>: line 3: not UTF-8"):
            parse_series(stream)


class TestValidation:
    def test_non_monotonic_epochs(self):
        with pytest.raises(DataError):
            ComponentSeries(Component.X, [2.0, 1.0], [0.0, 0.0])

    def test_negative_mjd(self):
        with pytest.raises(DataError):
            ComponentSeries(Component.X, [-1.0, 2.0], [0.0, 0.0])

    def test_mismatched_axes(self):
        e = np.array([1.0, 2.0, 3.0])
        comps = (
            ComponentSeries(Component.X, e, np.zeros(3)),
            ComponentSeries(Component.Y, e + 1, np.zeros(3)),
            ComponentSeries(Component.Z, e, np.zeros(3)),
        )
        with pytest.raises(DataError, match="share one epoch axis"):
            StationSeries(station_id="s", components=comps)

    def test_arrays_read_only(self):
        s = make_station([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.epochs_mjd[0] = 9.0


class TestDetectGaps:
    def test_unbroken_daily(self):
        s = make_station(np.arange(55000.0, 55011.0))
        report = detect_gaps(s, 1.5)
        assert report.state is SeriesState.CONTINUOUS
        assert report.gaps == ()
        assert report.largest_gap_days == 0.0

    def test_single_hole(self):
        s = make_station([55000.0, 55001.0, 55005.0])
        report = detect_gaps(s, 1.5)
        assert report.state is SeriesState.DISCONTINUOUS
        (gap,) = report.gaps
        assert (gap.start_mjd, gap.end_mjd, gap.missing_count) == (55001.0, 55005.0, 3)
        assert report.largest_gap_days == 4.0

    def test_jitter_below_factor_is_continuous(self):
        s = make_station(55000.0 + 1.2 * np.arange(10.0))
        assert detect_gaps(s, 1.5).state is SeriesState.CONTINUOUS

    def test_independent_of_values_and_idempotent(self):
        epochs = [55000.0, 55001.0, 55004.0, 55005.0]
        a = detect_gaps(make_station(epochs))
        b = detect_gaps(make_station(epochs, x=[1e6, -3.0, 2.5, 9.9]))
        assert a == b
        assert detect_gaps(make_station(epochs)) == a

    def test_bad_factor(self):
        with pytest.raises(DataError):
            detect_gaps(make_station([1.0, 2.0, 3.0]), 0.5)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_names_the_value(self, factor):
        # NaN passes a plain `< 1` check and +inf hides every gap
        s = make_station([55000.0, 55001.0, 55005.0])
        with pytest.raises(DataError, match=f"^gap_factor must be a finite number >= 1, "
                                            f"got {factor!r}$"):
            detect_gaps(s, factor)

    def test_factor_one_is_accepted(self):
        s = make_station([55000.0, 55001.0, 55002.5])
        assert detect_gaps(s, 1.0).state is SeriesState.DISCONTINUOUS


class TestAnomalyAndAmplitude:
    def test_constant_series(self):
        c = ComponentSeries(Component.X, [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        np.testing.assert_array_equal(compute_anomaly(c).values_m, [0.0, 0.0, 0.0])
        assert amplitude(c) == 0.0

    def test_hand_values(self):
        c = ComponentSeries(Component.Y, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(compute_anomaly(c).values_m, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_single_point(self):
        c = ComponentSeries(Component.Z, [7.0], [7.3])
        assert compute_anomaly(c).values_m[0] == 0.0
        assert amplitude(c) == 0.0

    def test_amplitude_hand_value(self):
        c = ComponentSeries(Component.X, [1.0, 2.0, 3.0], [0.10, -0.10, 0.05])
        assert amplitude(c) == pytest.approx(0.20, abs=1e-15)

    @given(st.lists(st.floats(min_value=-1e7, max_value=1e7,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_anomaly_mean_near_zero_and_amplitude_preserved(self, values):
        epochs = np.arange(1.0, len(values) + 1.0)
        c = ComponentSeries(Component.X, epochs, values)
        anom = compute_anomaly(c)
        scale = max(1.0, abs(float(np.mean(values))))
        assert abs(float(anom.values_m.mean())) < 1e-9 * scale
        assert amplitude(anom) >= 0.0
        assert amplitude(anom) == pytest.approx(amplitude(c), rel=1e-12, abs=1e-300)

    def test_mean_center_round_trips(self):
        s = make_station([1.0, 2.0, 3.0], x=[4.0, 5.0, 6.0], y=[7.0, 7.0, 7.0], z=[0.0, 1.0, -1.0])
        centered, offsets = mean_center(s)
        assert offsets == (5.0, 7.0, 0.0)
        for comp, off in zip(("X", "Y", "Z"), offsets):
            np.testing.assert_allclose(
                centered.component(comp).values_m + off,
                s.component(comp).values_m, rtol=0, atol=1e-12,
            )
