"""Ingestion, gap detection and amplitudes."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_grnn import (
    Component,
    ComponentSeries,
    DataError,
    GapReport,
    GapSpan,
    ParseError,
    SeriesState,
    StationSeries,
    SyntheticKind,
    amplitude,
    decimal_year_to_mjd,
    detect_gaps,
    generate_synthetic,
    parse_series,
    write_series_csv,
)
from gnss_grnn import series as series_module


def make_station(epochs, x=None, y=None, z=None, **kwargs):
    epochs = np.asarray(epochs, dtype=float)
    default = np.zeros_like(epochs)
    values = np.array([default if v is None else np.asarray(v, dtype=float) for v in (x, y, z)])
    return StationSeries(station_id="test", epochs_mjd=epochs, values_m=values, **kwargs)


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
        assert s.components[0].values_m[0] == 4075000.1

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
        np.testing.assert_array_equal(s.components[0].values_m, [1.0, 2.0, 3.0])

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
        np.testing.assert_array_equal(s.components[2].values_m, [3.5, 3.6, 3.7])
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
        for a, b in zip(again.components, station.components):
            np.testing.assert_array_equal(a.values_m, b.values_m)


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
        try:
            fields = next(csv.reader(io.StringIO(text)))
        except csv.Error as exc:
            raise ParseError(str(exc), source=name, line=lineno) from None
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
        if not np.isfinite(epoch):
            raise ParseError("epoch must map to a finite MJD", source=name, line=lineno)
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


def assert_same_outcome(got, want):
    """Equal bits (as int64 views), or the same message and line."""
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
    else:
        assert got[1:] == want[1:]


def line_by_line(text):
    """``parse_series`` with its bulk pass refusing every file."""
    with mock.patch.object(series_module, "_read_bulk", return_value=None):
        return parse_series(io.StringIO(text))


def assert_same_as_reference(text):
    got = parse_outcome(lambda t: parse_series(io.StringIO(t)), text)
    assert_same_outcome(got, parse_outcome(reference_parse, text))
    # the bulk pass and the loop it falls back to agree as well
    assert_same_outcome(got, parse_outcome(line_by_line, text))
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
    # the year is finite, its MJD is not
    "overflowing_year": "epoch_year,x_m,y_m,z_m\n2001,1,2,3\n2002,1,2,3\n1e306,1,2,3\n",
    "duplicate_epoch": "epoch_mjd,x_m,y_m,z_m\n55001,1,2,3\n55000,1,2,3\n55001,4,5,6\n",
    "too_few_rows": "epoch_mjd,x_m,y_m,z_m\n55000,1,2,3\n# 55001,1,2,3\n55002,1,2,3\n",
    "empty_file": "",
    "comments_only": "# nothing\n\n",
    "bad_header": "time,x,y,z\n1,2,3,4\n",
    "header_only": "epoch_mjd,x_m,y_m,z_m\n",
}

#: A clean file the bulk pass reads, as rows of fields; each case below
#: changes one field of it (or adds one line).
_CLEAN_ROWS = (("55002", "3.25", "-1.5", "0.125"), ("55000", "1.0", "2.0", "3.0"),
               ("55001", "1.5", "2.5", "3.5"))
_CLEAN_YEAR_ROWS = (("2009.4661", "1", "2", "3"), ("2009.4606", "4", "5", "6"),
                    ("2009.4634", "7", "8", "9"))


def _clean_file(row=None, col=None, field=None, *, year=False, extra_line=None):
    rows = [list(r) for r in (_CLEAN_YEAR_ROWS if year else _CLEAN_ROWS)]
    if row is not None:
        rows[row][col] = field
    lines = ["epoch_year,x_m,y_m,z_m" if year else "epoch_mjd,x_m,y_m,z_m"]
    lines += [",".join(r) for r in rows]
    if extra_line is not None:
        lines.insert(2, extra_line)
    return "\n".join(lines) + "\n"


_PARSE_CASES.update({
    "clean_mjd": _clean_file(),
    "clean_year": _clean_file(year=True),
    "field_underscore": _clean_file(1, 1, "1_0"),
    "field_arabic_indic_digit": _clean_file(1, 2, "\u0661"),
    "field_unit_separator_first": _clean_file(0, 3, "\x1f0.125"),
    "field_unit_separator_last": _clean_file(2, 0, "55001\x1f"),
    "field_nul": _clean_file(2, 1, "1\x005"),
    "field_mid_line_hash": _clean_file(1, 2, "2#5"),
    "field_trailing_hash": _clean_file(0, 3, "0.125 # note"),
    "field_quoted": _clean_file(0, 1, '"3.25"'),
    "blank_line": _clean_file(extra_line=""),
    "whitespace_only_line": _clean_file(extra_line=" \t "),
    "trailing_comma": _clean_file(2, 3, "3.5,"),
    "field_nan": _clean_file(1, 3, "nan"),
    "field_1e999": _clean_file(2, 2, "1e999"),
    "year_before_mjd_zero": _clean_file(1, 0, "1858.8", year=True),
    "duplicate_epoch_in_clean_file": _clean_file(2, 0, "55002"),
    "duplicate_epoch_after_blank_line": _clean_file(2, 0, "55002", extra_line=""),
    "header_then_blank_lines": "epoch_mjd,x_m,y_m,z_m\n\n\n",
    # fields the csv module refuses, quoted or not: loadtxt has no such limit
    "field_over_csv_limit_quoted": _clean_file(2, 1, '"1.' + "0" * 200_000 + '"'),
    "field_over_csv_limit": _clean_file(2, 1, "1." + "0" * 200_000),
    # a line over the limit whose fields are within it: both paths read it
    "line_over_csv_limit": _clean_file(2, 1, "1." + "0" * 70_000).replace(
        ",2.5,", ",2." + "0" * 70_000 + ","),
})

#: Fields the mutation strategy writes into a clean file: ones ``float()``
#: reads and loadtxt does not, ones neither reads, quotes, comment marks,
#: non-finite and out-of-range values, and epochs that repeat.
_MUTATIONS = ["1_0", "\u0661", "\u0661.5", "\x1f1.5", "2.5\x1f", "1\x002", "#", "3#4", "# 5",
              '"7"', '"8', "", " ", "nan", "1e999", "-inf", " 9 ", "\t10", "0", "-3", "1,2",
              "1858.8", "1e306", "55001", "2009.4634", "0x10", "1e5", "+.5"]
#: Text the strategy appends to a clean field; a ``#`` after the last
#: field is the trap of loadtxt's default ``comments``.
_SUFFIXES = ["#4", " # note", "_0", "\x1f", "\x00", '"', "e999", ","]


@st.composite
def mutated_files(draw):
    """A valid MJD or decimal-year file, often with one field replaced
    from ``_MUTATIONS``, extended from ``_SUFFIXES`` or set to the next
    row's epoch, and often with one blank, whitespace or comment line
    added. An unchanged file is read by the bulk pass."""
    year = draw(st.booleans())
    n = draw(st.integers(3, 8))
    ticks = draw(st.lists(st.integers(0, 9999), min_size=n, max_size=n, unique=True))
    epochs = ([f"{2009 + t / 10000:.4f}" for t in ticks] if year
              else [repr(55000 + t / 4) for t in ticks])
    values = draw(st.lists(st.floats(-1e7, 1e7), min_size=3 * n, max_size=3 * n))
    rows = [[e, *map(repr, values[3 * i:3 * i + 3])] for i, e in enumerate(epochs)]
    i, col = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
    change = draw(st.sampled_from(["none", "replace", "append", "repeat epoch"]))
    if change == "replace":
        rows[i][col] = draw(st.sampled_from(_MUTATIONS))
    elif change == "append":
        rows[i][col] += draw(st.sampled_from(_SUFFIXES))
    elif change == "repeat epoch":
        rows[i][0] = rows[(i + 1) % n][0]
    lines = ["epoch_year,x_m,y_m,z_m" if year else "epoch_mjd,x_m,y_m,z_m"]
    lines += [",".join(r) for r in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, n + 1)), draw(st.sampled_from(["", "  ", "\t", "#"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


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
                         "positive MJD", "finite MJD", "duplicate epoch", "too short",
                         "empty file", "unrecognized header"):
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

    @given(mutated_files())
    @settings(max_examples=500, deadline=None)
    def test_mutated_valid_files(self, text):
        assert_same_as_reference(text)

    def test_clean_cases_read_and_mutations_fall_back_or_fail(self):
        ok = {case for case, text in _PARSE_CASES.items()
              if parse_outcome(reference_parse, text)[0] == "ok"}
        assert {"clean_mjd", "clean_year", "field_underscore", "field_arabic_indic_digit",
                "field_unit_separator_first", "field_unit_separator_last", "field_quoted",
                "blank_line", "whitespace_only_line", "line_over_csv_limit"} <= ok
        assert not {"field_nul", "field_mid_line_hash", "field_trailing_hash",
                    "field_over_csv_limit_quoted", "field_over_csv_limit",
                    "trailing_comma", "field_nan", "field_1e999", "year_before_mjd_zero",
                    "duplicate_epoch_in_clean_file", "duplicate_epoch_after_blank_line",
                    "header_then_blank_lines"} & ok

    def test_duplicate_in_clean_file_names_both_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_series(io.StringIO(_PARSE_CASES["duplicate_epoch_in_clean_file"]))
        assert exc.value.line == 4
        assert str(exc.value) == "<stream>: line 4: duplicate epoch 55002.0 (also on line 2)"
        with pytest.raises(ParseError) as exc:
            parse_series(io.StringIO(_PARSE_CASES["duplicate_epoch_after_blank_line"]))
        assert str(exc.value) == "<stream>: line 5: duplicate epoch 55002.0 (also on line 2)"


    def test_an_overflowing_year_fails_alike_on_both_paths(self):
        # the year is finite, its MJD is not: the error names the file and the line
        text = _PARSE_CASES["overflowing_year"]
        for parse in (lambda t: parse_series(io.StringIO(t)), line_by_line):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.line == 4
            assert str(exc.value) == "<stream>: line 4: epoch must map to a finite MJD"

    def test_a_field_over_the_csv_limit_is_refused_by_line(self):
        limit = csv.field_size_limit()
        for case in ("field_over_csv_limit_quoted", "field_over_csv_limit"):
            with pytest.raises(ParseError) as exc:
                parse_series(io.StringIO(_PARSE_CASES[case]))
            assert exc.value.line == 4
            assert str(exc.value) == (
                f"<stream>: line 4: field larger than field limit ({limit})")


class TestBulkPass:
    """Files the program writes, or that look like public series, must be
    read by the bulk pass: a silent fall back to the loop loses its speed."""

    @pytest.fixture
    def no_loop(self, monkeypatch):
        def refuse(lines, name):
            raise AssertionError(f"{name} was read line by line")
        monkeypatch.setattr(series_module, "_read_lines", refuse)

    @pytest.mark.parametrize("kind", list(SyntheticKind))
    def test_written_series(self, kind, no_loop):
        station = generate_synthetic(kind, 400, 3)
        buf = io.StringIO()
        write_series_csv(station, buf)
        again = parse_series(io.StringIO(buf.getvalue()), station_id=station.station_id)
        assert np.array_equal(again.epochs_mjd.view(np.int64), station.epochs_mjd.view(np.int64))
        assert np.array_equal(again.values_m.view(np.int64), station.values_m.view(np.int64))

    def test_written_file_on_disk(self, tmp_path, no_loop):
        station = generate_synthetic(SyntheticKind.GAPPED_TREND, 400, 1)
        write_series_csv(station, tmp_path / "STAT.csv")
        assert parse_series(tmp_path / "STAT.csv").count == station.count

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decimal_year_file(self, seed, no_loop):
        # 4-decimal years and shortest round-trip values, as public
        # decimal-year series ship
        station = generate_synthetic(SyntheticKind.TREND_PLUS_ANNUAL, 900, seed)
        lines = ["epoch_year,x_m,y_m,z_m"]
        for mjd, (x, y, z) in zip(station.epochs_mjd.tolist(), station.values_m.T.tolist()):
            lines.append(f"{2000.0 + (mjd - 51544.5) / 365.25:.4f},{x!r},{y!r},{z!r}")
        text = "\n".join(lines) + "\n"
        got = parse_outcome(lambda t: parse_series(io.StringIO(t)), text)
        assert_same_outcome(got, parse_outcome(reference_parse, text))

    def test_a_comment_goes_to_the_loop(self):
        with mock.patch.object(series_module, "_read_lines",
                               wraps=series_module._read_lines) as loop:
            parse_series(io.StringIO("# station\n" + _clean_file()))
        assert loop.call_count == 1


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
        with pytest.raises(DataError, match="^epochs must be strictly increasing$"):
            StationSeries("s", [2.0, 1.0], np.zeros((3, 2)))

    def test_negative_mjd(self):
        with pytest.raises(DataError, match="^MJD epochs must be positive$"):
            StationSeries("s", [-1.0, 2.0], np.zeros((3, 2)))

    def test_non_finite_epochs(self):
        with pytest.raises(DataError, match="^epochs must be finite$"):
            StationSeries("s", [1.0, np.inf], np.zeros((3, 2)))

    def test_two_dimensional_epochs(self):
        with pytest.raises(DataError, match="^epochs must be one-dimensional$"):
            StationSeries("s", [[1.0, 2.0]], np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(2, 4), (3, 5), (4, 3), (4,), (3, 4, 1)])
    def test_values_must_be_three_rows_on_the_epochs(self, shape):
        with pytest.raises(DataError) as exc:
            StationSeries("s", [1.0, 2.0, 3.0, 4.0], np.zeros(shape))
        assert str(exc.value) == (
            f"values must have shape (3, 4) to match the epochs, got {shape}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_non_finite_values(self, bad, row):
        values = np.zeros((3, 3))
        values[row, 1] = bad
        with pytest.raises(DataError, match="^values must be finite$"):
            StationSeries("s", [1.0, 2.0, 3.0], values)

    def test_caller_arrays_stay_writeable(self):
        epochs, values = np.array([1.0, 2.0, 3.0]), np.zeros((3, 3))
        s = StationSeries("s", epochs, values)
        assert epochs.flags.writeable and values.flags.writeable
        assert not s.epochs_mjd.flags.writeable and not s.values_m.flags.writeable
        epochs[0], values[0, 0] = 0.5, 9.0
        assert s.epochs_mjd[0] == 1.0 and s.values_m[0, 0] == 0.0

    def test_read_only_arrays_are_kept_without_a_copy(self):
        epochs, values = np.array([1.0, 2.0, 3.0]), np.zeros((3, 3))
        epochs.flags.writeable = values.flags.writeable = False
        s = StationSeries("s", epochs, values)
        assert s.epochs_mjd is epochs and s.values_m is values

    def test_arrays_read_only(self):
        s = make_station([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.epochs_mjd[0] = 9.0
        with pytest.raises(ValueError):
            s.values_m[1, 0] = 9.0
        with pytest.raises(ValueError):
            s.components[2].values_m[0] = 9.0


class TestStationLayout:
    @staticmethod
    def assert_one_array(s):
        assert s.values_m.shape == (3, s.count)
        assert s.values_m.dtype == np.float64
        assert s.values_m.flags.c_contiguous
        assert not s.values_m.flags.writeable
        assert not s.epochs_mjd.flags.writeable

    def test_parsed_mjd_file(self):
        s = parse_series(io.StringIO(CSV_MIN))
        self.assert_one_array(s)
        np.testing.assert_array_equal(s.values_m, [[4075000.1, 4075000.2, 4075000.3],
                                                   [931000.2, 931000.3, 931000.4],
                                                   [4801000.3, 4801000.4, 4801000.5]])

    def test_parsed_decimal_year_file(self):
        text = "epoch_year,x_m,y_m,z_m\n2002.0,7,8,9\n2000.0,1,2,3\n2001.0,4,5,6\n"
        s = parse_series(io.StringIO(text))
        self.assert_one_array(s)
        np.testing.assert_array_equal(s.values_m, [[1, 4, 7], [2, 5, 8], [3, 6, 9]])

    def test_parsed_epochs_and_values_share_one_array(self):
        s = parse_series(io.StringIO(CSV_MIN))
        assert s.values_m.base is not None and s.values_m.base is s.epochs_mjd.base
        assert s.values_m.base.shape == (4, 3)

    @pytest.mark.parametrize("kind", list(SyntheticKind))
    def test_synthetic(self, kind):
        self.assert_one_array(generate_synthetic(kind, 60, 1))

    def test_a_caller_array_is_made_contiguous(self):
        values = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        s = StationSeries("s", [1.0, 2.0, 3.0, 4.0], values)
        assert s.values_m.flags.c_contiguous
        np.testing.assert_array_equal(s.values_m, values)

    def test_components_are_labeled_row_views(self):
        s = make_station([1.0, 2.0, 3.0], x=[1.0, 2.0, 3.0], y=[4.0, 5.0, 6.0],
                         z=[7.0, 8.0, 9.0])
        comps = s.components
        assert [c.component for c in comps] == [Component.X, Component.Y, Component.Z]
        for row, comp in zip(s.values_m, comps):
            assert isinstance(comp, ComponentSeries)
            assert np.shares_memory(comp.values_m, s.values_m)
            np.testing.assert_array_equal(comp.values_m, row)


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

    def test_state_and_largest_gap_derive_from_the_gaps(self):
        none = GapReport(())
        assert (none.state, none.largest_gap_days) == (SeriesState.CONTINUOUS, 0.0)
        two = GapReport((GapSpan(55001.0, 55005.0, 3), GapSpan(55010.0, 55012.0, 1)))
        assert (two.state, two.largest_gap_days) == (SeriesState.DISCONTINUOUS, 4.0)

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


class TestAmplitude:
    def test_constant_series(self):
        s = make_station([1.0, 2.0, 3.0], x=[5.0, 5.0, 5.0])
        assert amplitude(s.components[0]) == 0.0

    def test_single_point(self):
        s = make_station([7.0], z=[7.3])
        assert amplitude(s.components[2]) == 0.0

    def test_amplitude_hand_value(self):
        c = ComponentSeries(Component.X, np.array([0.10, -0.10, 0.05]))
        assert amplitude(c) == pytest.approx(0.20, abs=1e-15)
