"""Forecasting toolkit for GNSS permanent-station position time series.

A Gaussian-kernel rolling-window predictor and a Theta-method baseline,
scored with sMAPE / StD / MAbs over rolling-origin backtests, plus gap
detection and a station-batch comparison harness.
"""

__version__ = "0.1.0"

from .errors import (
    BandwidthTooSmallError,
    DataError,
    NumericError,
    ParseError,
    UndefinedMetricError,
)
from .grnn import (
    BandwidthRule,
    GrnnConfig,
    Mode,
    StationForecast,
    adaptive_forecast_series,
    forecast_series,
    gaussian_kernel,
)
from .harness import (
    SyntheticKind,
    SyntheticParams,
    compare_methods,
    evaluate_station,
    evaluate_stations,
    generate_synthetic,
    run_sweep,
    time_methods,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
)
from .metrics import (
    compute_report,
    mean_abs_error,
    smape,
    std_of_errors,
)
from .series import (
    Component,
    ComponentSeries,
    GapReport,
    GapSpan,
    SeriesState,
    StationSeries,
    amplitude,
    decimal_year_to_mjd,
    detect_gaps,
    mjd_to_decimal_year,
    parse_series,
    write_series_csv,
)
from .theta import ThetaFit, theta_backtest

__all__ = [
    "BandwidthRule",
    "BandwidthTooSmallError",
    "Component",
    "ComponentSeries",
    "DataError",
    "GapReport",
    "GapSpan",
    "GrnnConfig",
    "Mode",
    "NumericError",
    "ParseError",
    "SeriesState",
    "StationForecast",
    "StationSeries",
    "SyntheticKind",
    "SyntheticParams",
    "ThetaFit",
    "UndefinedMetricError",
    "adaptive_forecast_series",
    "amplitude",
    "compare_methods",
    "compute_report",
    "decimal_year_to_mjd",
    "detect_gaps",
    "evaluate_station",
    "evaluate_stations",
    "forecast_series",
    "gaussian_kernel",
    "generate_synthetic",
    "mean_abs_error",
    "mjd_to_decimal_year",
    "parse_series",
    "run_sweep",
    "smape",
    "std_of_errors",
    "theta_backtest",
    "time_methods",
    "write_reports_csv",
    "write_reports_json",
    "write_series_csv",
    "write_sweep_csv",
]
